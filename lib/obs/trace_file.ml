type format = Jsonl | Binary

let format_to_string = function Jsonl -> "jsonl" | Binary -> "binary"

let format_of_path path =
  if Filename.check_suffix (String.lowercase_ascii path) ".ntrace" then Binary
  else Jsonl

let detect path =
  In_channel.with_open_bin path (fun ic ->
      let n = String.length Btrace.magic in
      match really_input_string ic n with
      | prefix when String.equal prefix Btrace.magic -> Binary
      | _ -> Jsonl
      | exception End_of_file -> Jsonl)

let is_blank s = String.for_all (fun c -> c = ' ' || c = '\t' || c = '\r') s

let iter_jsonl path ~f =
  In_channel.with_open_text path (fun ic ->
      let rec loop line =
        match In_channel.input_line ic with
        | None -> ()
        | Some s ->
          if not (is_blank s) then f ~line (Json.of_string s);
          loop (line + 1)
      in
      loop 1)

let iter_binary path ~f =
  let last = ref 0 in
  match
    Btrace.iter_records path ~f:(fun ~index json ->
        last := index;
        f ~line:index (Ok json))
  with
  | Ok () -> ()
  | Error msg -> f ~line:(!last + 1) (Error msg)

let iter path ~f =
  let format = detect path in
  (match format with Jsonl -> iter_jsonl path ~f | Binary -> iter_binary path ~f);
  format
