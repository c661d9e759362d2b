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

let iter_jsonl path ~of_json ~f =
  In_channel.with_open_text path (fun ic ->
      let rec loop line =
        match In_channel.input_line ic with
        | None -> ()
        | Some s ->
          if not (is_blank s) then f ~line (Result.map of_json (Json.of_string s));
          loop (line + 1)
      in
      loop 1)

let iter_binary path ~of_binary ~f =
  let last = ref 0 in
  match
    Btrace.iter_records path ~read:of_binary ~f:(fun ~index value ->
        last := index;
        f ~line:index (Ok value))
  with
  | Ok () -> ()
  | Error msg -> f ~line:(!last + 1) (Error msg)

let iter_decoded path ~of_json ~of_binary ~f =
  let format = detect path in
  (match format with
  | Jsonl -> iter_jsonl path ~of_json ~f
  | Binary -> iter_binary path ~of_binary ~f);
  format

let iter path ~f = iter_decoded path ~of_json:Fun.id ~of_binary:Btrace.json ~f
