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

let iter_jsonl path ~parse ~f =
  In_channel.with_open_text path (fun ic ->
      let rec loop line =
        match In_channel.input_line ic with
        | None -> ()
        | Some s ->
          if not (is_blank s) then f ~line (parse s);
          loop (line + 1)
      in
      loop 1)

(* A framing error is delivered as one more record, after the last good
   one. *)
let iter_binary decode path ~f =
  let last = ref 0 in
  match
    decode path ~f:(fun ~index x ->
        last := index;
        f ~line:index (Ok x))
  with
  | Ok () -> ()
  | Error msg -> f ~line:(!last + 1) (Error msg)

let iter path ~f =
  let format = detect path in
  (match format with
  | Jsonl -> iter_jsonl path ~parse:Json.of_string ~f
  | Binary -> iter_binary Btrace.iter_records path ~f);
  format

let iter_views path ~f =
  match detect path with
  | Jsonl -> iter_jsonl path ~parse:(fun s -> Result.map View.of_json (Json.of_string s)) ~f
  | Binary -> iter_binary Btrace.iter_views path ~f
