type t = { columns : string list; sink : Sink.t; row : Buffer.t }

let csv_cell = function
  | Json.Null -> ""
  | Json.Bool b -> string_of_bool b
  | Json.Int i -> string_of_int i
  | Json.Float f -> if Float.is_finite f then Printf.sprintf "%.12g" f else "nan"
  | Json.String s ->
    if String.exists (function ',' | '"' | '\n' -> true | _ -> false) s then
      "\"" ^ String.concat "\"\"" (String.split_on_char '"' s) ^ "\""
    else s
  | Json.List _ | Json.Assoc _ -> invalid_arg "Series.append: nested value in CSV cell"

let add_csv_row buf cells =
  List.iteri
    (fun i cell ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf cell)
    cells;
  Buffer.add_char buf '\n'

let create ~columns ?(header = true) sink =
  (match columns with [] -> invalid_arg "Series.create: no columns" | _ -> ());
  let t = { columns; sink; row = Buffer.create 256 } in
  if header then begin
    add_csv_row t.row (List.map (fun c -> csv_cell (Json.String c)) columns);
    Sink.write_buffer sink t.row;
    Buffer.clear t.row
  end;
  t

let append t ?now values =
  if List.length values <> List.length t.columns then
    invalid_arg "Series.append: value count does not match columns";
  Buffer.clear t.row;
  add_csv_row t.row (List.map csv_cell values);
  Sink.write_buffer t.sink ?now t.row;
  Buffer.clear t.row

let flush t = Sink.flush t.sink
let close t = Sink.close t.sink
let columns t = t.columns
