type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Assoc of (string * t) list

let needs_escape c = c = '"' || c = '\\' || Char.code c < 0x20

(* Copies maximal clean runs with [add_substring] instead of walking
   char-by-char: most strings contain nothing to escape. *)
let escape buf s =
  Buffer.add_char buf '"';
  let n = String.length s in
  let flush_run start stop =
    if stop > start then Buffer.add_substring buf s start (stop - start)
  in
  let rec go start i =
    if i = n then flush_run start i
    else if needs_escape (String.unsafe_get s i) then begin
      flush_run start i;
      (match String.unsafe_get s i with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c)));
      go (i + 1) (i + 1)
    end
    else go start (i + 1)
  in
  go 0 0;
  Buffer.add_char buf '"'

let float_literal f =
  if not (Float.is_finite f) then "null"
  else if Float.is_integer f && Float.abs f < 1e12 && not (f = 0. && 1. /. f < 0.)
  then
    (* %.12g prints integral magnitudes below 10^12 as bare digits (and
       negative zero as "-0", hence the exclusion above). *)
    string_of_int (int_of_float f)
  else begin
    match Dtoa.to_literal f with
    | Some s -> s
    | None ->
      (* Round-trippable and short for friendly values: %g strips
         trailing zeros, so 16 digits renders 0.1 as "0.1" while needing
         the %.17g fallback only for the values that genuinely use all
         17. Trying 16 first (not 12) matters: values reaching this
         branch essentially never fit 12 digits, and the failed attempt
         costs a format and a parse per call. *)
      let s = Printf.sprintf "%.16g" f in
      if Float.of_string s = f then s else Printf.sprintf "%.17g" f
  end

(* Digits straight into the buffer: [string_of_int] allocates a fresh
   string per call, which adds up under a debug-level trace sink.
   Negative values fall back to it (handles [min_int]); they do not
   occur on hot paths. Top-level recursion, not an inner [let rec]: a
   loop capturing [buf] would allocate a closure per call. *)
let rec write_uint buf n =
  if n >= 10 then write_uint buf (n / 10);
  Buffer.add_char buf (Char.unsafe_chr (Char.code '0' + (n mod 10)))

let write_int buf n =
  if n < 0 then Buffer.add_string buf (string_of_int n) else write_uint buf n

let rec write buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int i -> write_int buf i
  | Float f -> Buffer.add_string buf (float_literal f)
  | String s -> escape buf s
  | List items ->
    Buffer.add_char buf '[';
    List.iteri
      (fun i item ->
        if i > 0 then Buffer.add_char buf ',';
        write buf item)
      items;
    Buffer.add_char buf ']'
  | Assoc fields ->
    Buffer.add_char buf '{';
    List.iteri
      (fun i (key, value) ->
        if i > 0 then Buffer.add_char buf ',';
        escape buf key;
        Buffer.add_char buf ':';
        write buf value)
      fields;
    Buffer.add_char buf '}'

let to_string v =
  let buf = Buffer.create 256 in
  write buf v;
  Buffer.contents buf

let pp ppf v = Format.pp_print_string ppf (to_string v)

exception Parse_error of string

(* Recursive-descent parser over a string with a mutable cursor. *)
type cursor = { src : string; mutable pos : int }

let fail cur msg = raise (Parse_error (Printf.sprintf "%s at offset %d" msg cur.pos))
let peek cur = if cur.pos < String.length cur.src then Some cur.src.[cur.pos] else None

let advance cur = cur.pos <- cur.pos + 1

let skip_ws cur =
  while
    match peek cur with
    | Some (' ' | '\t' | '\n' | '\r') ->
      advance cur;
      true
    | _ -> false
  do
    ()
  done

let expect cur c =
  match peek cur with
  | Some got when got = c -> advance cur
  | _ -> fail cur (Printf.sprintf "expected %c" c)

let literal cur word value =
  let n = String.length word in
  if cur.pos + n <= String.length cur.src && String.sub cur.src cur.pos n = word then begin
    cur.pos <- cur.pos + n;
    value
  end
  else fail cur (Printf.sprintf "expected %s" word)

let parse_string cur =
  expect cur '"';
  let buf = Buffer.create 16 in
  let rec loop () =
    match peek cur with
    | None -> fail cur "unterminated string"
    | Some '"' -> advance cur
    | Some '\\' ->
      advance cur;
      (match peek cur with
      | None -> fail cur "unterminated escape"
      | Some c ->
        advance cur;
        (match c with
        | '"' -> Buffer.add_char buf '"'
        | '\\' -> Buffer.add_char buf '\\'
        | '/' -> Buffer.add_char buf '/'
        | 'n' -> Buffer.add_char buf '\n'
        | 'r' -> Buffer.add_char buf '\r'
        | 't' -> Buffer.add_char buf '\t'
        | 'b' -> Buffer.add_char buf '\b'
        | 'f' -> Buffer.add_char buf '\012'
        | 'u' ->
          if cur.pos + 4 > String.length cur.src then fail cur "truncated \\u escape";
          let hex = String.sub cur.src cur.pos 4 in
          cur.pos <- cur.pos + 4;
          let code =
            try int_of_string ("0x" ^ hex) with _ -> fail cur "bad \\u escape"
          in
          (* ASCII passes through; anything wider degrades to '?' — we never
             emit non-ASCII ourselves. *)
          Buffer.add_char buf (if code < 0x80 then Char.chr code else '?')
        | _ -> fail cur "unknown escape");
        loop ())
    | Some c ->
      advance cur;
      Buffer.add_char buf c;
      loop ()
  in
  loop ();
  Buffer.contents buf

let parse_number cur =
  let start = cur.pos in
  let is_number_char = function
    | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
    | _ -> false
  in
  while match peek cur with Some c when is_number_char c -> advance cur; true | _ -> false do
    ()
  done;
  let text = String.sub cur.src start (cur.pos - start) in
  let floaty = String.exists (function '.' | 'e' | 'E' -> true | _ -> false) text in
  if floaty then begin
    match float_of_string_opt text with
    | Some f -> Float f
    | None -> fail cur "malformed number"
  end
  else begin
    match int_of_string_opt text with
    | Some i -> Int i
    | None ->
      (* Out-of-range integer literal: fall back to float. *)
      (match float_of_string_opt text with
      | Some f -> Float f
      | None -> fail cur "malformed number")
  end

let rec parse_value cur =
  skip_ws cur;
  match peek cur with
  | None -> fail cur "unexpected end of input"
  | Some '{' ->
    advance cur;
    skip_ws cur;
    if peek cur = Some '}' then begin
      advance cur;
      Assoc []
    end
    else begin
      let rec fields acc =
        skip_ws cur;
        let key = parse_string cur in
        skip_ws cur;
        expect cur ':';
        let value = parse_value cur in
        skip_ws cur;
        match peek cur with
        | Some ',' ->
          advance cur;
          fields ((key, value) :: acc)
        | Some '}' ->
          advance cur;
          List.rev ((key, value) :: acc)
        | _ -> fail cur "expected , or }"
      in
      Assoc (fields [])
    end
  | Some '[' ->
    advance cur;
    skip_ws cur;
    if peek cur = Some ']' then begin
      advance cur;
      List []
    end
    else begin
      let rec items acc =
        let value = parse_value cur in
        skip_ws cur;
        match peek cur with
        | Some ',' ->
          advance cur;
          items (value :: acc)
        | Some ']' ->
          advance cur;
          List.rev (value :: acc)
        | _ -> fail cur "expected , or ]"
      in
      List (items [])
    end
  | Some '"' -> String (parse_string cur)
  | Some 't' -> literal cur "true" (Bool true)
  | Some 'f' -> literal cur "false" (Bool false)
  | Some 'n' -> literal cur "null" Null
  | Some ('-' | '0' .. '9') -> parse_number cur
  | Some c -> fail cur (Printf.sprintf "unexpected character %c" c)

let of_string s =
  let cur = { src = s; pos = 0 } in
  match parse_value cur with
  | value ->
    skip_ws cur;
    if cur.pos = String.length s then Ok value
    else Error (Printf.sprintf "trailing garbage at offset %d" cur.pos)
  | exception Parse_error msg -> Error msg

(* [String.equal], not [List.assoc_opt]'s polymorphic compare: readers
   look up several members of every trace record. *)
let rec assoc key = function
  | [] -> None
  | (k, v) :: rest -> if String.equal k key then Some v else assoc key rest

let member key = function Assoc fields -> assoc key fields | _ -> None

let to_float = function Int i -> Some (float_of_int i) | Float f -> Some f | _ -> None
let to_int = function Int i -> Some i | _ -> None
let to_bool = function Bool b -> Some b | _ -> None
let string_value = function String s -> Some s | _ -> None
