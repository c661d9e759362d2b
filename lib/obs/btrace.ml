let magic = "NTRC1\n"

(* Strings longer than this are written inline rather than interned:
   interning only pays off for values that recur (keys, kinds, labels). *)
let max_intern_len = 64

(* Cap on intern-table size so a pathological trace cannot make the
   writer (or a reader) hold unbounded distinct strings. *)
let max_intern_entries = 1 lsl 16

let tag_null = 0
let tag_false = 1
let tag_true = 2
let tag_int_pos = 3
let tag_int_neg = 4
let tag_float = 5
let tag_string_inline = 6
let tag_string_define = 7
let tag_string_ref = 8
let tag_list = 9
let tag_assoc = 10

(* Unsigned LEB128. [n] is treated as a 63-bit non-negative value; the
   sign-magnitude int tags keep actual negatives out of here. A
   top-level recursive function, not an inner [let rec]: an inner loop
   capturing [buf] would allocate a closure on every call. *)
let rec add_varint buf n =
  if n land lnot 0x7f = 0 then Buffer.add_char buf (Char.unsafe_chr n)
  else begin
    Buffer.add_char buf (Char.unsafe_chr (0x80 lor (n land 0x7f)));
    add_varint buf (n lsr 7)
  end

(* Split into two untagged 32-bit halves up front: per-byte [Int64]
   shifts would box an intermediate for every byte written. *)
let add_float_le buf f =
  let bits = Int64.bits_of_float f in
  let lo = Int64.to_int (Int64.logand bits 0xFFFFFFFFL) in
  let hi = Int64.to_int (Int64.shift_right_logical bits 32) in
  Buffer.add_char buf (Char.unsafe_chr (lo land 0xff));
  Buffer.add_char buf (Char.unsafe_chr ((lo lsr 8) land 0xff));
  Buffer.add_char buf (Char.unsafe_chr ((lo lsr 16) land 0xff));
  Buffer.add_char buf (Char.unsafe_chr ((lo lsr 24) land 0xff));
  Buffer.add_char buf (Char.unsafe_chr (hi land 0xff));
  Buffer.add_char buf (Char.unsafe_chr ((hi lsr 8) land 0xff));
  Buffer.add_char buf (Char.unsafe_chr ((hi lsr 16) land 0xff));
  Buffer.add_char buf (Char.unsafe_chr ((hi lsr 24) land 0xff))

(* -- Writer -------------------------------------------------------------- *)

type writer = {
  sink : Sink.t;
  intern : (string, int) Hashtbl.t;
  mutable next_id : int;
  atom_ids : int array;  (* intern id per atom slot, -1 until first use *)
  payload : Buffer.t;
  header : Buffer.t;
  mutable records : int;
}

(* Atoms: strings registered once (at module-initialisation time) and
   resolved per writer through a flat array, so a hot encoder pays an
   array load per recurring string instead of a hashtable lookup. An
   atom's first use in a writer goes through {!encode_string}, sharing
   the one intern id-space with the generic {!write} path — mixing the
   two on one writer stays byte-compatible in either order.

   The first [writer] freezes the registry: from then on it is
   immutable and [atom] raises, so writers on any domain read a registry
   nobody writes, and every writer's cache covers every atom. The
   open/frozen switch and each registration are one compare-and-set on
   the same atomic, so a registration racing the first [writer] either
   lands before the freeze or raises. *)
type atom = { str : string; slot : int }

(* Newest first; an atom's slot is the number registered before it. *)
type registry = Open of atom list | Frozen of int

let registry = Atomic.make (Open [])

let rec atom str =
  match Atomic.get registry with
  | Frozen _ ->
    invalid_arg
      (Printf.sprintf
         "Btrace.atom %S: a writer already exists (register atoms at module \
          initialisation)"
         str)
  | Open atoms as seen -> (
    match List.find_opt (fun a -> String.equal a.str str) atoms with
    | Some a -> a
    | None ->
      let a = { str; slot = List.length atoms } in
      if Atomic.compare_and_set registry seen (Open (a :: atoms)) then a else atom str)

(* The number of atom slots, freezing the registry. *)
let rec freeze_registry () =
  match Atomic.get registry with
  | Frozen slots -> slots
  | Open atoms as seen ->
    let slots = List.length atoms in
    if Atomic.compare_and_set registry seen (Frozen slots) then slots
    else freeze_registry ()

let writer sink =
  let slots = freeze_registry () in
  Sink.write sink magic;
  {
    sink;
    intern = Hashtbl.create 256;
    next_id = 0;
    atom_ids = Array.make (max 1 slots) (-1);
    payload = Buffer.create 256;
    header = Buffer.create 10;
    records = 0;
  }

let add_tag buf tag = Buffer.add_char buf (Char.unsafe_chr tag)

let encode_string w buf s =
  match Hashtbl.find_opt w.intern s with
  | Some id ->
    add_tag buf tag_string_ref;
    add_varint buf id
  | None ->
    let len = String.length s in
    if len <= max_intern_len && w.next_id < max_intern_entries then begin
      add_tag buf tag_string_define;
      Hashtbl.replace w.intern s w.next_id;
      w.next_id <- w.next_id + 1
    end
    else add_tag buf tag_string_inline;
    add_varint buf len;
    Buffer.add_string buf s

let rec encode w buf (json : Json.t) =
  match json with
  | Null -> add_tag buf tag_null
  | Bool false -> add_tag buf tag_false
  | Bool true -> add_tag buf tag_true
  | Int n ->
    if n >= 0 then begin
      add_tag buf tag_int_pos;
      add_varint buf n
    end
    else begin
      add_tag buf tag_int_neg;
      add_varint buf (-(n + 1))
    end
  | Float f ->
    add_tag buf tag_float;
    add_float_le buf f
  | String s -> encode_string w buf s
  | List items ->
    add_tag buf tag_list;
    add_varint buf (List.length items);
    List.iter (fun item -> encode w buf item) items
  | Assoc fields ->
    add_tag buf tag_assoc;
    add_varint buf (List.length fields);
    List.iter
      (fun (key, value) ->
        encode_string w buf key;
        encode w buf value)
      fields

let begin_record w = Buffer.clear w.payload

let end_record w ?now () =
  Buffer.clear w.header;
  add_varint w.header (Buffer.length w.payload);
  Sink.write_buffer w.sink w.header;
  Sink.write_buffer w.sink ?now w.payload;
  w.records <- w.records + 1

let write w ?now json =
  begin_record w;
  encode w w.payload json;
  end_record w ?now ()

let count w = w.records

(* -- Direct record encoding ---------------------------------------------- *)

(* Every atom was registered before the registry froze, so its slot is
   within every writer's cache. *)
let put_atom w a =
  let id = Array.unsafe_get w.atom_ids a.slot in
  if id >= 0 then begin
    add_tag w.payload tag_string_ref;
    add_varint w.payload id
  end
  else begin
    encode_string w w.payload a.str;
    match Hashtbl.find_opt w.intern a.str with
    | Some id -> w.atom_ids.(a.slot) <- id
    | None -> () (* intern table full: the atom stays inline *)
  end

let put_bool w b = add_tag w.payload (if b then tag_true else tag_false)

let put_int w n =
  if n >= 0 then begin
    add_tag w.payload tag_int_pos;
    add_varint w.payload n
  end
  else begin
    add_tag w.payload tag_int_neg;
    add_varint w.payload (-(n + 1))
  end

let put_float w f =
  add_tag w.payload tag_float;
  add_float_le w.payload f

let put_string w s = encode_string w w.payload s

let put_list_header w n =
  add_tag w.payload tag_list;
  add_varint w.payload n

let put_assoc_header w n =
  add_tag w.payload tag_assoc;
  add_varint w.payload n

(* -- Reader -------------------------------------------------------------- *)

exception Corrupt of string

let corrupt fmt = Printf.ksprintf (fun msg -> raise (Corrupt msg)) fmt

type table = { mutable entries : string array; mutable filled : int }

let table_create () = { entries = Array.make 256 ""; filled = 0 }

let table_add tbl s =
  if tbl.filled = Array.length tbl.entries then begin
    let bigger = Array.make (2 * tbl.filled) "" in
    Array.blit tbl.entries 0 bigger 0 tbl.filled;
    tbl.entries <- bigger
  end;
  tbl.entries.(tbl.filled) <- s;
  tbl.filled <- tbl.filled + 1

let table_get tbl id =
  if id < 0 || id >= tbl.filled then
    corrupt "intern reference %d out of range (table has %d entries)" id tbl.filled;
  tbl.entries.(id)

(* One record's payload, read front to back against the file's intern
   table. *)
type record = { tbl : table; bytes : Bytes.t; len : int; mutable pos : int }

let read_byte r =
  if r.pos >= r.len then corrupt "record truncated at byte %d" r.pos;
  let b = Char.code (Bytes.unsafe_get r.bytes r.pos) in
  r.pos <- r.pos + 1;
  b

let read_varint r =
  let rec go shift acc =
    if shift > 62 then corrupt "varint overflow at byte %d" r.pos;
    let b = read_byte r in
    let acc = acc lor ((b land 0x7f) lsl shift) in
    if b land 0x80 = 0 then acc else go (shift + 7) acc
  in
  go 0 0

let read_string_bytes r =
  let len = read_varint r in
  if len < 0 || r.pos + len > r.len then
    corrupt "string length %d exceeds record at byte %d" len r.pos;
  let s = Bytes.sub_string r.bytes r.pos len in
  r.pos <- r.pos + len;
  s

let read_float_le r =
  if r.pos + 8 > r.len then corrupt "record truncated in float at byte %d" r.pos;
  let bits = ref 0L in
  for i = 7 downto 0 do
    bits :=
      Int64.logor (Int64.shift_left !bits 8)
        (Int64.of_int (Char.code (Bytes.unsafe_get r.bytes (r.pos + i))))
  done;
  r.pos <- r.pos + 8;
  Int64.float_of_bits !bits

let decode_string r tag =
  if tag = tag_string_inline then read_string_bytes r
  else if tag = tag_string_define then begin
    let s = read_string_bytes r in
    table_add r.tbl s;
    s
  end
  else if tag = tag_string_ref then table_get r.tbl (read_varint r)
  else corrupt "expected string tag, found %d at byte %d" tag (r.pos - 1)

let rec json r : Json.t =
  let tag = read_byte r in
  if tag = tag_null then Null
  else if tag = tag_false then Bool false
  else if tag = tag_true then Bool true
  else if tag = tag_int_pos then Int (read_varint r)
  else if tag = tag_int_neg then Int (-read_varint r - 1)
  else if tag = tag_float then Float (read_float_le r)
  else if tag = tag_list then begin
    let n = read_varint r in
    let rec items i acc = if i = n then List.rev acc else items (i + 1) (json r :: acc) in
    Json.List (items 0 [])
  end
  else if tag = tag_assoc then begin
    let n = read_varint r in
    let rec fields i acc =
      if i = n then List.rev acc
      else begin
        let key = decode_string r (read_byte r) in
        let value = json r in
        fields (i + 1) ((key, value) :: acc)
      end
    in
    Json.Assoc (fields 0 [])
  end
  else decode_string r tag |> fun s -> Json.String s

(* Reads the length varint of the next record straight off the channel.
   A clean EOF before the first byte is the end of the trace; EOF
   mid-varint is truncation. *)
let input_record_length ic =
  match In_channel.input_char ic with
  | None -> None
  | Some first ->
    let rec go shift acc =
      let b =
        match In_channel.input_char ic with
        | Some c -> Char.code c
        | None -> corrupt "truncated record length varint"
      in
      if shift > 62 then corrupt "record length varint overflow";
      let acc = acc lor ((b land 0x7f) lsl shift) in
      if b land 0x80 = 0 then acc else go (shift + 7) acc
    in
    let b = Char.code first in
    Some (if b land 0x80 = 0 then b else go 7 (b land 0x7f))

let iter_channel ic ~f =
  let check_magic () =
    let n = String.length magic in
    let got = really_input_string ic n in
    if not (String.equal got magic) then corrupt "bad magic (not a binary trace)"
  in
  let tbl = table_create () in
  let rec records index =
    match input_record_length ic with
    | None -> ()
    | Some len ->
      if len < 0 then corrupt "record %d: negative length" index;
      let bytes = Bytes.create len in
      (try really_input ic bytes 0 len
       with End_of_file -> corrupt "record %d: truncated mid-record" index);
      let r = { tbl; bytes; len; pos = 0 } in
      let value = json r in
      if r.pos <> r.len then corrupt "record %d: %d trailing bytes" index (r.len - r.pos);
      f ~index value;
      records (index + 1)
  in
  match
    check_magic ();
    records 1
  with
  | () -> Ok ()
  | exception Corrupt msg -> Error msg
  | exception End_of_file -> Error "truncated header (not a binary trace)"

let iter_records path ~f = In_channel.with_open_bin path (fun ic -> iter_channel ic ~f)

