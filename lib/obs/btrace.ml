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

(* -- Writer -------------------------------------------------------------- *)

(* Each record is assembled in the writer's own byte cursor, behind
   [frame] bytes kept free for its length prefix (a 63-bit length needs
   at most 9 varint bytes), so [end_record] writes the prefix in place
   and hands the framed record to the sink in one call. *)
let frame = 9

type writer = {
  sink : Sink.t;
  intern : (string, int) Hashtbl.t;
  mutable next_id : int;
  atom_ids : int array;  (* intern id per atom slot, -1 until first use *)
  mutable buf : Bytes.t;
  mutable len : int;  (* end of the payload assembled so far *)
  mutable records : int;
}

(* Makes room for [n] more bytes. *)
let reserve w n =
  if w.len + n > Bytes.length w.buf then begin
    let bigger = Bytes.create (max (w.len + n) (2 * Bytes.length w.buf)) in
    Bytes.blit w.buf 0 bigger 0 w.len;
    w.buf <- bigger
  end

(* Unsigned LEB128 at [pos] of [buf], returning the end. [n] is treated
   as a 63-bit non-negative value; the sign-magnitude int tags keep
   actual negatives out of here. A top-level recursive function, not an
   inner [let rec]: an inner loop capturing [buf] would allocate a
   closure on every call. *)
let rec set_varint buf pos n =
  if n land lnot 0x7f = 0 then begin
    Bytes.unsafe_set buf pos (Char.unsafe_chr n);
    pos + 1
  end
  else begin
    Bytes.unsafe_set buf pos (Char.unsafe_chr (0x80 lor (n land 0x7f)));
    set_varint buf (pos + 1) (n lsr 7)
  end

let rec varint_size n = if n land lnot 0x7f = 0 then 1 else 1 + varint_size (n lsr 7)

(* A tag byte followed by a varint: at most 10 bytes. *)
let put_tagged w tag n =
  reserve w 10;
  Bytes.unsafe_set w.buf w.len (Char.unsafe_chr tag);
  w.len <- set_varint w.buf (w.len + 1) n

let put_tag w tag =
  reserve w 1;
  Bytes.unsafe_set w.buf w.len (Char.unsafe_chr tag);
  w.len <- w.len + 1

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
    buf = Bytes.create 256;
    len = frame;
    records = 0;
  }

let encode_string w s =
  match Hashtbl.find w.intern s with
  | id -> put_tagged w tag_string_ref id
  | exception Not_found ->
    let len = String.length s in
    if len <= max_intern_len && w.next_id < max_intern_entries then begin
      put_tagged w tag_string_define len;
      Hashtbl.replace w.intern s w.next_id;
      w.next_id <- w.next_id + 1
    end
    else put_tagged w tag_string_inline len;
    reserve w len;
    Bytes.unsafe_blit_string s 0 w.buf w.len len;
    w.len <- w.len + len

let put_int w n =
  if n >= 0 then put_tagged w tag_int_pos n else put_tagged w tag_int_neg (-(n + 1))

let put_float w f =
  reserve w 9;
  Bytes.unsafe_set w.buf w.len (Char.unsafe_chr tag_float);
  Bytes.set_int64_le w.buf (w.len + 1) (Int64.bits_of_float f);
  w.len <- w.len + 9

let rec encode w (json : Json.t) =
  match json with
  | Null -> put_tag w tag_null
  | Bool false -> put_tag w tag_false
  | Bool true -> put_tag w tag_true
  | Int n -> put_int w n
  | Float f -> put_float w f
  | String s -> encode_string w s
  | List items ->
    put_tagged w tag_list (List.length items);
    List.iter (fun item -> encode w item) items
  | Assoc fields ->
    put_tagged w tag_assoc (List.length fields);
    List.iter
      (fun (key, value) ->
        encode_string w key;
        encode w value)
      fields

let begin_record w = w.len <- frame

let end_record w ~now =
  let payload = w.len - frame in
  let start = frame - varint_size payload in
  ignore (set_varint w.buf start payload : int);
  Sink.write_bytes w.sink ~now w.buf start (w.len - start);
  w.records <- w.records + 1

let write w ?(now = Float.nan) json =
  begin_record w;
  encode w json;
  end_record w ~now

let count w = w.records

(* -- Direct record encoding ---------------------------------------------- *)

(* Every atom was registered before the registry froze, so its slot is
   within every writer's cache. *)
let put_atom w a =
  let id = Array.unsafe_get w.atom_ids a.slot in
  if id >= 0 then put_tagged w tag_string_ref id
  else begin
    encode_string w a.str;
    match Hashtbl.find w.intern a.str with
    | id -> w.atom_ids.(a.slot) <- id
    | exception Not_found -> () (* intern table full: the atom stays inline *)
  end

let put_bool w b = put_tag w (if b then tag_true else tag_false)
let put_string w s = encode_string w s
let put_list_header w n = put_tagged w tag_list n
let put_assoc_header w n = put_tagged w tag_assoc n

(* -- Reader -------------------------------------------------------------- *)

exception Corrupt of string

let corrupt fmt = Printf.ksprintf (fun msg -> raise (Corrupt msg)) fmt

(* The file's intern table, and beside it each entry's {!View} slot
   (-1 for a string that is no view key), resolved once per entry. *)
type table = {
  mutable entries : string array;
  mutable slots : int array;
  mutable filled : int;
}

let table_create () = { entries = Array.make 256 ""; slots = Array.make 256 (-1); filled = 0 }

let table_add tbl s =
  if tbl.filled = Array.length tbl.entries then begin
    let grow a fill =
      let bigger = Array.make (2 * tbl.filled) fill in
      Array.blit a 0 bigger 0 tbl.filled;
      bigger
    in
    tbl.entries <- grow tbl.entries "";
    tbl.slots <- grow tbl.slots (-1)
  end;
  tbl.entries.(tbl.filled) <- s;
  tbl.slots.(tbl.filled) <- View.slot_of_key s;
  tbl.filled <- tbl.filled + 1

let bad_ref tbl id =
  corrupt "intern reference %d out of range (table has %d entries)" id tbl.filled

let[@inline] check_ref tbl id = if id < 0 || id >= tbl.filled then bad_ref tbl id

(* A trace file read through one refill buffer: bytes [lo, hi) of [buf]
   are read but not yet framed, and the record being decoded occupies
   [base, limit), with [pos] its cursor. The buffer grows only for a
   record longer than itself, so memory follows the longest record,
   never the file. Byte offsets in error messages count from the start
   of the record's payload. *)
type reader = {
  ic : In_channel.t;
  mutable buf : Bytes.t;
  mutable lo : int;
  mutable hi : int;
  mutable base : int;
  mutable pos : int;
  mutable limit : int;
  tbl : table;
}

let refill_bytes = 64 * 1024

(* Makes [need] unread bytes available from [lo], reading more of the
   file; [false] when it ends first. *)
let rec fill rd need =
  rd.hi - rd.lo >= need
  ||
  let avail = rd.hi - rd.lo in
  if rd.lo > 0 && rd.lo + need > Bytes.length rd.buf then begin
    Bytes.blit rd.buf rd.lo rd.buf 0 avail;
    rd.lo <- 0;
    rd.hi <- avail
  end;
  (* Double rather than jump to [need]: a corrupt length then costs
     memory in proportion to the bytes the file really holds. *)
  if rd.hi = Bytes.length rd.buf then begin
    let bigger = Bytes.create (2 * Bytes.length rd.buf) in
    Bytes.blit rd.buf 0 bigger 0 rd.hi;
    rd.buf <- bigger
  end;
  let got = In_channel.input rd.ic rd.buf rd.hi (Bytes.length rd.buf - rd.hi) in
  got > 0
  && begin
    rd.hi <- rd.hi + got;
    fill rd need
  end

(* The per-byte primitives are inlined into the decoders, since a call
   per byte costs more than the decoding; errors leave through these
   out-of-line raisers. *)
let truncated rd p = corrupt "record truncated at byte %d" (p - rd.base)
let truncated_float rd p = corrupt "record truncated in float at byte %d" (p - rd.base)

let[@inline] read_byte rd =
  let p = rd.pos in
  if p >= rd.limit then truncated rd p;
  rd.pos <- p + 1;
  Char.code (Bytes.unsafe_get rd.buf p)

(* Top-level and recursive, like the writer's [set_varint]: no closure
   per call. *)
let rec varint_tail rd shift acc =
  if shift > 62 then corrupt "varint overflow at byte %d" (rd.pos - rd.base);
  let b = read_byte rd in
  let acc = acc lor ((b land 0x7f) lsl shift) in
  if b land 0x80 = 0 then acc else varint_tail rd (shift + 7) acc

let[@inline] read_varint rd =
  let b = read_byte rd in
  if b land 0x80 = 0 then b else varint_tail rd 7 (b land 0x7f)

let[@inline] read_int rd tag = if tag = tag_int_pos then read_varint rd else -read_varint rd - 1

(* Checks and passes a float's 8 bytes, returning where they start. *)
let[@inline] float_at rd =
  let p = rd.pos in
  if p + 8 > rd.limit then truncated_float rd p;
  rd.pos <- p + 8;
  p

let[@inline] read_float rd = Int64.float_of_bits (Bytes.get_int64_le rd.buf (float_at rd))

(* Checks and passes an inline or defined string's bytes, returning
   their length. *)
let string_extent rd =
  let len = read_varint rd in
  let p = rd.pos in
  if len < 0 || len > rd.limit - p then
    corrupt "string length %d exceeds record at byte %d" len (p - rd.base);
  rd.pos <- p + len;
  len

let read_string rd =
  let len = string_extent rd in
  Bytes.sub_string rd.buf (rd.pos - len) len

let[@inline] is_string_tag tag = tag >= tag_string_inline && tag <= tag_string_ref

let not_a_string rd tag =
  corrupt "expected string tag, found %d at byte %d" tag (rd.pos - 1 - rd.base)

(* A string reference's intern id, checked. *)
let[@inline] read_ref rd =
  let id = read_varint rd in
  check_ref rd.tbl id;
  id

(* A string value, or an intern id's entry. *)
let decode_string rd tag =
  if tag = tag_string_ref then Array.unsafe_get rd.tbl.entries (read_ref rd)
  else if tag = tag_string_define then begin
    let s = read_string rd in
    table_add rd.tbl s;
    s
  end
  else if tag = tag_string_inline then read_string rd
  else not_a_string rd tag

let rec json rd : Json.t =
  let tag = read_byte rd in
  if tag = tag_null then Null
  else if tag = tag_false then Bool false
  else if tag = tag_true then Bool true
  else if tag = tag_int_pos || tag = tag_int_neg then Int (read_int rd tag)
  else if tag = tag_float then Float (read_float rd)
  else if tag = tag_list then begin
    let n = read_varint rd in
    let rec items i acc = if i = n then List.rev acc else items (i + 1) (json rd :: acc) in
    Json.List (items 0 [])
  end
  else if tag = tag_assoc then begin
    let n = read_varint rd in
    let rec fields i acc =
      if i = n then List.rev acc
      else begin
        let key = decode_string rd (read_byte rd) in
        let value = json rd in
        fields (i + 1) ((key, value) :: acc)
      end
    in
    Json.Assoc (fields 0 [])
  end
  else Json.String (decode_string rd tag)

(* -- Direct view decoding ---------------------------------------------- *)

(* [skip_string] and [skip] read exactly what [decode_string] and
   [json] would — same checks, same errors, strings defined inside
   still entering the intern table — and build nothing. *)
let[@inline] skip_string rd tag =
  if tag = tag_string_ref then ignore (read_ref rd : int)
  else if tag = tag_string_define then table_add rd.tbl (read_string rd)
  else if tag = tag_string_inline then ignore (string_extent rd : int)
  else not_a_string rd tag

let rec skip rd tag =
  if tag <= tag_float then begin
    if tag = tag_int_pos || tag = tag_int_neg then ignore (read_varint rd : int)
    else if tag = tag_float then ignore (float_at rd : int)
  end
  else if tag = tag_list || tag = tag_assoc then begin
    let n = read_varint rd in
    let i = ref 0 in
    while !i <> n do
      if tag = tag_assoc then skip_string rd (read_byte rd);
      skip rd (read_byte rd);
      incr i
    done
  end
  else skip_string rd tag

(* A key's view slot: through the intern table for a reference or a
   definition, by lookup for an inline key (written only once the table
   is full). *)
let[@inline] key_slot rd tag =
  if tag = tag_string_ref then Array.unsafe_get rd.tbl.slots (read_ref rd)
  else if tag = tag_string_define then begin
    table_add rd.tbl (read_string rd);
    rd.tbl.slots.(rd.tbl.filled - 1)
  end
  else View.slot_of_key (decode_string rd tag)

let shapes = Array.map snd View.keys

(* One record as [View.of_json (json rd)] would project it, without the
   tree: wanted values are decoded in place into locals (slots as in
   {!View}), the rest skipped. *)
let view rd =
  let tag = read_byte rd in
  if tag <> tag_assoc then begin
    skip rd tag;
    None
  end
  else begin
    let n = read_varint rd in
    let seen = ref 0 and valid = ref 0 in
    let kind = ref "" and time = ref 0. and poller = ref 0 and voter = ref 0 in
    let claimed = ref 0 and peer = ref 0 and from_ = ref 0 and au = ref 0 in
    let poll_id = ref 0 and inner_candidates = ref 0 and votes = ref 0 in
    let seconds = ref 0. and role = ref "" and phase = ref "" and outcome = ref "" in
    let i = ref 0 in
    while !i <> n do
      let slot = key_slot rd (read_byte rd) in
      let tag = read_byte rd in
      let bit = 1 lsl slot in
      if slot < 0 || !seen land bit <> 0 then skip rd tag
      else begin
        seen := !seen lor bit;
        match Array.unsafe_get shapes slot with
        | Text when is_string_tag tag -> (
          valid := !valid lor bit;
          let s = decode_string rd tag in
          match slot with 0 -> kind := s | 12 -> role := s | 13 -> phase := s | _ -> outcome := s)
        | Number when tag = tag_float || tag = tag_int_pos || tag = tag_int_neg ->
          valid := !valid lor bit;
          let f = if tag = tag_float then read_float rd else float_of_int (read_int rd tag) in
          if slot = 1 then time := f else seconds := f
        | Integer when tag = tag_int_pos || tag = tag_int_neg -> (
          valid := !valid lor bit;
          let v = read_int rd tag in
          match slot with
          | 2 -> poller := v
          | 3 -> voter := v
          | 4 -> claimed := v
          | 5 -> peer := v
          | 6 -> from_ := v
          | 7 -> au := v
          | 8 -> poll_id := v
          | 9 -> inner_candidates := v
          | _ -> votes := v)
        | _ -> skip rd tag
      end;
      incr i
    done;
    View.make ~valid:!valid ~kind:!kind ~time:!time ~poller:!poller ~voter:!voter
      ~claimed:!claimed ~peer:!peer ~from_:!from_ ~au:!au ~poll_id:!poll_id
      ~inner_candidates:!inner_candidates ~votes:!votes ~seconds:!seconds ~role:!role
      ~phase:!phase ~outcome:!outcome
  end

(* -- Framing ------------------------------------------------------------- *)

let take_byte rd =
  let b = Char.code (Bytes.unsafe_get rd.buf rd.lo) in
  rd.lo <- rd.lo + 1;
  b

(* A clean end of file before a record's first byte ends the trace; an
   end inside the length varint is truncation. *)
let rec length_tail rd shift acc =
  if not (fill rd 1) then corrupt "truncated record length varint";
  let b = take_byte rd in
  if shift > 62 then corrupt "record length varint overflow";
  let acc = acc lor ((b land 0x7f) lsl shift) in
  if b land 0x80 = 0 then acc else length_tail rd (shift + 7) acc

(* Frames record [index] as the span [base, limit); [false] at a clean
   end of file. *)
let next_record rd index =
  fill rd 1
  && begin
    let b = take_byte rd in
    let len = if b land 0x80 = 0 then b else length_tail rd 7 (b land 0x7f) in
    if len < 0 then corrupt "record %d: negative length" index;
    if not (fill rd len) then corrupt "record %d: truncated mid-record" index;
    rd.base <- rd.lo;
    rd.pos <- rd.lo;
    rd.limit <- rd.lo + len;
    true
  end

let iter_with decode path ~f =
  In_channel.with_open_bin path (fun ic ->
      let rd =
        {
          ic;
          buf = Bytes.create refill_bytes;
          lo = 0;
          hi = 0;
          base = 0;
          pos = 0;
          limit = 0;
          tbl = table_create ();
        }
      in
      let n = String.length magic in
      let rec records index =
        if next_record rd index then begin
          let value = decode rd in
          if rd.pos <> rd.limit then
            corrupt "record %d: %d trailing bytes" index (rd.limit - rd.pos);
          rd.lo <- rd.limit;
          f ~index value;
          records (index + 1)
        end
      in
      match
        if not (fill rd n) then corrupt "truncated header (not a binary trace)";
        if not (String.equal (Bytes.sub_string rd.buf 0 n) magic) then
          corrupt "bad magic (not a binary trace)";
        rd.lo <- n;
        records 1
      with
      | () -> Ok ()
      | exception Corrupt msg -> Error msg)

let iter_records path ~f = iter_with json path ~f
let iter_views path ~f = iter_with view path ~f
