(** Compact length-prefixed binary trace format ([.ntrace]).

    A binary trace is the magic string {!magic} followed by records;
    each record is an unsigned LEB128 varint byte length followed by
    that many payload bytes. The payload is a compact encoding of the
    event's {!Json.t} value — {e not} a bespoke typed encoding — so
    decoding a binary trace yields exactly the JSON values that parsing
    the equivalent JSONL trace would, and every analyzer produces
    identical results on both encodings by construction.

    Value encoding, first byte is a tag:
    - [0] null, [1] false, [2] true
    - [3] non-negative int: varint
    - [4] negative int [n]: varint of [-(n+1)]
    - [5] float: 8 bytes, IEEE-754 little-endian
    - [6] inline string: varint length + bytes
    - [7] string definition: like inline, and also assigns the next
      intern id to the string
    - [8] string reference: varint intern id
    - [9] list: varint count + encoded items
    - [10] object: varint count + (string-encoded key, value) pairs

    The writer interns short strings (keys, kind names, phase/role
    labels, peer identifiers) the first time they appear, so steady-state
    records reference them by one- or two-byte ids. The intern table is
    an append-only sequence shared by all records of the file; readers
    rebuild it as they go, which is what makes truncation detectable:
    any record that ends mid-varint, mid-payload, or references an
    unknown intern id is an error, not a silent skip. *)

(** ["NTRC1\n"] *)
val magic : string

(** {2 Writing} *)

type writer

(** [writer sink] writes {!magic} immediately and returns a writer that
    frames every subsequent {!write} into [sink]. Closing [sink]
    finalises the file; the writer holds no state needing a footer. The
    first call freezes the atom registry (see {!atom}). *)
val writer : Sink.t -> writer

(** [write w ?now json] appends one record. [?now] is forwarded to the
    sink for time-bounded flushing ({!Sink.write_bytes}). *)
val write : writer -> ?now:float -> Json.t -> unit

(** Records written so far. *)
val count : writer -> int

(** {2 Direct record encoding}

    A hot encoder (e.g. the trace bus's binary sink) can assemble a
    record field by field instead of building a {!Json.t} first. The
    [put_*] functions append one encoded value each to the record opened
    by {!begin_record}; the caller is responsible for emitting a
    well-formed value (one root, header counts matching the values that
    follow) — {!end_record} frames whatever was assembled. Bytes are
    identical to {!write} of the equivalent [Json.t], including intern
    ids: both paths share one intern table per writer. A record is
    assembled in the writer's own byte buffer and reaches the sink in
    one call, so a steady-state record allocates nothing. *)

(** An interned-string handle. Register atoms once at
    module-initialisation time (keys, kind names, enum tokens); each
    writer resolves them through a flat array, skipping the per-field
    hashtable lookup of the generic path. *)
type atom

(** [atom s] registers [s]; registering a string again returns its
    existing atom. The first {!writer} freezes the registry, so writers
    on any domain only read it: from then on [atom] raises
    [Invalid_argument]. *)
val atom : string -> atom

(** [begin_record w] starts assembling a record in the writer's scratch
    payload. Discards any unfinished previous record. *)
val begin_record : writer -> unit

(** [end_record w ~now] length-prefixes the assembled payload and hands
    the framed record to the sink ([now], the event's simulated time,
    drives time-bounded flushing; see {!Sink.write_bytes}). *)
val end_record : writer -> now:float -> unit

val put_atom : writer -> atom -> unit
val put_bool : writer -> bool -> unit
val put_int : writer -> int -> unit
val put_float : writer -> float -> unit
val put_string : writer -> string -> unit

(** [put_list_header w n] opens a list of [n] values; the next [n]
    [put_*] calls are its elements. *)
val put_list_header : writer -> int -> unit

(** [put_assoc_header w n] opens an object of [n] fields; the next [n]
    (key, value) [put_*] pairs are its members. *)
val put_assoc_header : writer -> int -> unit

(** {2 Reading}

    Both readers stream the file through one refill buffer (64 KiB,
    grown only for a longer record), so memory does not grow with the
    trace. They share the framing and the intern table, and report
    errors identically: each validates the magic, then decodes records
    in order, calling [f] with a 1-based record index. They stop at the
    first malformed record — [Error] describes the record index and
    failure (a record that ends mid-varint or mid-payload, references an
    unknown intern id, or carries trailing bytes) — or return [Ok ()] at
    a clean end of stream. Both raise [Sys_error] if the file cannot be
    opened. *)

(** [iter_records path ~f] calls [f ~index json] with the value {!write}
    was given. *)
val iter_records : string -> f:(index:int -> Json.t -> unit) -> (unit, string) result

(** [iter_views path ~f] calls [f ~index view] with what
    [View.of_json] would make of that value, decoded straight from the
    bytes without building the {!Json.t} tree: values of projected keys
    are read in place, every other value is skipped but validated (and
    strings defined inside it still enter the intern table), so the
    index, the views and any [Error] message equal those of
    {!iter_records} followed by [View.of_json]. A key's view slot is
    resolved once per intern id, not once per record. *)
val iter_views : string -> f:(index:int -> View.t option -> unit) -> (unit, string) result
