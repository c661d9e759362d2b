(** Buffered byte sink for trace and metrics output.

    Observability output used to [flush] the underlying channel after
    every event, a syscall per trace record. A sink instead accumulates
    bytes in a {!Buffer.t} and hands them to the channel only when

    - the buffer reaches [buffer_bytes] (size bound), or
    - a write carries a simulation time [?now] at least
      [flush_interval] past the previous time-driven flush (time
      bound — keyed on {e simulated} time so behaviour stays
      deterministic and free of wall-clock reads), or
    - {!flush} or {!close} is called explicitly.

    Threshold flushes move bytes into the channel's own buffer (cheap);
    {!flush} and {!close} additionally flush the channel itself, so
    after either the bytes are visible to other processes. {!with_file}
    guarantees close-on-exception via [Fun.protect], which is what makes
    a crashed run keep its trace up to the last completed flush. *)

type t

(** [of_channel ?buffer_bytes ?flush_interval ?close_channel oc] wraps an
    existing channel. [close_channel] (default [false]) transfers
    ownership: {!close} then also closes [oc]. *)
val of_channel :
  ?buffer_bytes:int -> ?flush_interval:float -> ?close_channel:bool -> out_channel -> t

(** [open_file ?buffer_bytes ?flush_interval ?append path] opens [path]
    in binary mode (truncating unless [append] is [true]) and owns the
    resulting channel. *)
val open_file :
  ?buffer_bytes:int -> ?flush_interval:float -> ?append:bool -> string -> t

(** [write t ?now s] appends [s]. Raises [Invalid_argument] after
    {!close}. *)
val write : t -> ?now:float -> string -> unit

(** [write_line t ?now s] appends [s] and a newline. *)
val write_line : t -> ?now:float -> string -> unit

(** [write_buffer t ?now b] appends the contents of [b] (which is left
    untouched) without going through an intermediate string. *)
val write_buffer : t -> ?now:float -> Buffer.t -> unit

(** [write_bytes t ~now b pos len] appends [len] bytes of [b] from
    [pos]. [now] is {!write}'s [?now] without the option, for callers
    that write once per event: a NaN [now] carries no time. *)
val write_bytes : t -> now:float -> Bytes.t -> int -> int -> unit

(** Bytes accepted but not yet handed to the channel. *)
val pending : t -> int

(** Bytes handed to the channel so far (excludes {!pending}). *)
val written : t -> int

(** Force all pending bytes out, then flush the channel. *)
val flush : t -> unit

(** Flush, then release the channel if owned. Idempotent; writes after
    close raise. *)
val close : t -> unit

val closed : t -> bool

(** [with_file ?buffer_bytes ?flush_interval ?append path f] opens,
    runs [f], and closes even when [f] raises ([Fun.protect]). *)
val with_file :
  ?buffer_bytes:int ->
  ?flush_interval:float ->
  ?append:bool ->
  string ->
  (t -> 'a) ->
  'a
