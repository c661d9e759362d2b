(** Monomorphic flat-array min-heap keyed by [(time, seq)] with an int
    payload.

    The discrete-event engine's queue in one structure-of-arrays: an
    unboxed [float array] lane for times, an [int array] lane for the
    FIFO tie-breaking sequence numbers, and an [int array] lane for the
    payload (the engine stores a slot index into its own action table).
    Orders ascending by time, then by sequence number. A sift step reads
    two flats and branches, and moves only immediates: no lane holds a
    pointer, so a sift never calls the write barrier ([caml_modify]) and
    never darkens a value while the major GC is marking.

    Compared to a comparator heap holding a record per event (the
    reference model the tests check this structure against), this
    removes the per-event record (and the boxed float inside it, since a
    mixed record boxes its float fields) and the [Some] allocation per
    peek/pop.

    Keys must not be NaN — NaN breaks the strict-weak-ordering the sift
    relies on. Callers validate (the engine rejects NaN schedule
    times). When [(time, seq)] pairs are unique, pop order is a total
    order and therefore independent of internal layout: replacing any
    other heap with this structure cannot reorder events. *)

type t

(** [create ()] is an empty heap. *)
val create : unit -> t

val length : t -> int
val is_empty : t -> bool

(** [add t ~time ~seq payload] inserts an entry. Amortised O(log n),
    allocation-free except when the backing arrays grow. *)
val add : t -> time:float -> seq:int -> int -> unit

(** [min_time t] is the smallest [(time, seq)] entry's time. Raises
    [Invalid_argument] when empty. *)
val min_time : t -> float

(** [min_seq t] is the minimum entry's sequence number. Same caveat as
    {!min_time}. *)
val min_seq : t -> int

(** [min_payload t] is the minimum entry's payload. Same caveat as
    {!min_time}. *)
val min_payload : t -> int

(** [drop_min t] removes the minimum entry. Raises [Invalid_argument]
    when empty. O(log n), allocation-free. *)
val drop_min : t -> unit

(** [pop t] is the minimum payload after removing its entry, or [None]
    when empty. Convenience for tests; the engine's hot path uses
    {!min_payload} + {!drop_min} to avoid the option. *)
val pop : t -> int option

(** [clear t] empties the heap and releases the backing arrays. *)
val clear : t -> unit
