(** Resizable-array binary min-heap: the test suite's comparator-based
    reference model for {!Repro_prelude.Tsheap} and the engine's event
    queue. Elements are ordered by a comparison supplied at creation
    time; ties are broken by insertion order nowhere here — callers that
    need stable ordering must encode a sequence number in the element. *)

type 'a t

(** [create ~cmp] is an empty heap ordered by [cmp] (smallest first). *)
val create : cmp:('a -> 'a -> int) -> 'a t

val length : 'a t -> int
val is_empty : 'a t -> bool

(** [add t x] inserts [x]. Amortised O(log n). *)
val add : 'a t -> 'a -> unit

(** [peek t] is the smallest element, or [None] when empty. *)
val peek : 'a t -> 'a option

(** [pop t] removes and returns the smallest element, or [None] when
    empty. *)
val pop : 'a t -> 'a option

(** [pop_exn t] is like {!pop} but raises [Invalid_argument] when empty. *)
val pop_exn : 'a t -> 'a

(** [clear t] removes every element. *)
val clear : 'a t -> unit

(** [to_sorted_list t] returns all elements in ascending order without
    disturbing [t]. O(n log n); intended for tests. *)
val to_sorted_list : 'a t -> 'a list
