(** Order-preserving compact set of interned identities.

    Semantically a duplicate-free [Ids.Identity.t list], held in one
    flat int array. Size is O(1). Membership, prepend and remove scan
    the members: O(n) in the few dozen a reference list holds, with no
    allocation. Memory follows the members; there is no index sized by
    the largest identity ever held. The
    logical order is exactly the list order the callers used to
    maintain by hand — creation order, new members prepended, removal
    order-preserving — because that order is observable: it feeds
    seeded shuffles and appears in trace events. *)

type t

(** [of_ordered_list xs] builds the set with logical order [xs]; raises
    [Invalid_argument] on duplicates. *)
val of_ordered_list : Ids.Identity.t list -> t

val size : t -> int
val mem : t -> Ids.Identity.t -> bool

(** [prepend t x] adds [x] at the logical head (idempotent). *)
val prepend : t -> Ids.Identity.t -> unit

(** [remove t x] deletes [x] if present, preserving the order of the
    remaining elements. *)
val remove : t -> Ids.Identity.t -> unit

(** [to_list t] is the members in logical order. *)
val to_list : t -> Ids.Identity.t list

(** [to_ordered_array t] is a fresh array of the members in logical
    order (safe to shuffle in place). *)
val to_ordered_array : t -> Ids.Identity.t array

(** [filtered_ordered_array t ~keep] is {!to_ordered_array} restricted
    to members satisfying [keep]. *)
val filtered_ordered_array : t -> keep:(Ids.Identity.t -> bool) -> Ids.Identity.t array
