(** Deterministic pseudo-random number generator.

    A small, fast, splittable PRNG (splitmix64 core) used everywhere in the
    simulator so that every experiment is reproducible from a single seed.
    Each logical component of a simulation should own its own [t], obtained
    with {!split}, so that adding randomness consumption in one component
    does not perturb the stream seen by another.

    The state is kept unboxed, so {!int}, {!bool} and {!pick} on an
    [int array] allocate nothing. {!bits64}, {!float} and the draws
    built on {!float} still box their result. *)

type t

(** [create seed] returns a generator deterministically derived from
    [seed]. Equal seeds yield equal streams. *)
val create : int -> t

(** [split t] returns a fresh generator whose stream is statistically
    independent of subsequent draws from [t]. *)
val split : t -> t

(** [copy t] duplicates the generator state; the copy and the original
    produce identical streams from this point on. *)
val copy : t -> t

(** [bits64 t] draws 64 uniformly distributed bits. *)
val bits64 : t -> int64

(** [int t bound] draws uniformly from [0, bound); [bound] must be
    positive. *)
val int : t -> int -> int

(** [float t bound] draws uniformly from [0, bound); [bound] must be
    positive. *)
val float : t -> float -> float

(** [bool t] draws a fair boolean. *)
val bool : t -> bool

(** [bernoulli t p] is [true] with probability [p] (clamped to [0,1]). *)
val bernoulli : t -> float -> bool

(** [uniform t ~lo ~hi] draws uniformly from [lo, hi); requires
    [lo < hi]. *)
val uniform : t -> lo:float -> hi:float -> float

(** [exponential t ~mean] draws from the exponential distribution with the
    given positive mean; used for Poisson event inter-arrival times. *)
val exponential : t -> mean:float -> float

(** [pick t arr] draws a uniformly random element of the non-empty array
    [arr]. *)
val pick : t -> 'a array -> 'a

(** [pick_list t xs] draws a uniformly random element of the non-empty
    list [xs]. *)
val pick_list : t -> 'a list -> 'a

(** [sample_prefix t k arr ~len] is the sampling kernel: it permutes
    the prefix [arr.(0) .. arr.(len-1)] in place by Fisher-Yates and
    returns its first [min k len] elements. The shuffle covers the whole
    prefix whatever [k] is, so sampling a length-[n] prefix consumes
    exactly [n-1] draws (none when [n <= 1]) and the draw stream depends
    only on [n]. Cells from [len] on are never read or written, and
    apart from the returned list nothing is allocated, so callers can
    sample out of one reused buffer. Raises [Invalid_argument] if [k] is
    negative or [len] lies outside [0, Array.length arr]. *)
val sample_prefix : t -> int -> int array -> len:int -> int list

(** [shuffle t arr] permutes [arr] in place, uniformly at random: the
    kernel over the whole array with [k = 0]. *)
val shuffle : t -> int array -> unit

(** [sample t k xs] draws [min k (List.length xs)] distinct elements of
    [xs], uniformly at random, in random order. *)
val sample : t -> int -> int list -> int list

(** [sample_array t k arr] is [sample] over an array: it shuffles [arr]
    in place and returns its first [min k (Array.length arr)] elements.
    Given the same elements in the same order, [sample], [sample_array]
    and [sample_prefix] on an equal prefix consume the same number of
    draws and return the same result, so callers can swap list-based
    state for arrays or reused buffers without perturbing seeded
    streams. *)
val sample_array : t -> int -> int array -> int list
