(** Which peers hold which AUs, sized to the replicas that exist.

    The paper's setup (full coverage: every peer holds every AU) costs
    O(1) memory; partial coverage stores one ascending holder array per
    AU, so memory is proportional to the number of replicas rather than
    [peers x aus] — the dense boolean matrix this replaces made 10k-peer
    populations quadratic before the first event fired. *)

type t

(** [full ~peers ~aus]: every peer in [0, peers) holds every AU in
    [0, aus). *)
val full : peers:int -> aus:int -> t

(** [sparse ~peers per_au]: [per_au.(au)] is the strictly ascending
    array of holders of [au]. Raises [Invalid_argument] if a holder set
    is not strictly ascending. *)
val sparse : peers:int -> int array array -> t

(** Total identity space covered (including dormant peers). *)
val peers : t -> int

(** [holds t ~peer ~au] — O(1) for full coverage, O(log holders)
    otherwise. *)
val holds : t -> peer:int -> au:int -> bool

(** Total replica count, the denominator for access-failure metrics. *)
val replicas : t -> int

(** [fill_holders t ~au ~limit ~excluding into] writes the ascending
    holders of [au] strictly below [limit] and different from
    [excluding] (pass a negative [excluding] to exclude nobody) into the
    prefix of [into], and returns how many it wrote; cells after them are
    left alone. Builds per-peer bootstrap candidate sets, restricted to
    initially-active peers, in one buffer reused across peers. Raises
    [Invalid_argument] if [into] is too short. *)
val fill_holders : t -> au:int -> limit:int -> excluding:int -> int array -> int
