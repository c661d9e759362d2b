(** Provable effort tokens (memory-bound-function proofs).

    Effort balancing requires every protocol request to carry a proof that
    the sender expended a stated amount of computation. We model the MBF
    scheme of Dwork et al. structurally: a proof records the effort that
    was provably spent and carries a 160-bit unforgeable byproduct of its
    generation. The byproduct doubles as the evaluation receipt: a poller
    that actually evaluates a vote learns it and can echo it back; nobody
    else can guess it.

    The *time* spent generating and verifying proofs is charged separately
    through {!Cost_model} and the peers' task schedules; this module only
    provides the tokens and their validity rules. *)

type t

(** [generate ~rng ~cost] produces a proof of [cost] reference-seconds of
    effort (the caller is responsible for charging that time). [cost] must
    be non-negative. *)
val generate : rng:Repro_prelude.Rng.t -> cost:float -> t

(** [cost t] is the effort the proof demonstrates, in reference seconds. *)
val cost : t -> float

(** [byproduct t] is the unforgeable 160-bit byproduct (modelled as a pair
    of random 64-bit words fixed at generation). *)
val byproduct : t -> int64 * int64

(** [meets t ~required] holds when the proof demonstrates at least
    [required] effort. *)
val meets : t -> required:float -> bool

(** [forged ~claimed_cost] is an invalid proof claiming [claimed_cost]
    effort without any generation work: its byproduct is zeroed and it
    never satisfies {!meets} for positive requirements. Used by
    adversaries that try to cheat the effort filters. *)
val forged : claimed_cost:float -> t

(** [is_genuine t] distinguishes generated proofs from forged ones; effort
    verification filters use it (at the verification cost given by the
    cost model). *)
val is_genuine : t -> bool
