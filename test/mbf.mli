(** A working memory-bound function, after Dwork, Goldberg and Naor.

    The simulator charges MBF costs through {!Effort.Cost_model} and
    carries them as {!Effort.Proof} tokens; this test-support module is
    the concrete mechanism those tokens stand for, demonstrating that the protocol's effort-balancing
    design is implementable: pricing via {e memory} cycles (walks through
    a table too large for cache), cheap-but-not-free spot-check
    verification, and a digest byproduct that only falls out of doing the
    walks — the paper's 160-bit evaluation-receipt trick.

    To prove effort, the prover performs [paths] pseudo-random walks of
    [path_length] steps through a shared incompressible table, each walk
    seeded by the nonce and the path index, and publishes each walk's end
    digest. The verifier re-walks a random sample of the paths: any
    mismatch exposes a forgery, and sampling [paths/k] of them costs a
    [k]-th of the prover's memory work. The {e byproduct} mixes all end
    digests, so a party that truly verified (or generated) the walks can
    reproduce it. *)

type table

(** [make_table ~seed ~size_log2] builds a table of [2^size_log2] 64-bit
    entries ([size_log2] in [[8, 28]]). Both sides must derive it from
    the same seed. *)
val make_table : seed:int -> size_log2:int -> table

type proof

(** [generate table ~nonce ~paths ~path_length] performs the walks.
    Work is [paths × path_length] dependent memory accesses. *)
val generate : table -> nonce:int64 -> paths:int -> path_length:int -> proof

val paths : proof -> int

(** [byproduct p] is the unforgeable digest of all walks. *)
val byproduct : proof -> int64

(** [verify table ~nonce ~sample p] re-walks [sample] randomly chosen
    paths (clamped to [paths p]) and checks their end digests; returns
    [false] on any mismatch. Cost is [sample / paths p] of generation. *)
val verify : table -> nonce:int64 -> sample:int -> proof -> bool

(** [forge ~paths] fabricates a proof without doing the walks; {!verify}
    rejects it with probability [1 - 2^{-64}] per sampled path. *)
val forge : paths:int -> proof
