(** Real-content archival units: the concrete vote-hashing pipeline.

    The simulator's replicas are symbolic (version numbers compared for
    equality) because simulating half-gigabyte AUs byte-for-byte would be
    pointless; this module exists to show the symbolic model is faithful.
    It holds a small AU's actual bytes and computes real votes exactly as
    Section 4.1 specifies: "the voter uses a cryptographic hash function
    (e.g., SHA-1) to hash the nonce supplied by the poller, followed by
    its replica of the AU, block by block. The vote consists of the
    running hashes produced at each block boundary."

    Tests verify that two replicas' votes agree on a block precisely when
    the block contents (and all earlier blocks) match — the relation the
    symbolic model encodes as version equality — and that the first
    divergence identifies the earliest damaged block, which is what the
    repair loop needs. *)

type t

(** [synthesize ~rng ~blocks ~block_bytes] builds a pseudo-random AU;
    equal generator streams yield byte-identical content (the "publisher
    copy"). *)
val synthesize : rng:Repro_prelude.Rng.t -> blocks:int -> block_bytes:int -> t

val block_count : t -> int

(** [block t i] is the raw content of block [i]. *)
val block : t -> int -> string

(** [copy t] is an independent replica of the same content. *)
val copy : t -> t

(** [corrupt t ~rng ~block] flips bytes in [block] (guaranteed to change
    it). *)
val corrupt : t -> rng:Repro_prelude.Rng.t -> block:int -> unit

(** [write t ~block ~content] installs a repair payload. *)
val write : t -> block:int -> content:string -> unit

(** [vote t ~nonce] is the vote for this replica under [nonce]: the
    running SHA-1 digest at each block boundary. *)
val vote : t -> nonce:string -> Sha1.digest list

(** [first_divergence t ~nonce ~vote] compares the vote against this
    replica block by block, returning the earliest disagreeing block, or
    [None] if the vote agrees everywhere. *)
val first_divergence : t -> nonce:string -> vote:Sha1.digest list -> int option
