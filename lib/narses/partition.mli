(** Link suppression state for pipe-stoppage attacks.

    A pipe-stoppage adversary "suppresses all communication between some
    proportion of the total peer population and other LOCKSS peers". This
    module tracks which nodes are currently stopped; {!Net} consults it and
    silently drops any message whose source or destination is stopped.
    Local readers can still access content on a stopped node — only the
    network is cut — which {!Net} models by only filtering messages. *)

type t

val create : nodes:int -> t

(** [stop t n] cuts node [n] off from the network. Idempotent. *)
val stop : t -> Topology.node -> unit

(** [restore t n] reconnects node [n]. Idempotent. *)
val restore : t -> Topology.node -> unit

(** [restore_all t] reconnects every node. *)
val restore_all : t -> unit

(** [blocked t ~src ~dst] holds when a message between the two nodes would
    be suppressed. *)
val blocked : t -> src:Topology.node -> dst:Topology.node -> bool

(** [stopped_count t] is the number of currently stopped nodes. *)
val stopped_count : t -> int
