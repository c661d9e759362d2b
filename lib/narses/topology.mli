(** Network topology: per-node access links.

    Matches the paper's environment: every peer connects to the network
    through an access link whose bandwidth is drawn uniformly from
    \{1.5, 10, 100\} Mbps, and path latencies between peers are uniformly
    distributed in [1, 30] ms. We realise the latter by giving each node an
    access latency drawn from [0.5, 15] ms, so that the two-hop path
    latency between any pair lands in the paper's interval. *)

type t

(** Identifies a simulated node; dense integers from [0]. *)
type node = int

(** [create ~rng ~nodes] draws link parameters for [nodes] nodes. *)
val create : rng:Repro_prelude.Rng.t -> nodes:int -> t

val node_count : t -> int

(** [bandwidth_bps t n] is node [n]'s access-link bandwidth in bits/s. *)
val bandwidth_bps : t -> node -> float

(** [path_latency t ~src ~dst] is the one-way propagation delay. *)
val path_latency : t -> src:node -> dst:node -> float

(** [transfer_time t ~src ~dst ~bytes] is the end-to-end delivery delay of
    a [bytes]-byte message: propagation plus serialisation at the slower of
    the two access links. *)
val transfer_time : t -> src:node -> dst:node -> bytes:int -> float
