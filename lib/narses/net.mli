(** Message-passing network over {!Engine}, {!Topology} and {!Partition}.

    Narses is a flow-based simulator with selectable fidelity; the paper
    picks its "simplistic network model": delivery delay is propagation
    latency plus serialisation at the bottleneck access link, with no
    congestion except the artificial kind a pipe-stoppage adversary
    causes (modelled by {!Partition} silently dropping traffic). That is
    {!Delay_only}, the default. {!Shared_bottleneck} adds first-order
    congestion — an access link's bandwidth is divided among the
    transfers concurrently touching the node — so the paper's model
    choice can be validated as an ablation.

    Messages are delivered by invoking the destination node's registered
    handler inside the event loop. *)

type model =
  | Delay_only  (** the paper's choice: latency + serialisation *)
  | Shared_bottleneck
      (** bandwidth divided by the number of concurrent transfers at the
          busier endpoint, estimated at send time (first-order processor
          sharing; in-flight transfers are not re-planned) *)

type 'msg t

(** [create ?model ?faults ~engine ~topology ~partition ()] wires an
    empty network; every node starts without a handler, and sends to
    handler-less nodes are counted as dropped. With [faults], every send
    passes through the {!Faults} injector: copies may be lost, delayed
    beyond the model's transfer time, or duplicated, and messages
    touching a crashed node are dropped at send and at delivery time.
    Without it the network is perfectly reliable, as before. *)
val create :
  ?model:model ->
  ?faults:Faults.t ->
  engine:Engine.t ->
  topology:Topology.t ->
  partition:Partition.t ->
  unit ->
  'msg t

(** [register t node handler] installs the receive callback for [node];
    replaces any previous handler. The callback receives the sender and the
    message. *)
val register : 'msg t -> Topology.node -> (src:Topology.node -> 'msg -> unit) -> unit

(** [set_tamper t f] installs the message mutator applied when the fault
    layer decides a copy is corrupted: [f msg ~salt] must be a
    deterministic function of its arguments. The network layer is
    generic in ['msg], so the concrete mutator is supplied by the
    protocol layer ([Lockss.Message.mutate]). Without a tamper hook,
    corruption decisions are never drawn. *)
val set_tamper : 'msg t -> ('msg -> salt:int64 -> 'msg) -> unit

(** [set_stray t f] installs the stray-forger hook, invoked when the
    fault layer decides to inject an unsolicited message. The hook is
    expected to forge an in-protocol message and send it through
    {!send} (so strays appear in {!sent_count} and conservation holds). *)
val set_stray : 'msg t -> (salt:int64 -> unit) -> unit

(** [send t ~src ~dst ~bytes msg] schedules delivery of [msg] after the
    topology-determined transfer time, unless either endpoint is stopped
    or crashed (checked both at send and at delivery time, so a node
    stopped mid-flight loses the message, as a flooded pipe would).
    Under fault injection one logical send can deliver zero, one or two
    copies, each copy may be corrupted through the tamper hook, and the
    send may additionally trigger a replay/stale re-injection from the
    ring of recent deliveries or a stray forgery; {!dropped_count}
    counts each lost copy once. *)
val send : 'msg t -> src:Topology.node -> dst:Topology.node -> bytes:int -> 'msg -> unit

(** Counters for tests and reporting. *)
val sent_count : 'msg t -> int

val delivered_count : 'msg t -> int

(** [dropped_count t] is the total copies lost for any reason —
    partition blockage, injected loss, crashed endpoints, or a missing
    handler. *)
val dropped_count : 'msg t -> int

(** [injected_count t] counts replay/stale copies re-injected from the
    delivery ring; these are extra deliveries that are not logical
    sends, so conservation reads
    [sent + duplicated + injected = delivered + dropped + in_flight]. *)
val injected_count : 'msg t -> int

(** [bytes_delivered t] is the cumulative payload volume delivered. *)
val bytes_delivered : 'msg t -> int

(** [active_transfers t node] counts transfers currently touching the
    node's access link (always 0 under {!Delay_only}). *)
val active_transfers : 'msg t -> Topology.node -> int
