(** Builds and drives a whole simulated deployment.

    Wires the network, the loyal peer population, the storage-damage
    process, and the initial (randomly phased) poll schedule; adversary
    modules attach to the exposed context and extra nodes before {!run}.

    Loyal peers occupy nodes [0 .. loyal_peers-1] and use their node index
    as their identity; [extra_nodes] adds adversary minion nodes after
    them. *)

type t

(** [create ?seed ?extra_nodes ?dormant cfg] validates [cfg] and builds
    the deployment. Equal seeds give bit-identical runs. [dormant] peers
    are created in addition to [cfg.loyal_peers] but stay inactive —
    ignoring all traffic and calling no polls — until {!activate}d; they
    model the churn of new loyal peers joining over time (the paper's
    Section 9). *)
val create : ?seed:int -> ?extra_nodes:int -> ?dormant:int -> Config.t -> t

val ctx : t -> Peer.ctx

(** [trace t] is the protocol event stream; subscribe before {!run}. *)
val trace : t -> Trace.t
val engine : t -> Narses.Engine.t
val topology : t -> Narses.Topology.t
val partition : t -> Narses.Partition.t

(** [faults t] is the fault injector, when [cfg.faults] asked for one.
    Its events are already bridged onto {!trace} and its churn schedule
    drives {!crash_peer} / {!restart_peer} on the loyal peers. *)
val faults : t -> Narses.Faults.t option

(** [split_rng t] derives an independent random stream (for adversary
    modules) without perturbing the population's own streams. *)
val split_rng : t -> Repro_prelude.Rng.t

(** [next_adversary_instance t] allocates the next adversary instance
    number (0, 1, …) within this deployment — effortful adversaries use
    it to carve disjoint identity blocks, so combined attacks cannot
    collide at the victims. Deliberately per-population rather than
    process-global: populations running concurrently on other domains
    must not perturb each other's numbering. *)
val next_adversary_instance : t -> int

(** [loyal_nodes t] lists the currently active loyal peers. *)
val loyal_nodes : t -> Narses.Topology.node list

(** [dormant_nodes t] lists loyal peers that have not joined yet. *)
val dormant_nodes : t -> Narses.Topology.node list

(** [activate t ~node] brings a dormant peer online now: it starts
    calling polls (random phase) and suffering storage damage, and begins
    answering protocol traffic. Idempotent. *)
val activate : t -> node:Narses.Topology.node -> unit

(** [crash_peer t ~node] takes an active loyal peer down the way churn
    does: unlike a {!partition} stoppage — which silently eats traffic
    while protocol state lives on — a crash aborts the peer's in-flight
    polls, cancels their timers, discards its voter sessions (releasing
    schedule reservations) and stops it answering traffic. Its poll
    clocks keep ticking idle so a later restart resumes the old cadence.
    No-op on an already-inactive peer. *)
val crash_peer : t -> node:Narses.Topology.node -> unit

(** [on_crash t f] runs [f node] each time {!crash_peer} takes [node]
    down, after the peer's own state is gone, so a role that keeps
    protocol state outside the peer (a compromised peer's adversary
    voter role) loses it too. Hooks run in registration order. *)
val on_crash : t -> (Narses.Topology.node -> unit) -> unit

(** [restart_peer t ~node] brings a {!crash_peer}ed node back with a
    clean slate. Peers that are dormant for other reasons stay down. *)
val restart_peer : t -> node:Narses.Topology.node -> unit

val extra_nodes : t -> Narses.Topology.node list

(** [seed_debt_identities t ids] makes every loyal peer already know each
    identity in [ids] with a debt grade on every AU — the paper's
    conservative initialisation for the brute-force adversary. *)
val seed_debt_identities : t -> Ids.Identity.t list -> unit

(** [default_handler t node] is the node's normal protocol dispatch;
    adversaries that compromise a loyal peer (subversion) re-register a
    handler of their own and delegate the honest-looking parts to it. *)
val default_handler :
  t -> Narses.Topology.node -> src:Narses.Topology.node -> Message.t -> unit

(** [damaged_replicas t] counts replicas currently deviating from the
    publisher content (for tests and progress reporting). *)
val damaged_replicas : t -> int

(** [run ?max_events t ~until] executes the simulation up to absolute
    time [until]; [max_events] bounds the number of fired events, raising
    {!Narses.Engine.Event_limit_exceeded} instead of hanging on a
    runaway schedule. *)
val run : ?max_events:int -> t -> until:float -> unit

(** [summary t] finalises metrics at the current simulation time. *)
val summary : t -> Metrics.summary
