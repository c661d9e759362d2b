(** Deterministic fault injection for the network substrate.

    The paper's Narses substrate delivers every message perfectly unless
    a pipe-stoppage {!Partition} silently suppresses it, so only one
    fault shape ever exercises the protocol's timeout and retry
    machinery. This module interposes a seeded fault model between
    {!Net.send} and delivery:

    - {e loss}: each message copy is dropped with a fixed probability;
    - {e jitter}: each delivered copy gains extra latency drawn uniformly
      from [\[0, jitter)];
    - {e duplication}: a delivered message spawns a second,
      independently-jittered copy;
    - {e churn}: nodes crash on a Poisson schedule and restart after a
      fixed downtime. Unlike a {!Partition} stoppage — which silently
      eats traffic while the node's protocol state lives on — a crash
      fires hooks so the owner can clear in-flight protocol state
      (sessions, poll timers) and later resume from a clean slate.

    Beyond delivery faults, a Byzantine adversary controls message
    {e content} ("Attrition Defenses", §4): this module also decides,
    on its own split stream, when to inject

    - {e corruption}: one field of a delivered copy is deterministically
      mutated (the mutator itself lives in the protocol layer — this
      module only supplies the salt);
    - {e replay}: a previously delivered message is re-sent from a
      bounded ring kept by {!Net};
    - {e stale} delivery: a replayed message arrives only after a long
      extra delay, typically after its session has closed;
    - {e stray} injection: an unsolicited in-protocol message from a
      peer that was never invited (forged by the population layer).

    All randomness comes from a dedicated stream seeded by
    [config.fault_seed], split off per concern, so identical seeds replay
    identical fault traces regardless of what the protocol layer draws
    from its own generators. Content-fault draws are guarded by their
    rates, so a configuration with all content rates zero leaves the
    link/churn streams byte-identical to pre-Byzantine builds. Every
    injected fault is reported to the registered observer (see
    {!set_observer}), which the population layer bridges onto the
    [Lockss.Trace] bus. *)

type config = {
  loss : float;  (** per-copy drop probability, in [\[0, 1\]] *)
  jitter : float;  (** max extra delivery latency, seconds, [>= 0] *)
  duplication : float;  (** per-message duplication probability, [\[0, 1\]] *)
  churn_per_day : float;  (** crash rate per node per day, [>= 0] *)
  downtime : float;  (** seconds a crashed node stays down, [> 0] *)
  corruption : float;  (** per-copy field-corruption probability, [\[0, 1\]] *)
  replay : float;  (** per-send replay-injection probability, [\[0, 1\]] *)
  stale : float;  (** per-send stale-replay probability, [\[0, 1\]] *)
  stale_delay : float;  (** extra seconds a stale copy waits, [> 0] *)
  stray : float;  (** per-send stray-injection probability, [\[0, 1\]] *)
  fault_seed : int;  (** seed of the dedicated fault randomness stream *)
}

(** [none] injects nothing: all rates zero (downtime and stale delay keep
    their defaults so [{ none with churn_per_day = r }] is well-formed). *)
val none : config

(** [is_none c] holds when [c] injects no faults at all. *)
val is_none : config -> bool

(** [validate c] raises [Invalid_argument] on out-of-range rates. *)
val validate : config -> unit

type event =
  | Dropped of { src : int; dst : int }  (** a message copy was lost *)
  | Duplicated of { src : int; dst : int }  (** an extra copy was spawned *)
  | Delayed of { src : int; dst : int; extra : float }
      (** a copy will arrive [extra] seconds later than the network model
          alone would deliver it *)
  | Crashed of { node : int }
  | Restarted of { node : int }
  | Partition_blocked of { src : int; dst : int }
      (** a send suppressed by a {!Partition} stoppage — not a fault this
          module injected, but reported here so chaos ablations can
          attribute loss correctly *)
  | Corrupted of { src : int; dst : int }
      (** one field of a delivered copy was mutated *)
  | Replayed of { src : int; dst : int; extra : float }
      (** a previously delivered message was re-injected *)
  | Stale of { src : int; dst : int; extra : float }
      (** a previously delivered message was re-injected after a long
          extra delay *)
  | Stray of { src : int; dst : int }
      (** an unsolicited in-protocol message was forged *)

type t

(** [create ~engine ~nodes config] validates [config] and builds the
    injector for a [nodes]-node network. Churn does not start until
    {!start_churn}. *)
val create : engine:Engine.t -> nodes:int -> config -> t

val config : t -> config

(** [set_observer t f] installs the (single) fault-event observer,
    called synchronously with the current simulated time. *)
val set_observer : t -> (time:float -> event -> unit) -> unit

(** [on_crash t f] / [on_restart t f] register hooks called with the node
    index when churn takes it down / brings it back. Multiple hooks run
    in registration order. *)
val on_crash : t -> (int -> unit) -> unit

val on_restart : t -> (int -> unit) -> unit

(** [start_churn t ~nodes] begins an independent Poisson crash schedule
    (rate [churn_per_day]) for each listed node. Call at most once. *)
val start_churn : t -> nodes:int list -> unit

val is_down : t -> int -> bool

(** [down_count t] is the number of nodes currently crashed. *)
val down_count : t -> int

(** [plan t ~src ~dst] decides the fate of one message about to be sent:
    the returned list holds one extra-latency value per copy to deliver —
    [[]] when the message is lost, two elements when it is duplicated.
    Counts and reports the faults it injects. *)
val plan : t -> src:int -> dst:int -> float list

(** {2 Content-fault decisions}

    Each returns [None] without touching the content stream when its
    rate is zero. The caller ({!Net}) applies the decision and then
    reports it via the matching [note_*] below, so counting happens
    exactly when the fault actually lands. *)

(** [corrupt_salt t] decides whether the copy about to be delivered is
    corrupted; [Some salt] feeds the protocol layer's deterministic
    message mutator. *)
val corrupt_salt : t -> int64 option

(** [replay_extra t] decides whether to re-inject a previously delivered
    message, with the returned extra latency. *)
val replay_extra : t -> float option

(** [stale_extra t] is {!replay_extra} with [stale_delay] added — the
    copy arrives long after the session it belonged to closed. *)
val stale_extra : t -> float option

(** [stray_salt t] decides whether to forge an unsolicited message;
    [Some salt] feeds the population layer's forger. *)
val stray_salt : t -> int64 option

(** [pick t n] is a uniform index in [\[0, n)] from the content stream,
    used to choose a replay-ring slot. Raises on [n <= 0]. *)
val pick : t -> int -> int

(** [note_down_drop t ~src ~dst] records a message lost because an
    endpoint was crashed (at send or delivery time); used by {!Net}. *)
val note_down_drop : t -> src:int -> dst:int -> unit

(** [note_partition_block t ~src ~dst] records a send suppressed by a
    partition stoppage; used by {!Net} so chaos ablations can separate
    partition loss from injected loss. *)
val note_partition_block : t -> src:int -> dst:int -> unit

val note_corrupted : t -> src:int -> dst:int -> unit
val note_replayed : t -> src:int -> dst:int -> extra:float -> unit
val note_stale : t -> src:int -> dst:int -> extra:float -> unit
val note_stray : t -> src:int -> dst:int -> unit

(** Cumulative injection counters, for conservation checks. *)
val dropped_count : t -> int

val duplicated_count : t -> int
val delayed_count : t -> int
val crash_count : t -> int
val restart_count : t -> int
val corrupted_count : t -> int
val replayed_count : t -> int
val stale_count : t -> int
val stray_count : t -> int
