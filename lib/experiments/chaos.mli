(** Chaos harness: run scenarios under injected faults and assert the
    protocol's liveness and accounting invariants.

    The paper evaluates the protocol on a perfectly reliable substrate;
    this harness drives the same {!Scenario} configurations through
    {!Narses.Faults} mixes (message loss, latency jitter, duplication,
    node churn) and checks what the paper takes for granted:

    - {e liveness}: polls keep succeeding despite the fault mix;
    - {e no stuck poll}: no in-flight poll older than two inter-poll
      intervals at the end of the run;
    - {e no leaked timeouts}: the engine's pending-event population does
      not grow between the run's midpoint and its end;
    - {e message conservation}: sent + duplicated + injected = delivered
      + dropped + in-flight, with in-flight non-negative and bounded by
      the pending queue;
    - {e churn accounting}: crashes = restarts + nodes still down;
    - {e leak audit}: the engine's live timers reconcile exactly with
      the protocol state that owns them ({!Check.Leak});
    - {e bounded degradation}: access-failure probability stays within an
      order of magnitude of the fault-free paired run (same seed, same
      attack), per the paper's paired-run methodology.

    Runs are driven with an event budget so a livelock raises
    {!Narses.Engine.Event_limit_exceeded} instead of hanging. *)

type mix = {
  loss : float;  (** per-copy drop probability *)
  jitter : float;  (** max extra delivery latency, seconds *)
  duplication : float;  (** per-message duplication probability *)
  churn_per_day : float;  (** crashes per node per day *)
  downtime : float;  (** seconds a crashed node stays down *)
  corruption : float;  (** per-copy field-corruption probability *)
  replay : float;  (** per-send probability of replaying a past delivery *)
  stale : float;  (** per-send probability of a long-delayed replay *)
  stray : float;  (** per-send probability of forging an unsolicited message *)
  fault_seed : int;  (** seed of the dedicated fault stream *)
}

(** [default_mix] is the acceptance mix: 5 % loss, 0.5 s jitter, 2 %
    duplication, 0.01 crashes/node/day with 3-day downtime, plus the
    Byzantine content set (2 % corruption, 1 % replay, 0.5 % stale,
    1 % stray), seed 7. *)
val default_mix : mix

(** [faults_config mix] is the corresponding injector configuration. *)
val faults_config : mix -> Narses.Faults.config

(** [mix_to_json mix] is one JSON member per field, named as the field
    (what a [--manifest-out] manifest records of the mix). *)
val mix_to_json : mix -> Obs.Json.t

(** The event budget every chaos and soak run is driven with: far above
    any legitimate run at these scales, so only a genuine livelock can
    exhaust it. *)
val event_budget : int

type check = { name : string; ok : bool; detail : string }

type report = {
  checks : check list;
  faulty : Lockss.Metrics.summary;  (** the run under the fault mix *)
  fault_free : Lockss.Metrics.summary;  (** paired run, faults off *)
  comparison : Scenario.comparison;  (** faulty vs fault-free ratios *)
  injected_drops : int;
  injected_dups : int;
  injected_delays : int;
  injected_corruptions : int;
  injected_replays : int;
  injected_stales : int;
  injected_strays : int;
  crashes : int;
  restarts : int;
}

val all_green : report -> bool

(** [run ?scale ?attack mix] executes the scenario under the fault mix,
    then the fault-free paired run, and evaluates every invariant.
    Defaults: {!Scenario.bench}, no attack. *)
val run : ?scale:Scenario.scale -> ?attack:Scenario.attack -> mix -> report

val pp_report : Format.formatter -> report -> unit

(** [ablation ?scale mix] crosses faults with a pipe-stoppage attack:
    fault-free / faults only / stoppage only / stoppage + faults, one
    table row each (access failure and poll outcomes). *)
val ablation : ?scale:Scenario.scale -> mix -> Repro_prelude.Table.t
