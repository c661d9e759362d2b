(** Experiment scaffolding: scales, attacks, paired runs and ratio
    metrics.

    The paper's evaluation compares each attack run against a no-attack
    baseline with identical parameters and seeds: delay ratio and the
    coefficient of friction are "the same measurement without the attack"
    ratios, and the cost ratio compares attacker and defender effort
    within the attack run. {!compare} packages that methodology.

    Two standard scales are provided. {!paper} is the configuration of
    Section 6.3 (100 peers, 3-month interval, quorum 10, 2 simulated
    years, 3 runs per data point). {!bench} is a proportionally reduced
    deployment (25 peers, quorum 5) whose full figure suite runs in
    minutes; attack phenomenology is scale-stable, which the tests
    check. *)

type scale = {
  peers : int;
  aus : int;
  quorum : int;
  max_disagree : int;
  outer_circle : int;
  reference_target : int;
  years : float;  (** simulated horizon *)
  runs : int;  (** runs averaged per data point *)
  seed : int;
}

val bench : scale
val paper : scale

(** [config ?base scale] specialises a configuration (default
    {!Lockss.Config.default}) to the scale. *)
val config : ?base:Lockss.Config.t -> scale -> Lockss.Config.t

(** The adversaries of the evaluation. Effortful ones (admission
    flood, brute force, vote flood) run on five minion nodes added to
    the population; pipe stoppage acts on the network; subversion and
    reciprocity compromise a fraction of the loyal peers instead of
    adding nodes. *)
type attack =
  | No_attack
  | Pipe_stoppage of { coverage : float; duration : float; recuperation : float }
  | Admission_flood of {
      coverage : float;
      duration : float;
      recuperation : float;
      rate : float;  (** garbage invitations per victim-AU per day *)
    }
  | Brute_force of {
      strategy : Adversary.Brute_force.strategy;
      rate : float;  (** admission attempts per victim-AU per day *)
      identities : int;
    }
  | Vote_flood of { rate : float  (** unsolicited bogus votes per victim-AU per day *) }
  | Subversion of {
      fraction : float;  (** of the loyal peers compromised, in (0,1) *)
      strategy : Adversary.Subversion.strategy;
    }
      (** the stealth content-subversion adversary of [29] whose
          resistance Section 7.4 says the redesign retains
          ({!Adversary.Subversion}) *)
  | Reciprocity of {
      fraction : float;  (** of the loyal peers compromised, in (0,1) *)
      rate : float;  (** oracle checks per victim-AU lane per day *)
    }
      (** the grade-recovery adversary Section 7.4 sketches but defers
          ({!Adversary.Reciprocity}) *)
  | Combined of attack list
      (** several adversaries at once (Section 9's combined strategies);
          each effortful sub-attack gets its own minion nodes *)

(** {2 Probes}

    What a run records besides its summary is a per-run argument,
    threaded explicitly from the caller down to each job: simulation
    runs execute on multiple domains ({!Runner}), so there is no
    process-wide setting and no shared output channel. No probe draws
    from a run's RNG or schedules an event that changes its outcome: a
    probed run's summary equals the unprobed one.

    {3 The run report}

    With [report = Some dir], every run writes a fixed set of files into
    [dir/seed<N>/], [N] being the run's seed, so a multi-run sweep
    yields one directory per seed and neither encoding is chosen by a
    file name:
    - [trace.ntrace]: protocol events at [trace_level] and above, in the
      compact binary format ({!Obs.Btrace}; [lockss_sim trace-convert]
      renders it as JSONL, [lockss_sim inspect] reads either);
    - [metrics.csv]: a metric sample every [sample_interval] (columns
      {!Lockss.Sampler.columns});
    - [profile.json]: a [profile] member (the {!Obs.Profiler} snapshot,
      with the result's setup/run CPU seconds as phases and a GC sample
      taken at the end) and an [engine] member (the result's
      {!Narses.Engine.stats});
    - at [trace_level = Debug] only, [spans.jsonl] (one
      {!Obs.Span.span_to_json} line per poll) and [ledger.json] (the
      per-peer effort ledger plus its reconciliation against the run's
      metrics). Both are rebuilt live from the Debug stream and equal
      what [inspect] rebuilds from [trace.ntrace]; at [Info] or [Warn]
      no analyzer subscribes, so the bus keeps skipping the events below
      the trace's level.

    {!compare} writes its no-attack side into [dir/baseline/seed<N>/].
    Directories are created as needed; one that already exists is fine.
    Files are opened truncating and closed (so flushed) when the run
    ends. The CLI's [run --report DIR] adds [DIR/manifest.json]. *)

type probes = {
  report : string option;  (** write the run report into this directory *)
  trace_level : Lockss.Trace.severity;  (** minimum severity in [trace.ntrace] *)
  sample_interval : float;  (** seconds of simulated time between samples *)
  audit : bool;
      (** attach a fresh auditor ({!make_auditor}) to the run's trace
          bus, so every protocol invariant is evaluated online and
          violations land in the trace as [Invariant_violated] events;
          it is finished against the run's metrics and its violations
          returned in {!run.violations} *)
}

(** [default_probes] records nothing: no report, level [Info], 7-day
    sampling interval, no audit. *)
val default_probes : probes

(** [build ~cfg ~seed attack] constructs the population with the attack
    attached but does not run it — for harnesses (like {!Chaos}) that
    need to subscribe observers or probe engine state mid-run. *)
val build : cfg:Lockss.Config.t -> seed:int -> attack -> Lockss.Population.t

(** [make_auditor ~cfg ()] is a fresh auditor parameterised by the run
    configuration ({!Check.Invariant.params_of_config}). *)
val make_auditor : cfg:Lockss.Config.t -> unit -> Check.Auditor.t

(** {2 Runs}

    Three entry points: {!run} (one seed), {!sweep} (one scale's seeds)
    and {!compare} (a sweep under attack against its no-attack
    baseline). All take the same optional [probes] (default
    {!default_probes}). *)

(** One run's result. Both CPU figures are thread CPU time of the
    domain that ran the job ({!Repro_prelude.Monotonic.thread_cpu_s}),
    so jobs running at once on other domains do not inflate them; with
    [engine.executed], [run_cpu_s] gives events per second. *)
type run = {
  seed : int;
  summary : Lockss.Metrics.summary;  (** the finalised metrics *)
  violations : Check.Invariant.violation list;
      (** what the auditor observed; [[]] unless [probes.audit] *)
  engine : Narses.Engine.stats;
  adversary : (string * int) list;
      (** the attached adversaries' end-of-run counters, in attach
          order: [corrupt_votes], [corrupt_repairs] and
          [corrupted_replicas] for {!Subversion}; [defections] and
          [honest_votes] for {!Reciprocity}; none for the others *)
  setup_cpu_s : float;
      (** CPU seconds building the population and attaching the probes *)
  run_cpu_s : float;  (** CPU seconds executing events *)
}

(** [run ?probes ~cfg ~seed ~years attack] builds a population, attaches
    the attack and the probes, runs the horizon and returns the result.
    If an output cannot be created, the outputs already opened are
    closed and the exception ([Sys_error]) escapes. *)
val run :
  ?probes:probes -> cfg:Lockss.Config.t -> seed:int -> years:float -> attack -> run

(** [mean_summaries summaries] averages metrics across runs. Counters
    average (rounded); anomaly counters ([repair_underflows]) sum so a
    single anomaly stays visible; [empirical_read_failure] averages over
    the runs that performed reads (NaN only when none did). *)
val mean_summaries : Lockss.Metrics.summary list -> Lockss.Metrics.summary

type sweep = {
  runs : run list;  (** in seed order *)
  mean : Lockss.Metrics.summary;  (** {!mean_summaries} of the runs *)
  afp_min : float;  (** lowest access-failure probability across runs *)
  afp_max : float;  (** highest, matching the min/max bars of Figure 2 *)
}

(** [sweep ?probes ~cfg scale attack] runs seeds [scale.seed] …
    [scale.seed + scale.runs - 1] in parallel over {!Runner} workers —
    byte-identical to a serial loop, whatever the worker count. *)
val sweep : ?probes:probes -> cfg:Lockss.Config.t -> scale -> attack -> sweep

type comparison = {
  attack : Lockss.Metrics.summary;
  baseline : Lockss.Metrics.summary;
  access_failure : float;  (** of the attack run *)
  delay_ratio : float;
  friction : float;
  cost_ratio : float;
}

(** [ratios ~baseline ~attack] forms the paper's three ratio metrics. *)
val ratios : baseline:Lockss.Metrics.summary -> attack:Lockss.Metrics.summary ->
  comparison

type paired = {
  no_attack : sweep;  (** the baseline side *)
  under_attack : sweep;
  ratios : comparison;  (** {!ratios} of the two sweeps' means *)
}

(** [compare ?probes ~cfg scale attack] sweeps [No_attack] and [attack]
    at the same seeds (on two domains when available). Because both
    sides reuse the same seeds, the baseline side reports into the
    [baseline] subdirectory of [probes.report]. *)
val compare : ?probes:probes -> cfg:Lockss.Config.t -> scale -> attack -> paired
