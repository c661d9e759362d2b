module Duration = Repro_prelude.Duration

type scale = {
  peers : int;
  aus : int;
  quorum : int;
  max_disagree : int;
  outer_circle : int;
  reference_target : int;
  years : float;
  runs : int;
  seed : int;
}

let bench =
  {
    peers = 25;
    aus = 4;
    quorum = 5;
    max_disagree = 1;
    outer_circle = 5;
    reference_target = 12;
    years = 2.;
    runs = 2;
    seed = 1;
  }

let paper =
  {
    peers = 100;
    aus = 50;
    quorum = 10;
    max_disagree = 3;
    outer_circle = 10;
    reference_target = 30;
    years = 2.;
    runs = 3;
    seed = 1;
  }

let config ?(base = Lockss.Config.default) scale =
  {
    base with
    Lockss.Config.loyal_peers = scale.peers;
    aus = scale.aus;
    quorum = scale.quorum;
    max_disagree = scale.max_disagree;
    outer_circle_size = scale.outer_circle;
    reference_list_target = scale.reference_target;
  }

type attack =
  | No_attack
  | Pipe_stoppage of { coverage : float; duration : float; recuperation : float }
  | Admission_flood of {
      coverage : float;
      duration : float;
      recuperation : float;
      rate : float;
    }
  | Brute_force of {
      strategy : Adversary.Brute_force.strategy;
      rate : float;
      identities : int;
    }
  | Vote_flood of { rate : float }
  | Subversion of { fraction : float; strategy : Adversary.Subversion.strategy }
  | Reciprocity of { fraction : float; rate : float }
  | Combined of attack list

let minion_count = 5

let rec extra_nodes_for = function
  | No_attack | Pipe_stoppage _ | Subversion _ | Reciprocity _ -> 0
  | Admission_flood _ | Brute_force _ | Vote_flood _ -> minion_count
  | Combined attacks -> List.fold_left (fun acc a -> acc + extra_nodes_for a) 0 attacks

(* [attach ~report population minions attack] wires the attack, consuming
   minion nodes from the front of [minions]; returns the unconsumed rest.
   An adversary that keeps counters hands [report] a read of them. *)
let rec attach ~report population minions attack =
  let take n =
    let rec split acc n rest =
      if n = 0 then (List.rev acc, rest)
      else begin
        match rest with
        | [] -> invalid_arg "Scenario.attach: not enough minion nodes"
        | x :: tl -> split (x :: acc) (n - 1) tl
      end
    in
    split [] n minions
  in
  match attack with
  | No_attack -> minions
  | Pipe_stoppage { coverage; duration; recuperation } ->
    ignore
      (Adversary.Pipe_stoppage.attach population ~coverage ~attack_duration:duration
         ~recuperation);
    minions
  | Admission_flood { coverage; duration; recuperation; rate } ->
    let mine, rest = take minion_count in
    ignore
      (Adversary.Admission_flood.attach population ~minions:mine ~coverage
         ~attack_duration:duration ~recuperation ~invitations_per_victim_au_per_day:rate);
    rest
  | Brute_force { strategy; rate; identities } ->
    let mine, rest = take minion_count in
    ignore
      (Adversary.Brute_force.attach population ~minions:mine ~strategy ~identities
         ~attempts_per_victim_au_per_day:rate);
    rest
  | Vote_flood { rate } ->
    let mine, rest = take minion_count in
    ignore
      (Adversary.Vote_flood.attach population ~minions:mine
         ~votes_per_victim_au_per_day:rate);
    rest
  | Subversion { fraction; strategy } ->
    let a = Adversary.Subversion.attach population ~fraction ~strategy in
    report (fun () ->
        Adversary.Subversion.
          [
            ("corrupt_votes", corrupt_votes a);
            ("corrupt_repairs", corrupt_repairs a);
            ("corrupted_replicas", corrupted_replicas a);
          ]);
    minions
  | Reciprocity { fraction; rate } ->
    let a =
      Adversary.Reciprocity.attach population ~fraction
        ~attempts_per_victim_au_per_day:rate
    in
    report (fun () ->
        Adversary.Reciprocity.[ ("defections", defections a); ("honest_votes", honest_votes a) ]);
    minions
  | Combined attacks -> List.fold_left (attach ~report population) minions attacks

(* -- Probes --------------------------------------------------------------- *)

type probes = {
  report : string option;
  trace_level : Lockss.Trace.severity;
  sample_interval : float;
  audit : bool;
}

let default_probes =
  {
    report = None;
    trace_level = Lockss.Trace.Info;
    sample_interval = Duration.of_days 7.;
    audit = false;
  }

(* [mkdir_p dir] creates [dir] and its missing parents. One that already
   exists is fine: parallel runs race to create a shared parent. *)
let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Sys.mkdir dir 0o755 with Sys_error _ when Sys.is_directory dir -> ()
  end

(* Trace sinks drain to the OS on a size bound (the sink's buffer) and,
   as a backstop for long quiet stretches, once per simulated month. *)
let trace_flush_interval = Duration.of_days 30.

(* [close_all fs] runs every cleanup even when one raises, then re-raises
   the first exception, so one failing output never leaks the others. *)
let close_all fs =
  let first =
    List.fold_left
      (fun first f ->
        match f () with
        | () -> first
        | exception exn -> if Option.is_none first then Some exn else first)
      None fs
  in
  Option.iter raise first

let write_json_line path json =
  Out_channel.with_open_text path (fun oc ->
      output_string oc (Obs.Json.to_string json);
      output_char oc '\n')

(* Subscribe the trace sink, the metrics sampler and, at Debug, the
   live span analyzer to a freshly built population, writing into the
   run's report directory [dir]; returns a cleanup closing whatever was
   opened, newest first. If opening one output raises, the outputs
   already opened are closed before the exception escapes. *)
let subscribe_observers ~probes ~dir ~seed population =
  let cleanups = ref [] in
  let add f = cleanups := f :: !cleanups in
  let file name = Filename.concat dir name in
  try
    let sink =
      Obs.Sink.open_file ~flush_interval:trace_flush_interval (file "trace.ntrace")
    in
    add (fun () -> Obs.Sink.close sink);
    (* [interest] mirrors the sink's severity filter back onto the bus,
       so below-threshold events are never even constructed when this is
       the only subscriber. *)
    Lockss.Trace.subscribe ~interest:probes.trace_level
      (Lockss.Population.trace population)
      (Lockss.Trace.binary_sink ~min_severity:probes.trace_level (Obs.Btrace.writer sink));
    let sink = Obs.Sink.open_file (file "metrics.csv") in
    add (fun () -> Obs.Sink.close sink);
    let series = Obs.Series.create ~columns:Lockss.Sampler.columns sink in
    let ctx = Lockss.Population.ctx population in
    let sampler =
      Lockss.Sampler.attach
        ~engine:(Lockss.Population.engine population)
        ~metrics:ctx.Lockss.Peer.metrics ~interval:probes.sample_interval
        (Lockss.Sampler.series_writer ~seed series)
    in
    add (fun () ->
        Lockss.Sampler.stop sampler;
        Obs.Series.close series);
    (* Spans and the ledger are rebuilt from the Debug stream, so they
       come only with a Debug trace — equal to what [inspect] rebuilds
       from it. Live analysis takes the typed fast path
       ({!Lockss.Trace.to_view}): no JSON is built. *)
    if probes.trace_level = Lockss.Trace.Debug then begin
      let analyzer = Obs.Analyze.create () in
      Lockss.Trace.subscribe
        (Lockss.Population.trace population)
        (fun ~time event ->
          Obs.Analyze.feed_view analyzer (Lockss.Trace.to_view ~time event));
      add (fun () ->
          Out_channel.with_open_text (file "spans.jsonl") (fun oc ->
              List.iter
                (fun span ->
                  output_string oc (Obs.Json.to_string (Obs.Span.span_to_json span));
                  output_char oc '\n')
                (Obs.Span.spans (Obs.Analyze.span_builder analyzer))));
      add (fun () ->
          let summary = Lockss.Population.summary population in
          let ledger = Obs.Analyze.ledger analyzer in
          let reconciliation =
            Obs.Ledger.reconcile ledger
              ~loyal_effort:summary.Lockss.Metrics.loyal_effort
              ~adversary_effort:summary.Lockss.Metrics.adversary_effort
              ~polls_succeeded:summary.Lockss.Metrics.polls_succeeded
              ~polls_inquorate:summary.Lockss.Metrics.polls_inquorate
              ~polls_alarmed:summary.Lockss.Metrics.polls_alarmed
              ~votes_supplied:summary.Lockss.Metrics.votes_supplied
              ~invitations_considered:summary.Lockss.Metrics.invitations_considered
          in
          write_json_line (file "ledger.json")
            (Obs.Json.Assoc
               [
                 ("ledger", Obs.Ledger.to_json ledger);
                 ("reconciliation", Obs.Ledger.reconciliation_to_json reconciliation);
               ]))
    end;
    fun () -> close_all !cleanups
  with exn ->
    let bt = Printexc.get_raw_backtrace () in
    (try close_all !cleanups with _ -> ());
    Printexc.raise_with_backtrace exn bt

(* [assemble ~cfg ~seed attack] is {!build} plus a read of the attached
   adversaries' counters, in attach order. *)
let assemble ~cfg ~seed attack =
  let population =
    Lockss.Population.create ~seed ~extra_nodes:(extra_nodes_for attack) cfg
  in
  let reads = ref [] in
  ignore
    (attach
       ~report:(fun read -> reads := read :: !reads)
       population (Lockss.Population.extra_nodes population) attack);
  (population, fun () -> List.concat_map (fun read -> read ()) (List.rev !reads))

let build ~cfg ~seed attack = fst (assemble ~cfg ~seed attack)

let make_auditor ~cfg () =
  Check.Auditor.create ~params:(Check.Invariant.params_of_config cfg) ()

(* -- Runs ---------------------------------------------------------------- *)

type run = {
  seed : int;
  summary : Lockss.Metrics.summary;
  violations : Check.Invariant.violation list;
  engine : Narses.Engine.stats;
  adversary : (string * int) list;
  setup_cpu_s : float;
  run_cpu_s : float;
}

(* The run's profile: setup/run CPU seconds as phases, a GC sample of
   the domain's runtime counters, and the engine statistics. *)
let write_profile path (r : run) =
  let prof = Obs.Profiler.create () in
  Obs.Profiler.add_phase_time prof "setup" r.setup_cpu_s;
  Obs.Profiler.add_phase_time prof "run" r.run_cpu_s;
  Obs.Profiler.sample_gc prof;
  let e = r.engine in
  write_json_line path
    (Obs.Json.Assoc
       [
         ("profile", Obs.Profiler.snapshot_json prof);
         ( "engine",
           Obs.Json.Assoc
             [
               ("executed", Obs.Json.Int e.Narses.Engine.executed);
               ("scheduled", Obs.Json.Int e.Narses.Engine.scheduled);
               ("cancelled", Obs.Json.Int e.Narses.Engine.cancelled);
               ("pending", Obs.Json.Int e.Narses.Engine.pending);
               ("max_heap_depth", Obs.Json.Int e.Narses.Engine.max_heap_depth);
             ] );
       ])

(* CPU time is the running thread's, so a job's figures stay its own
   when other jobs run on the Runner's other domains. *)
let run ?(probes = default_probes) ~cfg ~seed ~years attack =
  let cpu = Repro_prelude.Monotonic.thread_cpu_s in
  let t0 = cpu () in
  let population, adversary = assemble ~cfg ~seed attack in
  (* The auditor subscribes before the outputs: it re-emits violations
     onto the bus mid-delivery, so subscription order fixes where they
     land in the trace. *)
  let auditor = if probes.audit then Some (make_auditor ~cfg ()) else None in
  Option.iter
    (fun a -> Check.Auditor.attach a (Lockss.Population.trace population))
    auditor;
  let dir =
    Option.map (fun root -> Filename.concat root (Printf.sprintf "seed%d" seed)) probes.report
  in
  let cleanup =
    match dir with
    | None -> Fun.id
    | Some dir ->
      mkdir_p dir;
      subscribe_observers ~probes ~dir ~seed population
  in
  let result =
    Fun.protect ~finally:cleanup (fun () ->
        let t1 = cpu () in
        Lockss.Population.run population ~until:(Duration.of_years years);
        let t2 = cpu () in
        let summary = Lockss.Population.summary population in
        let violations =
          match auditor with
          | None -> []
          | Some a ->
            Check.Auditor.finish ~metrics:summary a;
            Check.Auditor.violations a
        in
        {
          seed;
          summary;
          violations;
          engine = Narses.Engine.stats (Lockss.Population.engine population);
          adversary = adversary ();
          setup_cpu_s = t1 -. t0;
          run_cpu_s = t2 -. t1;
        })
  in
  Option.iter (fun dir -> write_profile (Filename.concat dir "profile.json") result) dir;
  result

let mean_summaries (summaries : Lockss.Metrics.summary list) =
  match summaries with
  | [] -> invalid_arg "Scenario.mean_summaries: no runs"
  | [ s ] -> s
  | first :: _ ->
    let n = float_of_int (List.length summaries) in
    let favg f = List.fold_left (fun acc s -> acc +. f s) 0. summaries /. n in
    let iavg f =
      int_of_float
        (Float.round (List.fold_left (fun acc s -> acc +. float_of_int (f s)) 0. summaries /. n))
    in
    let isum f = List.fold_left (fun acc s -> acc + f s) 0 summaries in
    (* A run with zero reads has no empirical failure rate (NaN), and one
       NaN would poison the cross-run mean: average over the runs that
       read at all, NaN only when none did. *)
    let read_failure =
      let observed =
        List.filter_map
          (fun s ->
            if s.Lockss.Metrics.reads > 0 then
              Some s.Lockss.Metrics.empirical_read_failure
            else None)
          summaries
      in
      match observed with
      | [] -> nan
      | _ ->
        List.fold_left ( +. ) 0. observed /. float_of_int (List.length observed)
    in
    {
      first with
      Lockss.Metrics.horizon = favg (fun s -> s.Lockss.Metrics.horizon);
      access_failure_probability =
        favg (fun s -> s.Lockss.Metrics.access_failure_probability);
      polls_succeeded = iavg (fun s -> s.Lockss.Metrics.polls_succeeded);
      polls_inquorate = iavg (fun s -> s.Lockss.Metrics.polls_inquorate);
      polls_alarmed = iavg (fun s -> s.Lockss.Metrics.polls_alarmed);
      mean_success_gap = favg (fun s -> s.Lockss.Metrics.mean_success_gap);
      loyal_effort = favg (fun s -> s.Lockss.Metrics.loyal_effort);
      adversary_effort = favg (fun s -> s.Lockss.Metrics.adversary_effort);
      effort_per_successful_poll =
        favg (fun s -> s.Lockss.Metrics.effort_per_successful_poll);
      invitations_considered = iavg (fun s -> s.Lockss.Metrics.invitations_considered);
      invitations_dropped = iavg (fun s -> s.Lockss.Metrics.invitations_dropped);
      repairs = iavg (fun s -> s.Lockss.Metrics.repairs);
      (* Anomaly counters are summed, not averaged: a single underflow in
         any run must stay visible in the aggregate. *)
      repair_underflows = isum (fun s -> s.Lockss.Metrics.repair_underflows);
      votes_supplied = iavg (fun s -> s.Lockss.Metrics.votes_supplied);
      reads = iavg (fun s -> s.Lockss.Metrics.reads);
      reads_failed = iavg (fun s -> s.Lockss.Metrics.reads_failed);
      empirical_read_failure = read_failure;
    }

type sweep = {
  runs : run list;
  mean : Lockss.Metrics.summary;
  afp_min : float;
  afp_max : float;
}

(* One run per seed, fanned out over the Runner; one auditor per run
   when auditing, so an audited sweep is as deterministic as the runs. *)
let sweep ?probes ~cfg (scale : scale) attack =
  let runs =
    Runner.map
      (fun i -> run ?probes ~cfg ~seed:(scale.seed + i) ~years:scale.years attack)
      (List.init scale.runs Fun.id)
  in
  let afps = List.map (fun r -> r.summary.Lockss.Metrics.access_failure_probability) runs in
  {
    runs;
    mean = mean_summaries (List.map (fun r -> r.summary) runs);
    afp_min = List.fold_left Float.min infinity afps;
    afp_max = List.fold_left Float.max neg_infinity afps;
  }

type comparison = {
  attack : Lockss.Metrics.summary;
  baseline : Lockss.Metrics.summary;
  access_failure : float;
  delay_ratio : float;
  friction : float;
  cost_ratio : float;
}

let ratios ~baseline ~attack =
  let safe_div a b = if b > 0. && Float.is_finite a then a /. b else infinity in
  {
    attack;
    baseline;
    access_failure = attack.Lockss.Metrics.access_failure_probability;
    delay_ratio =
      safe_div attack.Lockss.Metrics.mean_success_gap
        baseline.Lockss.Metrics.mean_success_gap;
    friction =
      safe_div attack.Lockss.Metrics.effort_per_successful_poll
        baseline.Lockss.Metrics.effort_per_successful_poll;
    cost_ratio =
      safe_div attack.Lockss.Metrics.adversary_effort
        attack.Lockss.Metrics.loyal_effort;
  }

type paired = { no_attack : sweep; under_attack : sweep; ratios : comparison }

let compare ?(probes = default_probes) ~cfg scale attack =
  (* Both sides reuse the same seeds, so the baseline reports into its
     own subdirectory. The two sweeps are independent; run them on
     separate domains when available. *)
  let baseline =
    { probes with report = Option.map (fun d -> Filename.concat d "baseline") probes.report }
  in
  let no_attack, under_attack =
    Runner.both
      (fun () -> sweep ~probes:baseline ~cfg scale No_attack)
      (fun () -> sweep ~probes ~cfg scale attack)
  in
  { no_attack; under_attack; ratios = ratios ~baseline:no_attack.mean ~attack:under_attack.mean }
