(* lockss_sim: command-line driver for the LOCKSS attrition-defense
   simulator.

     lockss_sim run           -- one scenario, fully parameterised
     lockss_sim reproduce     -- regenerate a paper figure/table
     lockss_sim pin-baseline  -- pin golden result baselines
     lockss_sim diff-baseline -- diff fresh results against the pins
     lockss_sim ablate        -- defense ablation table
     lockss_sim chaos         -- fault injection + invariant checks
     lockss_sim soak          -- multi-seed Byzantine soak with leak audit
     lockss_sim subversion    -- retained-defense (subversion) experiment
     lockss_sim reciprocity   -- grade-recovery adversary experiment
     lockss_sim extensions    -- Section 9 future-work experiments
     lockss_sim inspect       -- validate, analyze and audit a trace file
     lockss_sim trace-convert -- convert a trace between JSONL and binary *)

module Duration = Repro_prelude.Duration
module Scenario = Experiments.Scenario
module Chaos = Experiments.Chaos
module Golden = Experiments.Golden
open Cmdliner

(* -- Shared options ---------------------------------------------------- *)

let peers =
  Arg.(value & opt int 25 & info [ "peers" ] ~docv:"N" ~doc:"Loyal peer population size.")

let aus =
  Arg.(value & opt int 4 & info [ "aus" ] ~docv:"N" ~doc:"Archival units preserved per peer.")

let quorum = Arg.(value & opt int 5 & info [ "quorum" ] ~docv:"N" ~doc:"Poll quorum.")

let years =
  Arg.(value & opt float 2. & info [ "years" ] ~docv:"Y" ~doc:"Simulated horizon in years.")

let runs =
  Arg.(value & opt int 1 & info [ "runs" ] ~docv:"N" ~doc:"Runs averaged per data point.")

let seed = Arg.(value & opt int 1 & info [ "seed" ] ~docv:"S" ~doc:"Root random seed.")

(* Every command that fans out independent simulations honors --jobs;
   the setting is a performance knob only — results are byte-identical
   at any worker count. *)
let jobs =
  Arg.(
    value
    & opt int 0
    & info [ "jobs"; "j" ] ~docv:"N"
        ~doc:
          "Worker domains for independent simulation runs: $(b,1) forces serial \
           execution, $(b,0) (default) uses $(b,LOCKSS_JOBS) or the machine's \
           recommended domain count. Results are identical at any setting.")

let set_jobs n =
  try Experiments.Runner.set_jobs n
  with Invalid_argument msg ->
    Printf.eprintf "invalid --jobs: %s\n" msg;
    exit 2

(* The scale of every command that runs simulations. Evaluating the term
   applies --jobs, before the command's own action runs. *)
let scale_term =
  let make peers aus quorum years runs seed jobs =
    set_jobs jobs;
    let quorum = max 2 quorum in
    {
      Scenario.peers;
      aus;
      quorum;
      max_disagree = max 1 ((quorum - 1) / 3);
      outer_circle = quorum;
      reference_target = min (3 * quorum) (peers - 1);
      years;
      runs;
      seed;
    }
  in
  Term.(const make $ peers $ aus $ quorum $ years $ runs $ seed $ jobs)

let capacity =
  Arg.(
    value
    & opt float 1.0
    & info [ "capacity" ]
        ~docv:"C"
        ~doc:"Per-peer compute capacity (over-provisioning factor; 1.0 = reference PC).")

let mttf =
  Arg.(
    value
    & opt float 5.0
    & info [ "disk-mttf-years" ] ~docv:"Y"
        ~doc:"Mean years between block failures per 50-AU disk.")

let interval_months =
  Arg.(
    value
    & opt float 3.0
    & info [ "interval-months" ] ~docv:"M" ~doc:"Inter-poll interval in months.")

(* -- Fault-injection options (shared by run and chaos) ----------------- *)

(* [mix_term defaults] builds the --loss/--jitter/--dup/--churn family;
   [run] defaults everything to zero (faults opt-in), [chaos] defaults to
   the standard chaos mix. *)
let mix_term (d : Chaos.mix) =
  let loss =
    Arg.(
      value
      & opt float d.Chaos.loss
      & info [ "loss" ] ~docv:"P" ~doc:"Per-copy message loss probability in [0,1].")
  in
  let jitter =
    Arg.(
      value
      & opt float d.Chaos.jitter
      & info [ "jitter" ] ~docv:"S"
          ~doc:"Maximum extra delivery latency in seconds (drawn uniformly per copy).")
  in
  let dup =
    Arg.(
      value
      & opt float d.Chaos.duplication
      & info [ "dup" ] ~docv:"P" ~doc:"Per-message duplication probability in [0,1].")
  in
  let churn =
    Arg.(
      value
      & opt float d.Chaos.churn_per_day
      & info [ "churn" ] ~docv:"R" ~doc:"Crashes per peer per day (Poisson schedule).")
  in
  let downtime_days =
    Arg.(
      value
      & opt float (d.Chaos.downtime /. Duration.day)
      & info [ "downtime-days" ] ~docv:"D" ~doc:"Days a crashed peer stays down.")
  in
  let corrupt =
    Arg.(
      value
      & opt float d.Chaos.corruption
      & info [ "corrupt" ] ~docv:"P"
          ~doc:
            "Per-copy probability in [0,1] of corrupting one message field \
             (deterministic seeded mutation) before delivery.")
  in
  let replay =
    Arg.(
      value
      & opt float d.Chaos.replay
      & info [ "replay" ] ~docv:"P"
          ~doc:
            "Per-send probability in [0,1] of re-injecting a recently delivered \
             message from the replay ring.")
  in
  let stale =
    Arg.(
      value
      & opt float d.Chaos.stale
      & info [ "stale" ] ~docv:"P"
          ~doc:
            "Per-send probability in [0,1] of re-injecting a past delivery after a \
             multi-day delay, well outside every protocol timeout.")
  in
  let stray =
    Arg.(
      value
      & opt float d.Chaos.stray
      & info [ "stray" ] ~docv:"P"
          ~doc:
            "Per-send probability in [0,1] of forging an unsolicited protocol message \
             (vote, ack, proof, receipt or invitation) from an arbitrary identity.")
  in
  let fault_seed =
    Arg.(
      value
      & opt int d.Chaos.fault_seed
      & info [ "fault-seed" ] ~docv:"S"
          ~doc:
            "Seed of the dedicated fault randomness stream; equal seeds replay \
             identical fault traces.")
  in
  let make loss jitter duplication churn_per_day downtime_days corruption replay stale
      stray fault_seed =
    {
      Chaos.loss;
      jitter;
      duplication;
      churn_per_day;
      downtime = Duration.of_days downtime_days;
      corruption;
      replay;
      stale;
      stray;
      fault_seed;
    }
  in
  Term.(
    const make $ loss $ jitter $ dup $ churn $ downtime_days $ corrupt $ replay $ stale
    $ stray $ fault_seed)

let zero_mix =
  {
    Chaos.default_mix with
    Chaos.loss = 0.;
    jitter = 0.;
    duplication = 0.;
    churn_per_day = 0.;
    corruption = 0.;
    replay = 0.;
    stale = 0.;
    stray = 0.;
  }

(* -- Observability options (run) --------------------------------------- *)

let duration_arg =
  let parse s =
    match Duration.of_string s with Ok d -> Ok d | Error msg -> Error (`Msg msg)
  in
  Arg.conv (parse, Duration.pp)

let report =
  Arg.(
    value
    & opt (some string) None
    & info [ "report" ] ~docv:"DIR"
        ~doc:
          "Write the run report into $(docv): $(docv)/manifest.json (the command's \
           provenance and cost) and, per run, $(docv)/seed$(i,N)/ holding \
           $(b,trace.ntrace) (binary protocol events at --trace-level; convert with \
           $(b,trace-convert), read with $(b,inspect)), $(b,metrics.csv) (a metric \
           sample every --sample-interval) and $(b,profile.json) (per-phase CPU \
           seconds, GC counters, engine statistics); at --trace-level $(b,debug) also \
           $(b,spans.jsonl) (one reconstructed poll per line) and $(b,ledger.json) \
           (the per-peer effort ledger reconciled against the run's metrics). Under \
           --attack the no-attack side writes $(docv)/baseline/seed$(i,N)/. \
           Directories are created as needed.")

let trace_level =
  let levels =
    [ ("debug", Lockss.Trace.Debug); ("info", Lockss.Trace.Info); ("warn", Lockss.Trace.Warn) ]
  in
  Arg.(
    value
    & opt (enum levels) Lockss.Trace.Debug
    & info [ "trace-level" ] ~docv:"LEVEL"
        ~doc:
          "Minimum severity written to the report's trace: $(b,debug) (all protocol \
           chatter; the report also holds spans and the effort ledger), $(b,info) \
           (poll lifecycle, drops, repairs), $(b,warn) (inquorate/alarmed polls only).")

let sample_interval =
  Arg.(
    value
    & opt duration_arg (Duration.of_days 7.)
    & info [ "sample-interval" ] ~docv:"DUR"
        ~doc:
          "Simulated time between metric samples, e.g. $(b,7d), $(b,12h), $(b,1mo) \
           (default 7d).")

let check_flag =
  Arg.(
    value & flag
    & info [ "check" ]
        ~doc:
          "Attach the runtime invariant auditor to every run: protocol invariants \
           (effort balance, refractory self-clocking, grade decay, sampling, quorum, \
           ledger conservation) are evaluated online against the trace stream; any \
           violation is printed, written to the report's trace as an \
           $(b,invariant_violated) event, and makes the command exit with status 1.")

let probes_term =
  let make report trace_level sample_interval audit =
    { Experiments.Scenario.report; trace_level; sample_interval; audit }
  in
  Term.(const make $ report $ trace_level $ sample_interval $ check_flag)

(* -- Manifest + baseline options --------------------------------------- *)

let manifest_out =
  Arg.(
    value
    & opt (some string) None
    & info [ "manifest-out" ] ~docv:"FILE"
        ~doc:
          "Write a run manifest to $(docv) as one JSON object: command, targets, the \
           seed list consumed, worker-domain counts, injected fault mix, git revision, \
           host/toolchain identification, and wall/CPU seconds.")

(* The manifest handle is opened before the sweep so wall/CPU cover the
   whole command; writing is a no-op without a path. *)
let emit_manifest ~manifest_out ~handle ~seeds ?targets ?fault_mix () =
  match manifest_out with
  | None -> ()
  | Some path ->
    Experiments.Manifest.write ~path
      (Experiments.Manifest.finish handle ~seeds ?targets ?fault_mix ());
    Printf.printf "wrote manifest %s\n" path

let seeds_of_scale (scale : Scenario.scale) =
  List.init scale.Scenario.runs (fun i -> scale.Scenario.seed + i)

let baseline_dir =
  Arg.(
    value
    & opt string "baselines"
    & info [ "baseline-dir" ] ~docv:"DIR"
        ~doc:"Directory holding the pinned golden baselines (default $(b,baselines)).")

let config_of scale ~capacity ~mttf ~interval_months =
  {
    (Scenario.config scale) with
    Lockss.Config.capacity;
    disk_mttf_years = mttf;
    inter_poll_interval = Duration.of_months interval_months;
  }

(* -- run command ------------------------------------------------------- *)

type attack_kind =
  | A_none
  | A_stoppage
  | A_flood
  | A_vote_flood
  | A_brute_intro
  | A_brute_remaining
  | A_brute_none

let attack_kind =
  let kinds =
    [
      ("none", A_none);
      ("stoppage", A_stoppage);
      ("flood", A_flood);
      ("vote-flood", A_vote_flood);
      ("brute-intro", A_brute_intro);
      ("brute-remaining", A_brute_remaining);
      ("brute-none", A_brute_none);
    ]
  in
  Arg.(
    value
    & opt (enum kinds) A_none
    & info [ "attack" ] ~docv:"KIND"
        ~doc:
          "Adversary: $(b,none), $(b,stoppage) (network-level pipe stoppage), $(b,flood) \
           (admission-control garbage), $(b,vote-flood) (unsolicited bogus votes), \
           $(b,brute-intro)/$(b,brute-remaining)/$(b,brute-none) (effortful adversary by \
           defection point).")

let coverage =
  Arg.(
    value
    & opt float 1.0
    & info [ "coverage" ] ~docv:"F" ~doc:"Fraction of the population attacked (0,1].")

let duration_days =
  Arg.(
    value
    & opt float 90.
    & info [ "attack-days" ] ~docv:"D" ~doc:"Attack duration per cycle, in days.")

(* The adversary of run, chaos and soak. *)
let attack_term =
  let make kind coverage duration_days =
    let duration = Duration.of_days duration_days in
    let recuperation = Duration.of_days 30. in
    let brute strategy = Scenario.Brute_force { strategy; rate = 5.; identities = 50 } in
    match kind with
    | A_none -> Scenario.No_attack
    | A_stoppage -> Scenario.Pipe_stoppage { coverage; duration; recuperation }
    | A_flood -> Scenario.Admission_flood { coverage; duration; recuperation; rate = 24. }
    | A_vote_flood -> Scenario.Vote_flood { rate = 10. }
    | A_brute_intro -> brute Adversary.Brute_force.Intro
    | A_brute_remaining -> brute Adversary.Brute_force.Remaining
    | A_brute_none -> brute Adversary.Brute_force.Full
  in
  Term.(const make $ attack_kind $ coverage $ duration_days)

(* Print every violation of every run, labelled by side and seed, and
   end with the greppable "violations: N" line. *)
let report_audits sides =
  let total = ref 0 in
  List.iter
    (fun (label, sweep) ->
      List.iter
        (fun r ->
          List.iter
            (fun v ->
              incr total;
              Format.printf "%s seed %d: %a@." label r.Scenario.seed
                Check.Invariant.pp_violation v)
            r.Scenario.violations)
        sweep.Scenario.runs)
    sides;
  Format.printf "violations: %d@." !total;
  if !total > 0 then exit 1

let run_cmd =
  let action scale capacity mttf interval_months attack mix probes =
    let handle = Experiments.Manifest.start ~command:"run" () in
    let cfg = config_of scale ~capacity ~mttf ~interval_months in
    let fault_cfg = Chaos.faults_config mix in
    let cfg =
      if Narses.Faults.is_none fault_cfg then cfg
      else { cfg with Lockss.Config.faults = Some fault_cfg }
    in
    (try Lockss.Config.validate cfg
     with Invalid_argument msg ->
       Printf.eprintf "invalid configuration: %s\n" msg;
       exit 2);
    let print_comparison c =
      Format.printf "baseline:@.%a@.@.under attack:@.%a@.@." Lockss.Metrics.pp_summary
        c.Scenario.baseline Lockss.Metrics.pp_summary c.Scenario.attack;
      Format.printf
        "access failure: %.3e@.delay ratio: %.2f@.coefficient of friction: %.2f@.cost \
         ratio: %.2f@."
        c.Scenario.access_failure c.Scenario.delay_ratio c.Scenario.friction
        c.Scenario.cost_ratio
    in
    let sides =
      match attack with
      | Scenario.No_attack ->
        let sweep = Scenario.sweep ~probes ~cfg scale attack in
        Format.printf "%a@." Lockss.Metrics.pp_summary sweep.Scenario.mean;
        [ ("run", sweep) ]
      | _ ->
        let paired = Scenario.compare ~probes ~cfg scale attack in
        print_comparison paired.Scenario.ratios;
        [ ("baseline", paired.Scenario.no_attack); ("attack", paired.Scenario.under_attack) ]
    in
    if probes.Scenario.audit then report_audits sides;
    let fault_mix =
      if Narses.Faults.is_none fault_cfg then None else Some (Chaos.mix_to_json mix)
    in
    let manifest_out =
      Option.map (fun dir -> Filename.concat dir "manifest.json") probes.Scenario.report
    in
    emit_manifest ~manifest_out ~handle ~seeds:(seeds_of_scale scale) ?fault_mix ()
  in
  let term =
    Term.(
      const action $ scale_term $ capacity $ mttf $ interval_months $ attack_term
      $ mix_term zero_mix $ probes_term)
  in
  Cmd.v
    (Cmd.info "run"
       ~doc:
         "Run one simulated deployment, optionally under attack and/or injected \
          network faults.")
    term

(* -- chaos command ----------------------------------------------------- *)

let chaos_cmd =
  let ablation =
    Arg.(
      value
      & flag
      & info [ "ablation" ]
          ~doc:"Also print the faults × pipe-stoppage ablation table (4 extra runs).")
  in
  let action scale attack mix ablation =
    (try Narses.Faults.validate (Chaos.faults_config mix)
     with Invalid_argument msg ->
       Printf.eprintf "invalid fault mix: %s\n" msg;
       exit 2);
    let report = Chaos.run ~scale ~attack mix in
    Format.printf "%a" Chaos.pp_report report;
    if ablation then Repro_prelude.Table.print (Chaos.ablation ~scale mix);
    if not (Chaos.all_green report) then exit 1
  in
  let term =
    Term.(
      const action $ scale_term $ attack_term $ mix_term Chaos.default_mix $ ablation)
  in
  Cmd.v
    (Cmd.info "chaos"
       ~doc:
         "Run a scenario under an injected fault mix (loss, jitter, duplication, \
          churn) and check protocol invariants: liveness, no stuck polls, no leaked \
          timeouts, message conservation, churn accounting and bounded degradation \
          versus the fault-free paired run. Exit status 1 if any invariant fails.")
    term

(* -- soak command ------------------------------------------------------ *)

let soak_cmd =
  let seeds_count =
    Arg.(
      value
      & opt int 8
      & info [ "seeds" ] ~docv:"N"
          ~doc:"Number of independent seeds to soak (seed, seed+1, ...).")
  in
  let json_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~docv:"FILE"
          ~doc:"Also write the machine-readable soak report to $(docv).")
  in
  let action (scale : Scenario.scale) attack mix seeds_count json_out =
    if seeds_count < 1 then begin
      Printf.eprintf "invalid --seeds: need at least one seed\n";
      exit 2
    end;
    (try Narses.Faults.validate (Chaos.faults_config mix)
     with Invalid_argument msg ->
       Printf.eprintf "invalid fault mix: %s\n" msg;
       exit 2);
    let seeds = List.init seeds_count (fun i -> scale.Scenario.seed + i) in
    let report = Experiments.Soak.run ~scale ~attack ~seeds mix in
    Format.printf "%a" Experiments.Soak.pp_report report;
    (match json_out with
    | None -> ()
    | Some path ->
      let oc = open_out path in
      output_string oc (Obs.Json.to_string (Experiments.Soak.report_json report));
      output_char oc '\n';
      close_out oc);
    if not (Experiments.Soak.all_clean report) then exit 1
  in
  let term =
    Term.(
      const action $ scale_term $ attack_term $ mix_term Chaos.default_mix $ seeds_count
      $ json_out)
  in
  Cmd.v
    (Cmd.info "soak"
       ~doc:
         "Soak the protocol across many independent seeds under the full Byzantine \
          fault mix (loss, jitter, duplication, churn, corruption, replay, stale \
          delivery, stray injection) with the runtime invariant auditor attached and \
          an end-of-run leak audit. A seed fails on any handler exception, invariant \
          violation, leaked timer/session, or lack of progress. Exit status 1 unless \
          every seed is clean.")
    term

(* -- reproduce command ------------------------------------------------- *)

(* A TARGET argument is one entry of the figure table; an unknown name
   is a usage error. *)
let figure_conv = Arg.enum (List.map (fun f -> (f.Golden.name, f)) Golden.figures)

(* Compare one freshly captured target against its pin. Returns the
   report, or an error when the pin is unreadable/absent. *)
let check_target ~dir ~scale sweeps (figure : Golden.figure) =
  let target = figure.Golden.name in
  match Obs.Baseline.load (Obs.Baseline.path ~dir target) with
  | Error msg ->
    Error
      (Printf.sprintf "%s — pin it first with: lockss_sim pin-baseline %s" msg target)
  | Ok pinned ->
    let current = Golden.capture_figure sweeps ~scale figure in
    Ok (Obs.Baseline.compare ~baseline:pinned ~current)

let reproduce_cmd =
  let target =
    Arg.(
      required
      & pos 0 (some figure_conv) None
      & info [] ~docv:"TARGET"
          ~doc:(Printf.sprintf "One of: %s." (String.concat " " Golden.targets)))
  in
  let csv =
    Arg.(
      value
      & opt (some string) None
      & info [ "csv" ] ~docv:"FILE" ~doc:"Also write the table as CSV to $(docv).")
  in
  let plot =
    Arg.(
      value
      & opt (some string) None
      & info [ "plot" ] ~docv:"DIR"
          ~doc:"Also write gnuplot .dat/.gp files for the figure into $(docv).")
  in
  let check_baseline =
    Arg.(
      value & flag
      & info [ "check-baseline" ]
          ~doc:
            "After regenerating the target, diff its metrics against the pinned golden \
             baseline in --baseline-dir and print the per-metric delta report; exit \
             status 1 on any drift past tolerance (or when no baseline is pinned).")
  in
  (* One sweep execution feeds the printed table, the optional plot files
     and the optional baseline check: Golden.sweeps shares the lazies. *)
  let action (figure : Golden.figure) scale csv_path plot_dir check_baseline dir
      manifest_out =
    let target = figure.Golden.name in
    let handle = Experiments.Manifest.start ~command:("reproduce " ^ target) () in
    let module Table = Repro_prelude.Table in
    let sweeps = Golden.sweeps ~scale in
    (match (plot_dir, figure.Golden.plot) with
    | None, _ -> ()
    | Some dir, Some plot -> plot ~dir sweeps
    | Some _, None -> Printf.eprintf "--plot is only available for fig2..fig8\n");
    let table = figure.Golden.table sweeps in
    Table.print table;
    (match csv_path with None -> () | Some path -> Table.save_csv table path);
    let drifted =
      if not check_baseline then false
      else
        match check_target ~dir ~scale sweeps figure with
        | Error msg ->
          Printf.eprintf "%s\n" msg;
          true
        | Ok report ->
          Format.printf "%a@." Obs.Baseline.pp_report report;
          not (Obs.Baseline.ok report)
    in
    emit_manifest ~manifest_out ~handle ~seeds:(seeds_of_scale scale)
      ~targets:[ target ] ();
    if drifted then exit 1
  in
  let term =
    Term.(
      const action $ target $ scale_term $ csv $ plot $ check_baseline $ baseline_dir
      $ manifest_out)
  in
  Cmd.v
    (Cmd.info "reproduce"
       ~doc:
         "Regenerate a figure or table from the paper's evaluation section, fanning \
          the sweep's independent runs out over --jobs worker domains; \
          $(b,--check-baseline) then diffs the result against its pinned golden \
          baseline. (Per-run traces, metrics, spans and profiles are $(b,run --report).)")
    term

(* -- pin-baseline / diff-baseline commands ------------------------------ *)

let baseline_targets_arg =
  let all = function [] -> Golden.figures | figures -> figures in
  Term.(
    const all
    $ Arg.(
        value
        & pos_all figure_conv []
        & info [] ~docv:"TARGET"
            ~doc:
              "Targets to pin/diff (fig2..fig8, table1); all of them when none is \
               given."))

let pin_baseline_cmd =
  let tolerance =
    Arg.(
      value
      & opt float Obs.Baseline.default_tolerance_pct
      & info [ "tolerance-pct" ] ~docv:"PCT"
          ~doc:
            "Per-metric drift tolerance baked into the pin, as a percent of the \
             pinned value (default 0.01: seeded runs are deterministic, so the \
             allowance only absorbs float-formatting noise).")
  in
  let action figures scale tolerance dir manifest_out =
    let handle = Experiments.Manifest.start ~command:"pin-baseline" () in
    let sweeps = Golden.sweeps ~scale in
    let provenance = Experiments.Manifest.provenance () in
    List.iter
      (fun figure ->
        let captured = Golden.capture_figure ~tolerance_pct:tolerance sweeps ~scale figure in
        let captured = { captured with Obs.Baseline.provenance } in
        Obs.Baseline.save ~dir captured;
        Printf.printf "pinned %s (%d metrics)\n"
          (Obs.Baseline.path ~dir figure.Golden.name)
          (List.length captured.Obs.Baseline.metrics))
      figures;
    emit_manifest ~manifest_out ~handle ~seeds:(seeds_of_scale scale)
      ~targets:(List.map (fun f -> f.Golden.name) figures) ()
  in
  let term =
    Term.(
      const action $ baseline_targets_arg $ scale_term $ tolerance $ baseline_dir
      $ manifest_out)
  in
  Cmd.v
    (Cmd.info "pin-baseline"
       ~doc:
         "Run the paper-figure sweeps and pin their results as golden baseline \
          documents under --baseline-dir: per-figure series points and headline \
          metrics, each with a drift direction and tolerance, plus the scale \
          fingerprint and pin provenance. Commit the pins; $(b,diff-baseline) and \
          $(b,reproduce --check-baseline) gate against them.")
    term

let diff_baseline_cmd =
  let json_flag =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:"Emit the delta reports as one JSON object instead of human-readable text.")
  in
  let report_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "report" ] ~docv:"FILE"
          ~doc:
            "Also write the machine-readable delta report to $(docv) — the artifact \
             the nightly reproduce gate uploads.")
  in
  let action figures scale json_flag report_out dir manifest_out =
    let handle = Experiments.Manifest.start ~command:"diff-baseline" () in
    let sweeps = Golden.sweeps ~scale in
    let results =
      List.map (fun f -> (f.Golden.name, check_target ~dir ~scale sweeps f)) figures
    in
    let ok_overall =
      List.for_all
        (fun (_, result) ->
          match result with Ok report -> Obs.Baseline.ok report | Error _ -> false)
        results
    in
    let report_doc =
      Obs.Json.Assoc
        [
          ("ok", Obs.Json.Bool ok_overall);
          ("baseline_dir", Obs.Json.String dir);
          ( "targets",
            Obs.Json.List
              (List.map
                 (fun (target, result) ->
                   match result with
                   | Ok report -> Obs.Baseline.report_json report
                   | Error msg ->
                     Obs.Json.Assoc
                       [
                         ("experiment", Obs.Json.String target);
                         ("ok", Obs.Json.Bool false);
                         ("error", Obs.Json.String msg);
                       ])
                 results) );
        ]
    in
    if json_flag then print_endline (Obs.Json.to_string report_doc)
    else
      List.iter
        (fun (target, result) ->
          match result with
          | Error msg -> Printf.printf "baseline %s: FAILED — %s\n" target msg
          | Ok report -> Format.printf "%a@." Obs.Baseline.pp_report report)
        results;
    (match report_out with
    | None -> ()
    | Some path ->
      Experiments.Manifest.write ~path report_doc;
      Printf.printf "wrote delta report %s\n" path);
    emit_manifest ~manifest_out ~handle ~seeds:(seeds_of_scale scale)
      ~targets:(List.map fst results) ();
    if not ok_overall then exit 1
  in
  let term =
    Term.(
      const action $ baseline_targets_arg $ scale_term $ json_flag $ report_out
      $ baseline_dir $ manifest_out)
  in
  Cmd.v
    (Cmd.info "diff-baseline"
       ~doc:
         "Re-run the paper-figure sweeps and diff every metric against the pinned \
          golden baselines: per-metric value/pin/delta/tolerance/verdict, config \
          fingerprint check, and missing/new metric detection. Exit status 1 on any \
          drift past tolerance — the simulator is deterministic for pinned seeds, so \
          drift means a code change moved the science and must be either fixed or \
          deliberately re-pinned.")
    term

(* -- trace-convert command ---------------------------------------------- *)

let trace_convert_cmd =
  let input =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"IN" ~doc:"Source trace file; encoding is sniffed, not guessed \
                                 from the extension.")
  in
  let output =
    Arg.(
      required
      & pos 1 (some string) None
      & info [] ~docv:"OUT"
          ~doc:
            "Destination trace file; a $(b,.ntrace) extension writes binary, anything \
             else JSONL.")
  in
  let action in_path out_path =
    let out_format = Obs.Trace_file.format_of_path out_path in
    let records = ref 0 in
    (* Records are converted as raw JSON values, not re-encoded through
       typed events, so a convert round-trip preserves the stream
       exactly — inspect gives identical answers on both encodings of the
       same run. *)
    let in_format =
      try
        Obs.Sink.with_file out_path (fun sink ->
            let write_record =
              match out_format with
              | Obs.Trace_file.Binary ->
                let w = Obs.Btrace.writer sink in
                fun json -> Obs.Btrace.write w json
              | Obs.Trace_file.Jsonl ->
                let scratch = Buffer.create 256 in
                fun json ->
                  Buffer.clear scratch;
                  Obs.Json.write scratch json;
                  Buffer.add_char scratch '\n';
                  Obs.Sink.write_buffer sink scratch
            in
            Obs.Trace_file.iter in_path ~f:(fun ~line result ->
                match result with
                | Error msg ->
                  Printf.eprintf "%s:%d: invalid record: %s\n" in_path line msg;
                  exit 1
                | Ok json ->
                  incr records;
                  write_record json))
      with Sys_error msg ->
        Printf.eprintf "cannot convert: %s\n" msg;
        exit 2
    in
    Printf.printf "%s (%s) -> %s (%s): %d records\n" in_path
      (Obs.Trace_file.format_to_string in_format)
      out_path
      (Obs.Trace_file.format_to_string out_format)
      !records
  in
  Cmd.v
    (Cmd.info "trace-convert"
       ~doc:
         "Convert a trace file between JSONL and the compact binary encoding \
          (selected by $(i,OUT)'s extension: $(b,.ntrace) is binary). Records are \
          copied as raw JSON values, so converting back yields an equivalent stream \
          and all offline tools report identical results on either encoding. Exit \
          status 1 on a corrupt input record.")
    Term.(const action $ input $ output)

(* -- inspect command ------------------------------------------------------ *)

(* [round_trip ~time event] re-serializes a decoded event through the
   JSON text and decodes it again. Events are compared, not JSON values,
   because the float writer may legitimately narrow 4320.0 to the
   literal 4320. *)
let round_trip ~time event =
  match Obs.Json.of_string (Obs.Json.to_string (Lockss.Trace.to_json ~time event)) with
  | Error msg -> Error ("re-serialized event does not parse: " ^ msg)
  | Ok json -> (
    match Lockss.Trace.of_json json with
    | Error msg -> Error ("re-serialized event does not round-trip: " ^ msg)
    | Ok (time', event') ->
      if Float.equal time' time && event' = event then Ok ()
      else Error ("event changed across JSON round-trip: " ^ Lockss.Trace.kind event))

let inspect_cmd =
  let file =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"FILE"
          ~doc:
            "Trace file, binary or JSONL: a run report's \
             $(b,seed)$(i,N)$(b,/trace.ntrace) (see $(b,run --report)) or its \
             $(b,trace-convert)ed JSONL. The effort ledger and the auditor need \
             --trace-level debug.")
  in
  let audit_quorum =
    Arg.(
      value
      & opt int 5
      & info [ "quorum" ] ~docv:"N"
          ~doc:"Quorum the traced run used (the $(b,run) command's default is 5).")
  in
  let refractory =
    Arg.(
      value
      & opt duration_arg Lockss.Config.default.Lockss.Config.refractory_period
      & info [ "refractory" ] ~docv:"DUR"
          ~doc:"Refractory period the traced run used, e.g. $(b,1d).")
  in
  let decay =
    Arg.(
      value
      & opt duration_arg Lockss.Config.default.Lockss.Config.grade_decay_period
      & info [ "decay" ] ~docv:"DUR"
          ~doc:"Grade decay period the traced run used, e.g. $(b,6mo).")
  in
  let mutate =
    let ids = List.map (fun m -> (m.Check.Mutation.id, m.Check.Mutation.id)) Check.Mutation.all in
    Arg.(
      value
      & opt (some (enum ids)) None
      & info [ "mutate" ] ~docv:"ID"
          ~doc:
            (Printf.sprintf
               "Self-test: audit a copy of the trace with a seeded mutation applied, so \
                the matching invariant must fire. One of: %s."
               (String.concat ", " (List.map (fun m -> m.Check.Mutation.id) Check.Mutation.all))))
  in
  let json_flag =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:
            "Emit one JSON object: event counts by kind, the number of invalid records, \
             the analysis and the audit.")
  in
  let action path quorum refractory decay mutate as_json =
    let params =
      {
        Check.Invariant.default_params with
        Check.Invariant.quorum;
        refractory_period = refractory;
        decay_period = decay;
      }
    in
    let analyzer = Obs.Analyze.create () in
    let auditor = Check.Auditor.create ~params () in
    let by_kind = Hashtbl.create 32 in
    let events = ref 0 and invalid = ref 0 in
    (* Under --mutate the whole trace is audited after the mutation, so
       the decoded records are kept; otherwise each is audited as read. *)
    let kept = ref [] in
    let bad ~line msg =
      incr invalid;
      Printf.eprintf "%s:%d: %s\n" path line msg
    in
    let record ~line result =
      Obs.Analyze.feed_record analyzer ~line result;
      match result with
      | Error msg ->
        (* A JSONL line that does not parse, or corrupt binary framing. *)
        bad ~line ("invalid record: " ^ msg);
        if mutate <> None then kept := Error msg :: !kept
      | Ok json ->
        let decoded = Lockss.Trace.of_json json in
        (match decoded with
        | Error msg -> bad ~line ("not a trace event: " ^ msg)
        | Ok (time, event) ->
          incr events;
          let kind = Lockss.Trace.kind event in
          Hashtbl.replace by_kind kind (1 + Option.value ~default:0 (Hashtbl.find_opt by_kind kind));
          Result.iter_error (bad ~line) (round_trip ~time event));
        (* A record that is not an event is audited too, as a
           trace-format violation. *)
        if mutate = None then ignore (Check.Auditor.feed_decoded auditor decoded)
        else kept := decoded :: !kept
    in
    let format =
      try Obs.Trace_file.iter path ~f:record
      with Sys_error msg ->
        Printf.eprintf "cannot open %s: %s\n" path msg;
        exit 2
    in
    Option.iter
      (fun id ->
        let trace =
          List.map
            (function
              | Ok te -> te
              | Error msg ->
                Printf.eprintf "%s: cannot mutate a malformed trace: %s\n" path msg;
                exit 2)
            (List.rev !kept)
        in
        match Check.Mutation.apply ~params ~id trace with
        | Error msg ->
          Printf.eprintf "mutation %s not applicable: %s\n" id msg;
          exit 2
        | Ok mutated -> List.iter (fun (time, event) -> Check.Auditor.feed auditor ~time event) mutated)
      mutate;
    Check.Auditor.finish auditor;
    let counts =
      List.sort compare (Hashtbl.fold (fun kind count acc -> (kind, count) :: acc) by_kind [])
    in
    if as_json then
      print_endline
        (Obs.Json.to_string
           (Obs.Json.Assoc
              [
                ("events", Obs.Json.Assoc (List.map (fun (k, n) -> (k, Obs.Json.Int n)) counts));
                ("invalid", Obs.Json.Int !invalid);
                ("analysis", Obs.Analyze.report_json analyzer);
                ("audit", Check.Auditor.report_json auditor);
              ]))
    else begin
      Format.printf "%s: %d events (%s), %s@." path !events
        (Obs.Trace_file.format_to_string format)
        (if !invalid = 0 then "all parse and round-trip"
         else Printf.sprintf "%d invalid records" !invalid);
      List.iter (fun (kind, count) -> Format.printf "  %-20s %d@." kind count) counts;
      Format.printf "%a@." Obs.Analyze.pp_report analyzer;
      Format.printf "%a@." Check.Auditor.pp_report auditor
    end;
    if
      !invalid > 0
      || Obs.Analyze.anomaly_count analyzer > 0
      || Check.Auditor.violation_count auditor > 0
    then exit 1
  in
  Cmd.v
    (Cmd.info "inspect"
       ~doc:
         "Check a trace file offline in one pass, in either encoding. Every record \
          must parse into a typed event and survive a re-serialization round-trip; \
          poll spans, per-phase latencies and the per-peer effort ledger are \
          reconstructed and anomalies listed (orphaned events, abandoned polls, \
          duplicate conclusions, poller activity after conclusion, malformed records); \
          and the protocol-invariant auditor replays the events: effort balance per \
          poll, refractory self-clocking of admissions, monotonic grade decay, \
          inner-circle sampling and quorum rules. Prints event counts by kind, the \
          analysis and the audit. Exit status 1 on any invalid record, anomaly or \
          violation; each invalid record is reported as FILE:LINE on stderr. Pass \
          --quorum/--refractory/--decay matching the traced run's configuration; \
          --mutate seeds a known violation first, proving the matching check fires.")
    Term.(const action $ file $ audit_quorum $ refractory $ decay $ mutate $ json_flag)

(* -- subversion command ------------------------------------------------ *)

let subversion_cmd =
  let action scale =
    Repro_prelude.Table.print
      (Experiments.Subversion_attack.to_table (Experiments.Subversion_attack.sweep ~scale ()))
  in
  let term = Term.(const action $ scale_term) in
  Cmd.v
    (Cmd.info "subversion"
       ~doc:
         "Run the retained-defense experiment: the stealth content-corruption adversary \
          of the prior protocol paper.")
    term

(* -- reciprocity command ------------------------------------------------- *)

let reciprocity_cmd =
  let action scale =
    Repro_prelude.Table.print
      (Experiments.Reciprocity_attack.to_table (Experiments.Reciprocity_attack.sweep ~scale ()));
    Printf.printf "brute-force REMAINING friction at this scale (reference): %s\n"
      (Experiments.Report.ratio (Experiments.Reciprocity_attack.brute_force_reference ~scale ()))
  in
  let term = Term.(const action $ scale_term) in
  Cmd.v
    (Cmd.info "reciprocity"
       ~doc:"Run the grade-recovery adversary experiment the paper deferred to its \
             extended version.")
    term

(* -- extensions command -------------------------------------------------- *)

let extensions_cmd =
  let action scale =
    Repro_prelude.Table.print
      (Experiments.Extensions.adaptive_table (Experiments.Extensions.adaptive_acceptance ~scale ()));
    let c = Experiments.Extensions.churn ~scale () in
    Printf.printf
      "churn: %d joiners; incumbents %.2f vs newcomers %.2f successful polls/peer-AU-year\n"
      c.Experiments.Extensions.joiners c.Experiments.Extensions.incumbent_success_rate
      c.Experiments.Extensions.newcomer_success_rate;
    Repro_prelude.Table.print
      (Experiments.Extensions.combined_table (Experiments.Extensions.combined ~scale ()));
    let rows, dropped = Experiments.Extensions.diversity ~scale () in
    Repro_prelude.Table.print (Experiments.Extensions.diversity_table rows);
    List.iter
      (fun (coverage, reason) ->
        Printf.printf "diversity: coverage %s dropped at this scale: %s\n"
          (Experiments.Report.pct coverage) reason)
      dropped
  in
  let term = Term.(const action $ scale_term) in
  Cmd.v
    (Cmd.info "extensions"
       ~doc:"Run the Section 9 future-work experiments: adaptive acceptance, churn, \
             combined adversaries, collection diversity.")
    term

(* -- ablate command ---------------------------------------------------- *)

let ablate_cmd =
  let action scale =
    Repro_prelude.Table.print (Experiments.Ablation.to_table (Experiments.Ablation.run ~scale ()))
  in
  let term = Term.(const action $ scale_term) in
  Cmd.v
    (Cmd.info "ablate" ~doc:"Show what each attrition defense buys, one ablation per row.")
    term

let () =
  let doc = "LOCKSS attrition-defense simulator (USENIX 2005 reproduction)" in
  let info = Cmd.info "lockss_sim" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            run_cmd;
            reproduce_cmd;
            pin_baseline_cmd;
            diff_baseline_cmd;
            ablate_cmd;
            chaos_cmd;
            soak_cmd;
            subversion_cmd;
            reciprocity_cmd;
            extensions_cmd;
            inspect_cmd;
            trace_convert_cmd;
          ]))
