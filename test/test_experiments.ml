(* Tests for the experiment harness: scenario plumbing, ratio metrics,
   and quick miniature versions of the paper's sweeps that check the
   claimed shapes hold. *)

module Duration = Repro_prelude.Duration
open Experiments

(* A very small, fast scale for harness tests. *)
let micro =
  {
    Scenario.peers = 15;
    aus = 2;
    quorum = 4;
    max_disagree = 1;
    outer_circle = 3;
    reference_target = 8;
    years = 2.;
    runs = 1;
    seed = 5;
  }

let test_config_of_scale () =
  let cfg = Scenario.config micro in
  Alcotest.(check int) "peers" 15 cfg.Lockss.Config.loyal_peers;
  Alcotest.(check int) "aus" 2 cfg.Lockss.Config.aus;
  Alcotest.(check int) "quorum" 4 cfg.Lockss.Config.quorum;
  Lockss.Config.validate cfg

let test_run_deterministic () =
  let cfg = Scenario.config micro in
  let a = (Scenario.run ~cfg ~seed:3 ~years:0.5 Scenario.No_attack).Scenario.summary in
  let b = (Scenario.run ~cfg ~seed:3 ~years:0.5 Scenario.No_attack).Scenario.summary in
  Alcotest.(check int) "same polls" a.Lockss.Metrics.polls_succeeded
    b.Lockss.Metrics.polls_succeeded;
  Alcotest.(check (float 0.)) "same effort" a.Lockss.Metrics.loyal_effort
    b.Lockss.Metrics.loyal_effort

let test_sweep_averages () =
  let cfg = Scenario.config micro in
  let scale = { micro with Scenario.runs = 2; years = 0.5 } in
  let avg = (Scenario.sweep ~cfg scale Scenario.No_attack).Scenario.mean in
  let s1 = (Scenario.run ~cfg ~seed:scale.Scenario.seed ~years:0.5 Scenario.No_attack).Scenario.summary in
  let s2 =
    (Scenario.run ~cfg ~seed:(scale.Scenario.seed + 1) ~years:0.5 Scenario.No_attack)
      .Scenario.summary
  in
  let expected =
    (s1.Lockss.Metrics.loyal_effort +. s2.Lockss.Metrics.loyal_effort) /. 2.
  in
  Alcotest.(check (float 1e-6)) "averaged effort" expected avg.Lockss.Metrics.loyal_effort

(* A synthetic summary for aggregation tests; fields that mean_summaries
   touches are parameterised, the rest hold arbitrary benign values. *)
let summary_stub ~horizon ~underflows ~reads ~reads_failed =
  {
    Lockss.Metrics.horizon;
    replicas = 10;
    access_failure_probability = 1e-4;
    polls_succeeded = 100;
    polls_inquorate = 2;
    polls_alarmed = 0;
    mean_success_gap = Duration.of_days 30.;
    loyal_effort = 1e6;
    adversary_effort = 0.;
    effort_per_successful_poll = 1e4;
    invitations_considered = 50;
    invitations_dropped = 5;
    repairs = 3;
    repair_underflows = underflows;
    votes_supplied = 400;
    reads;
    reads_failed;
    empirical_read_failure =
      (if reads > 0 then float_of_int reads_failed /. float_of_int reads else nan);
  }

let test_mean_summaries_aggregation () =
  (* Underflow counters must be summed (one anomaly in any run stays
     visible), the horizon averaged, and the empirical read-failure rate
     averaged only over the runs that read at all. *)
  let s1 =
    summary_stub ~horizon:(Duration.of_years 1.) ~underflows:2 ~reads:100
      ~reads_failed:10
  in
  let s2 =
    summary_stub ~horizon:(Duration.of_years 3.) ~underflows:0 ~reads:0
      ~reads_failed:0
  in
  let s3 =
    summary_stub ~horizon:(Duration.of_years 2.) ~underflows:1 ~reads:100
      ~reads_failed:30
  in
  let m = Scenario.mean_summaries [ s1; s2; s3 ] in
  Alcotest.(check int) "underflows summed" 3 m.Lockss.Metrics.repair_underflows;
  Alcotest.(check (float 1e-6)) "horizon averaged" (Duration.of_years 2.)
    m.Lockss.Metrics.horizon;
  (* s2 read nothing: its NaN must not poison the mean. (0.10 + 0.30) / 2. *)
  Alcotest.(check (float 1e-9)) "read failure over reading runs" 0.2
    m.Lockss.Metrics.empirical_read_failure;
  (* All runs read-free: NaN is the honest answer. *)
  let none =
    Scenario.mean_summaries
      [
        summary_stub ~horizon:1. ~underflows:0 ~reads:0 ~reads_failed:0;
        summary_stub ~horizon:1. ~underflows:0 ~reads:0 ~reads_failed:0;
      ]
  in
  Alcotest.(check bool) "NaN when no run read" true
    (Float.is_nan none.Lockss.Metrics.empirical_read_failure)

let test_ratios_baseline_is_one () =
  let cfg = Scenario.config micro in
  let s = (Scenario.run ~cfg ~seed:3 ~years:1. Scenario.No_attack).Scenario.summary in
  let c = Scenario.ratios ~baseline:s ~attack:s in
  Alcotest.(check (float 1e-9)) "delay ratio 1" 1. c.Scenario.delay_ratio;
  Alcotest.(check (float 1e-9)) "friction 1" 1. c.Scenario.friction;
  Alcotest.(check (float 1e-9)) "cost ratio 0 (no adversary)" 0. c.Scenario.cost_ratio

let test_ratios_infinite_when_no_successes () =
  let cfg = Scenario.config micro in
  let baseline = (Scenario.run ~cfg ~seed:3 ~years:1. Scenario.No_attack).Scenario.summary in
  let dead =
    (Scenario.run ~cfg ~seed:3 ~years:1.
       (Scenario.Pipe_stoppage
          { coverage = 1.0; duration = Duration.of_years 2.; recuperation = Duration.day }))
      .Scenario.summary
  in
  let c = Scenario.ratios ~baseline ~attack:dead in
  Alcotest.(check bool) "delay ratio infinite" true (c.Scenario.delay_ratio = infinity)

(* -- Probes ---------------------------------------------------------------- *)

(* A full report: at Debug it holds every file a run can write. *)
let report dir =
  {
    Scenario.default_probes with
    Scenario.report = Some dir;
    trace_level = Lockss.Trace.Debug;
  }

let flood =
  Scenario.Admission_flood
    {
      coverage = 1.0;
      duration = Duration.of_days 30.;
      recuperation = Duration.of_days 30.;
      rate = 24.;
    }

(* Probes observe a run; they must never change it. Every probe set is
   checked against the probe-free run of the same seed, with and without
   an attack. *)
let test_probes_never_perturb () =
  let cfg = Scenario.config micro in
  let run ?probes attack = Scenario.run ?probes ~cfg ~seed:3 ~years:0.5 attack in
  Trace_gen.with_report_dir (fun dir ->
      let probe_sets =
        [
          ("none", Scenario.default_probes);
          ("audit", { Scenario.default_probes with Scenario.audit = true });
          ("report", report dir);
          ("audit + report", { (report dir) with Scenario.audit = true });
        ]
      in
      List.iter
        (fun (attack_name, attack) ->
          let bare = run attack in
          List.iter
            (fun (probes_name, probes) ->
              let r = run ~probes attack in
              let label what = Printf.sprintf "%s, %s: %s" attack_name probes_name what in
              (* [compare], not [=]: a summary can hold [nan]. *)
              Alcotest.(check bool)
                (label "summary unchanged") true
                (compare bare.Scenario.summary r.Scenario.summary = 0);
              Alcotest.(check int) (label "no violations") 0
                (List.length r.Scenario.violations))
            probe_sets)
        [ ("no attack", Scenario.No_attack); ("admission flood", flood) ])

let fd_count () = Array.length (Sys.readdir "/proc/self/fd")

(* An output that cannot be opened must not leak the ones opened before
   it: the trace sink is open when the metrics file fails, because a
   directory squats on its name. *)
let test_failed_open_leaks_nothing () =
  let cfg = Scenario.config micro in
  Trace_gen.with_report_dir (fun dir ->
      let probes = report dir in
      Unix.mkdir (Filename.concat dir "seed3") 0o755;
      Unix.mkdir (Filename.concat dir "seed3/metrics.csv") 0o755;
      let attempt () =
        match Scenario.run ~probes ~cfg ~seed:3 ~years:0.1 Scenario.No_attack with
        | _ -> Alcotest.fail "opening a metrics file over a directory succeeded"
        | exception Sys_error _ -> ()
      in
      if Sys.file_exists "/proc/self/fd" then begin
        let before = fd_count () in
        attempt ();
        attempt ();
        Alcotest.(check int) "no descriptor left open" before (fd_count ())
      end
      else attempt ())

(* Every deterministic file of a paired, audited Debug run under the
   chaos mix, pinned by MD5 on both sides of the comparison: the lock
   on what a run report contains. *)
let test_outputs_pinned () =
  let scale = { micro with Scenario.years = 0.5 } in
  let cfg =
    {
      (Scenario.config scale) with
      Lockss.Config.faults = Some (Chaos.faults_config Chaos.default_mix);
    }
  in
  Trace_gen.with_report_dir (fun dir ->
      let probes = { (report dir) with Scenario.audit = true } in
      ignore (Scenario.compare ~probes ~cfg scale flood);
      (* A trace is pinned by its JSONL rendering. *)
      let digest file =
        let path = Filename.concat dir file in
        if Filename.check_suffix file ".ntrace" then
          Digest.to_hex (Digest.string (Trace_gen.jsonl path))
        else Digest.to_hex (Digest.file path)
      in
      List.iter
        (fun (file, md5) -> Alcotest.(check string) file md5 (digest file))
        [
          ("seed5/metrics.csv", "1aa6433abf30e4342eec694a3d9ca6b6");
          ("seed5/spans.jsonl", "c2643ec52d766a6dc35897c2323f2e90");
          ("seed5/ledger.json", "bec18ed8ea302133c9b047be7d1daf91");
          ("seed5/trace.ntrace", "db4a805d5146dab96379cf2da9b8ce58");
          ("baseline/seed5/metrics.csv", "9a847e53563bd814015efe9e3595b9d3");
          ("baseline/seed5/spans.jsonl", "33e1095eef44682c6ac141a77a432db9");
          ("baseline/seed5/ledger.json", "6544e0ba26daca139dc0ac2a64c0e4e1");
          ("baseline/seed5/trace.ntrace", "3e1155be1ed2971d1fd225d053e967de");
        ])

let test_report_profile () =
  let cfg = Scenario.config micro in
  Trace_gen.with_report_dir (fun dir ->
      let probes = { Scenario.default_probes with Scenario.report = Some dir } in
      let r = Scenario.run ~probes ~cfg ~seed:3 ~years:0.25 Scenario.No_attack in
      let lines =
        In_channel.with_open_text (Filename.concat dir "seed3/profile.json")
          In_channel.input_lines
      in
      match lines with
      | [ line ] -> (
        match Obs.Json.of_string line with
        | Error msg -> Alcotest.failf "profile is not JSON: %s" msg
        | Ok json ->
          Alcotest.(check bool) "profile member" true
            (Option.is_some (Obs.Json.member "profile" json));
          let executed =
            Option.bind (Obs.Json.member "engine" json) (Obs.Json.member "executed")
          in
          Alcotest.(check (option int)) "engine.executed matches the result"
            (Some r.Scenario.engine.Narses.Engine.executed)
            (Option.bind executed Obs.Json.to_int))
      | _ -> Alcotest.failf "expected one JSON object, got %d lines" (List.length lines))

(* -- Shape checks: miniature versions of the paper's figures ---------- *)

let test_fig3_shape_coverage_monotone () =
  (* Higher coverage cannot make preservation better. *)
  let points =
    Grid.sweep ~scale:micro
      ~durations:[ Duration.of_days 90. ]
      ~coverages:[ 0.1; 1.0 ] Grid.stoppage
  in
  match points with
  | [ low; high ] ->
    Alcotest.(check bool) "full coverage at least as damaging" true
      (high.Grid.access_failure >= low.Grid.access_failure);
    Alcotest.(check bool) "delay grows with coverage" true
      (high.Grid.delay_ratio >= low.Grid.delay_ratio)
  | _ -> Alcotest.fail "expected two points"

let test_fig3_shape_duration_monotone () =
  let points =
    Grid.sweep ~scale:micro
      ~durations:[ Duration.of_days 5.; Duration.of_days 120. ]
      ~coverages:[ 1.0 ] Grid.stoppage
  in
  match points with
  | [ short; long ] ->
    Alcotest.(check bool) "long attacks hurt more" true
      (long.Grid.delay_ratio > short.Grid.delay_ratio);
    Alcotest.(check bool) "short attacks nearly harmless" true
      (short.Grid.delay_ratio < 1.5)
  | _ -> Alcotest.fail "expected two points"

let test_fig6_shape_flood_is_weak () =
  let points =
    Grid.sweep ~scale:micro
      ~durations:[ Duration.of_years 1. ]
      ~coverages:[ 1.0 ] Grid.admission
  in
  match points with
  | [ p ] ->
    (* The paper's core claim: the application-level flood barely moves
       preservation while raising friction modestly. *)
    Alcotest.(check bool) "delay ratio close to 1" true (p.Grid.delay_ratio < 1.3);
    Alcotest.(check bool) "friction bounded" true (p.Grid.friction < 2.0)
  | _ -> Alcotest.fail "expected one point"

let test_table1_shape () =
  let rows = Effort_attack.sweep ~scale:micro ~collections:[ 2 ] ~identities:20 () in
  Alcotest.(check int) "three strategies" 3 (List.length rows);
  let find strategy =
    List.find (fun r -> r.Effort_attack.strategy = strategy) rows
  in
  let intro = find Adversary.Brute_force.Intro in
  let remaining = find Adversary.Brute_force.Remaining in
  let full = find Adversary.Brute_force.Full in
  (* Cost ratio: full participation is the adversary's optimum. *)
  Alcotest.(check bool) "NONE < REMAINING cost" true
    (full.Effort_attack.cost_ratio < remaining.Effort_attack.cost_ratio);
  Alcotest.(check bool) "NONE < INTRO cost" true
    (full.Effort_attack.cost_ratio < intro.Effort_attack.cost_ratio);
  (* Friction: strategies extracting votes hurt most. *)
  Alcotest.(check bool) "vote extraction costs defenders" true
    (remaining.Effort_attack.friction > intro.Effort_attack.friction);
  Alcotest.(check bool) "friction bounded by constant over-provisioning" true
    (full.Effort_attack.friction < 4.);
  (* Access failure stays in the baseline's order of magnitude. *)
  List.iter
    (fun r ->
      Alcotest.(check bool) "preservation intact" true (r.Effort_attack.access_failure < 0.01))
    rows

let test_fig2_shape () =
  (* A high damage rate keeps the comparison out of small-sample noise at
     this micro scale. *)
  let points =
    Baseline.sweep ~scale:micro
      ~intervals:[ Duration.of_months 1.; Duration.of_months 6. ]
      ~mttfs:[ 0.1 ] ~collections:[ 4 ] ()
  in
  match points with
  | [ fast; slow ] ->
    Alcotest.(check bool) "longer interval worse" true
      (slow.Baseline.access_failure > fast.Baseline.access_failure)
  | _ -> Alcotest.fail "expected two points"

(* -- Report formatting ------------------------------------------------ *)

let test_report_formats () =
  Alcotest.(check string) "sci" "1.50e-03" (Report.sci 0.0015);
  Alcotest.(check string) "sci inf" "inf" (Report.sci infinity);
  Alcotest.(check string) "ratio" "2.61" (Report.ratio 2.614);
  Alcotest.(check string) "days" "90d" (Report.days (Duration.of_days 90.));
  Alcotest.(check string) "months" "3.0mo" (Report.months (Duration.of_months 3.));
  Alcotest.(check string) "pct" "30%" (Report.pct 0.3)

let test_tables_render () =
  let points =
    [
      {
        Grid.coverage = 0.5;
        duration = Duration.of_days 10.;
        access_failure = 1e-4;
        delay_ratio = 1.5;
        friction = 2.0;
      };
    ]
  in
  List.iter
    (fun table ->
      Alcotest.(check bool) "renders" true
        (String.length (Repro_prelude.Table.render table) > 0))
    (List.map
       (fun measure -> Grid.table measure points)
       [ Grid.access_failure; Grid.delay_ratio; Grid.friction ])

let () =
  let quick name f = Alcotest.test_case name `Quick f in
  let slow name f = Alcotest.test_case name `Slow f in
  Alcotest.run "experiments"
    [
      ( "scenario",
        [
          quick "config of scale" test_config_of_scale;
          quick "deterministic" test_run_deterministic;
          quick "averaging" test_sweep_averages;
          quick "probes never perturb a run" test_probes_never_perturb;
          quick "failed output open leaks nothing" test_failed_open_leaks_nothing;
          quick "report profile" test_report_profile;
          quick "run outputs pinned" test_outputs_pinned;
          quick "aggregation" test_mean_summaries_aggregation;
          quick "identity ratios" test_ratios_baseline_is_one;
          slow "infinite ratios" test_ratios_infinite_when_no_successes;
        ] );
      ( "shapes",
        [
          slow "fig3 coverage monotone" test_fig3_shape_coverage_monotone;
          slow "fig3 duration monotone" test_fig3_shape_duration_monotone;
          slow "fig6 flood weak" test_fig6_shape_flood_is_weak;
          slow "table1 ordering" test_table1_shape;
          slow "fig2 interval monotone" test_fig2_shape;
        ] );
      ( "report",
        [ quick "formats" test_report_formats; quick "tables render" test_tables_render ] );
    ]
