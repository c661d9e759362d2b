(* Seeded equivalence battery for the population-representation layer.

   Every case below renders a seeded scenario to a byte-exact string
   (summaries, chaos/soak reports, debug-trace digests) and compares its
   MD5 against a pinned golden. The goldens were generated from the
   list-based population representation, so any compact-representation
   change that perturbs an RNG draw sequence, a member ordering, or a
   trace line fails here byte-for-byte — this is the lock on the
   "summaries and traces identical at paper scale" contract.

   Regenerate (only when behaviour is MEANT to change) with:

     GOLDEN_REGEN=$PWD/test/goldens/scale_equivalence.golden \
       dune exec test/test_scale_equivalence.exe
*)

module Duration = Repro_prelude.Duration
module Scenario = Experiments.Scenario
module Chaos = Experiments.Chaos
module Soak = Experiments.Soak
module Runner = Experiments.Runner

(* Under [dune runtest] the cwd is _build/default/test (the goldens are
   declared as test deps); under [dune exec] from the workspace root it
   is the root itself. *)
let golden_file =
  List.find Sys.file_exists
    [ "goldens/scale_equivalence.golden"; "test/goldens/scale_equivalence.golden" ]

(* Paper scale, shortened horizon: 100 peers x 50 AUs is the population
   the acceptance criterion names; 0.1 years keeps the battery fast
   while still completing several poll generations per AU. *)
let paper_short = { Scenario.paper with Scenario.years = 0.1; runs = 2 }

let digest s = Digest.to_hex (Digest.string s)

let summary_string s = Format.asprintf "%a" Lockss.Metrics.pp_summary s

(* [traced_run ~cfg ~seed ~years attack] runs with a Debug report and
   returns the result and the digest of its trace's JSONL rendering. *)
let traced_run ~cfg ~seed ~years attack =
  Trace_gen.with_report_dir (fun dir ->
      let probes =
        {
          Scenario.default_probes with
          Scenario.report = Some dir;
          trace_level = Lockss.Trace.Debug;
        }
      in
      let r = Scenario.run ~probes ~cfg ~seed ~years attack in
      let trace = Filename.concat dir (Printf.sprintf "seed%d/trace.ntrace" seed) in
      (r, digest (Trace_gen.jsonl trace)))

(* -- Cases --------------------------------------------------------------- *)

(* Serial paper-scale run with a full debug trace: the trace digest pins
   event ordering, reference-list member order (Poll_sampled carries the
   whole reference list) and every payload byte. *)
let case_run_trace () =
  let cfg = Scenario.config paper_short in
  let r, trace_digest = traced_run ~cfg ~seed:1 ~years:0.05 Scenario.No_attack in
  summary_string r.Scenario.summary ^ "\ntrace:" ^ trace_digest

(* The same multi-run sweep with 1 and 2 worker domains must agree with
   each other and with the pinned golden (the Runner determinism
   contract, re-checked here because the compact structures are shared
   nowhere but must not accidentally become shared). *)
let case_run_parallel () =
  let cfg = Scenario.config paper_short in
  let sweep jobs =
    Runner.map ~jobs
      (fun i ->
        summary_string
          (Scenario.run ~cfg ~seed:(1 + i) ~years:paper_short.Scenario.years
             Scenario.No_attack)
            .Scenario.summary)
      (List.init paper_short.Scenario.runs Fun.id)
  in
  let serial = sweep 1 in
  let parallel = sweep 2 in
  if serial <> parallel then
    Alcotest.fail "serial and parallel sweeps disagree before golden check";
  String.concat "\n---\n" serial

(* Partial AU coverage drives the sparse holder-assignment path (each AU
   holds on a sampled subset instead of everyone). *)
let case_run_sparse_holdings () =
  let cfg = { (Scenario.config paper_short) with Lockss.Config.au_coverage = 0.5 } in
  summary_string (Scenario.run ~cfg ~seed:2 ~years:0.1 Scenario.No_attack).Scenario.summary

(* Dormant nodes join the identity space (and consume setup RNG draws)
   without participating until activated; the representation must keep
   them out of holder iteration exactly as the matrix did. *)
let case_run_dormant () =
  let cfg = Scenario.config { Scenario.bench with Scenario.years = 0.5 } in
  let population = Lockss.Population.create ~seed:5 ~dormant:5 cfg in
  Lockss.Population.run population ~until:(Duration.of_years 0.5);
  summary_string (Lockss.Population.summary population)

(* An admission-flood attack exercises nomination, admission dedup and
   the introduction machinery — the hot paths the refactor touches. *)
let case_run_attack () =
  let cfg = Scenario.config Scenario.bench in
  let attack =
    Scenario.Admission_flood
      {
        coverage = 0.5;
        duration = Duration.of_days 90.;
        recuperation = Duration.of_days 30.;
        rate = 4.;
      }
  in
  summary_string (Scenario.run ~cfg ~seed:3 ~years:1.0 attack).Scenario.summary

(* Chaos at paper scale: the paired faulted/fault-free comparison plus
   every invariant check verdict, rendered through the chaos report
   printer. *)
let case_chaos () =
  let report =
    Chaos.run ~scale:{ paper_short with Scenario.seed = 4 } Chaos.default_mix
  in
  Format.asprintf "%a" Chaos.pp_report report

(* Soak at paper scale, two seeds: pins per-seed poll counts, rejection
   histograms and auditor verdicts as JSON. *)
let case_soak () =
  let report =
    Soak.run ~scale:paper_short ~seeds:[ 1; 2 ] Chaos.default_mix
  in
  Obs.Json.to_string (Soak.report_json report)

(* -- Per-attack battery ------------------------------------------------- *)

(* Every [Scenario.attack] shape at micro scale, fault-free and under
   the chaos mix. Each case pins the summary, the adversary's counters
   and the digest of the run's Debug trace: the summary alone would miss
   two adversary draws swapped within one event. *)
let micro =
  {
    Scenario.peers = 15;
    aus = 2;
    quorum = 4;
    max_disagree = 1;
    outer_circle = 4;
    reference_target = 12;
    years = 0.5;
    runs = 1;
    seed = 5;
  }

let stoppage =
  Scenario.Pipe_stoppage
    { coverage = 0.5; duration = Duration.of_days 30.; recuperation = Duration.of_days 30. }

let brute strategy = Scenario.Brute_force { strategy; rate = 5.; identities = 50 }

let vote_flood = Scenario.Vote_flood { rate = 10. }

let attacks =
  [
    ("stoppage", stoppage);
    ( "flood",
      Scenario.Admission_flood
        {
          coverage = 0.5;
          duration = Duration.of_days 30.;
          recuperation = Duration.of_days 30.;
          rate = 24.;
        } );
    ("vote-flood", vote_flood);
    ("brute-intro", brute Adversary.Brute_force.Intro);
    ("brute-remaining", brute Adversary.Brute_force.Remaining);
    ("brute-none", brute Adversary.Brute_force.Full);
    ( "subversion-aggressive",
      Scenario.Subversion { fraction = 0.3; strategy = Adversary.Subversion.Aggressive } );
    ( "subversion-patient",
      Scenario.Subversion { fraction = 0.3; strategy = Adversary.Subversion.Patient } );
    ("reciprocity", Scenario.Reciprocity { fraction = 0.3; rate = 5. });
    ( "combined",
      Scenario.Combined [ stoppage; brute Adversary.Brute_force.Full; vote_flood ] );
  ]

let case_attack ~faults attack () =
  let base = Scenario.config micro in
  let cfg =
    if faults then
      { base with Lockss.Config.faults = Some (Chaos.faults_config Chaos.default_mix) }
    else base
  in
  let r, trace_digest =
    traced_run ~cfg ~seed:micro.Scenario.seed ~years:micro.Scenario.years attack
  in
  String.concat "\n"
    ((summary_string r.Scenario.summary
     :: List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v) r.Scenario.adversary)
    @ [ "trace:" ^ trace_digest ])

let attack_cases =
  List.concat_map
    (fun (name, attack) ->
      [
        ("attack-" ^ name, case_attack ~faults:false attack);
        ("attack-" ^ name ^ "-chaos", case_attack ~faults:true attack);
      ])
    attacks

let cases =
  [
    ("run-trace", case_run_trace);
    ("run-parallel", case_run_parallel);
    ("run-sparse-holdings", case_run_sparse_holdings);
    ("run-dormant", case_run_dormant);
    ("run-attack", case_run_attack);
    ("chaos", case_chaos);
    ("soak", case_soak);
  ]
  @ attack_cases

(* -- Golden plumbing ----------------------------------------------------- *)

let load_goldens path =
  In_channel.with_open_text path (fun ic ->
      let rec go acc =
        match In_channel.input_line ic with
        | None -> List.rev acc
        | Some line ->
          (match String.index_opt line '=' with
          | Some i ->
            go
              ((String.sub line 0 i,
                String.sub line (i + 1) (String.length line - i - 1))
              :: acc)
          | None -> go acc)
      in
      go [])

let regen path =
  let only =
    match Sys.getenv_opt "GOLDEN_ONLY" with
    | None | Some "" -> fun _ -> true
    | Some names ->
      let names = String.split_on_char ',' names in
      fun name -> List.mem name names
  in
  Out_channel.with_open_text path (fun oc ->
      List.iter
        (fun (name, case) ->
          if only name then begin
            let t0 = Unix.gettimeofday () in
            let d = digest (case ()) in
            Printf.fprintf oc "%s=%s\n" name d;
            Printf.printf "%s=%s (%.1fs)\n%!" name d (Unix.gettimeofday () -. t0)
          end)
        cases)

let check_case goldens name case () =
  match List.assoc_opt name goldens with
  | None -> Alcotest.fail (Printf.sprintf "no golden pinned for %s" name)
  | Some expected ->
    let actual = case () in
    let actual_digest = digest actual in
    if actual_digest <> expected then
      Alcotest.fail
        (Printf.sprintf
           "golden mismatch for %s: expected digest %s, got %s\n\
            --- actual output ---\n\
            %s"
           name expected actual_digest actual)

let () =
  match Sys.getenv_opt "GOLDEN_REGEN" with
  | Some path when path <> "" -> regen path
  | _ ->
    let goldens = load_goldens golden_file in
    Alcotest.run "scale_equivalence"
      [
        ( "goldens",
          List.map
            (fun (name, case) ->
              Alcotest.test_case name `Slow (check_case goldens name case))
            cases );
      ]
