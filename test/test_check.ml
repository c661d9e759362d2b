(* The runtime protocol-invariant audit layer (lib/check).

   The load-bearing claims, in order: a fault-free run audits clean; a
   faulted (loss/jitter/duplication/churn) run still audits clean — the
   invariants are conservative, not weather-dependent; every seeded
   mutation trips exactly its target invariant and nothing else; and
   the online checks agree with straightforward reference models on
   random histories. *)

module Duration = Repro_prelude.Duration
module Scenario = Experiments.Scenario
module Chaos = Experiments.Chaos
open Lockss
module Invariant = Check.Invariant
module Auditor = Check.Auditor
module Mutation = Check.Mutation

let micro_scale =
  {
    Scenario.peers = 15;
    aus = 2;
    quorum = 4;
    max_disagree = 1;
    outer_circle = 3;
    reference_target = 8;
    years = 0.25;
    runs = 1;
    seed = 7;
  }

let micro_cfg = Scenario.config micro_scale
let micro_params = Invariant.params_of_config micro_cfg

(* [capture cfg] runs a quarter-year micro simulation recording every
   bus event, exactly what a --trace-level debug file would hold. *)
let capture ?(attack = Scenario.No_attack) ~seed cfg =
  let population = Scenario.build ~cfg ~seed attack in
  let events = ref [] in
  Trace.subscribe (Lockss.Population.trace population) (fun ~time event ->
      events := (time, event) :: !events);
  Lockss.Population.run population ~until:(Duration.of_years micro_scale.Scenario.years);
  (Lockss.Population.summary population, List.rev !events)

let baseline = lazy (capture ~seed:micro_scale.Scenario.seed micro_cfg)

let audit_events ?only events =
  let auditor = Auditor.create ~params:micro_params ?only () in
  List.iter (fun (time, event) -> Auditor.feed auditor ~time event) events;
  Auditor.finish auditor;
  auditor

(* -- Clean runs audit clean --------------------------------------------- *)

let audit = { Scenario.default_probes with Scenario.audit = true }

let test_baseline_run_clean () =
  let { Scenario.violations; _ } =
    Scenario.run ~probes:audit ~cfg:micro_cfg ~seed:3
      ~years:micro_scale.Scenario.years Scenario.No_attack
  in
  Alcotest.(check int) "no violations on a fault-free audited run" 0
    (List.length violations)

let test_attacked_run_clean () =
  (* The invariants police the loyal protocol, not the adversary's
     manners: an attacked run must still audit clean. *)
  let attack =
    Scenario.Admission_flood
      {
        coverage = 1.0;
        duration = Duration.of_days 30.;
        recuperation = Duration.of_days 30.;
        rate = 24.;
      }
  in
  let { Scenario.violations; _ } =
    Scenario.run ~probes:audit ~cfg:micro_cfg ~seed:5
      ~years:micro_scale.Scenario.years attack
  in
  Alcotest.(check int) "no violations under admission flood" 0 (List.length violations)

let test_faulted_run_clean () =
  let cfg =
    { micro_cfg with Config.faults = Some (Chaos.faults_config Chaos.default_mix) }
  in
  let { Scenario.violations; _ } =
    Scenario.run ~probes:audit ~cfg ~seed:11 ~years:micro_scale.Scenario.years
      Scenario.No_attack
  in
  Alcotest.(check int) "no violations under loss/jitter/dup/churn" 0
    (List.length violations)

let test_offline_matches_live () =
  let summary, events = Lazy.force baseline in
  let auditor = Auditor.create ~params:micro_params () in
  List.iter (fun (time, event) -> Auditor.feed auditor ~time event) events;
  Auditor.finish ~metrics:summary auditor;
  Alcotest.(check int) "captured baseline replays clean, conservation included" 0
    (Auditor.violation_count auditor)

(* -- Mutation self-tests ------------------------------------------------ *)

(* Each seeded mutation must make its target invariant fire — and only
   that invariant, so one planted bug cannot hide behind a cascade. *)
let test_mutations_trip_their_invariant () =
  let _, events = Lazy.force baseline in
  List.iter
    (fun m ->
      match Mutation.apply ~params:micro_params ~id:m.Mutation.id events with
      | Error msg ->
        Alcotest.failf "mutation %s not applicable to the baseline: %s" m.Mutation.id msg
      | Ok mutated ->
        let auditor = audit_events mutated in
        let violations = Auditor.violations auditor in
        Alcotest.(check int)
          (Printf.sprintf "%s raises exactly one violation" m.Mutation.id)
          1 (List.length violations);
        List.iter
          (fun v ->
            Alcotest.(check string)
              (Printf.sprintf "%s trips only %s" m.Mutation.id m.Mutation.target)
              m.Mutation.target v.Invariant.invariant)
          violations)
    Mutation.all

let test_unknown_mutation_rejected () =
  match Mutation.apply ~params:micro_params ~id:"no-such-mutation" [] with
  | Ok _ -> Alcotest.fail "unknown mutation id must be rejected"
  | Error _ -> ()

let test_conservation_fires_on_perturbed_summary () =
  (* Conservation is the one invariant a trace mutation cannot seed (it
     compares the trace against the run's metrics), so perturb the
     metrics side instead. *)
  let summary, events = Lazy.force baseline in
  let auditor = Auditor.create ~params:micro_params () in
  List.iter (fun (time, event) -> Auditor.feed auditor ~time event) events;
  Auditor.finish
    ~metrics:
      { summary with Metrics.loyal_effort = summary.Metrics.loyal_effort +. 1000. }
    auditor;
  let violations = Auditor.violations auditor in
  Alcotest.(check int) "perturbed summary raises exactly one violation" 1
    (List.length violations);
  List.iter
    (fun v ->
      Alcotest.(check string) "the violation is conservation" "conservation"
        v.Invariant.invariant)
    violations

(* -- Live attachment ---------------------------------------------------- *)

let test_attach_reemits_without_looping () =
  let bus = Trace.create () in
  let auditor = Auditor.create ~params:micro_params ~only:[ "refractory" ] () in
  Auditor.attach auditor bus;
  let reported = ref 0 in
  Trace.subscribe bus (fun ~time:_ event ->
      match event with Trace.Invariant_violated _ -> incr reported | _ -> ());
  let admit now =
    Trace.emit bus ~now (fun () ->
        Trace.Invitation_admitted
          { voter = 1; claimed = 2; au = 0; poll_id = None; path = Trace.Admitted_unknown })
  in
  admit 0.;
  admit (0.1 *. micro_params.Invariant.refractory_period);
  Alcotest.(check int) "one violation collected" 1 (Auditor.violation_count auditor);
  Alcotest.(check int) "one invariant_violated event re-emitted on the bus" 1 !reported

(* -- Reference-model unit checks ---------------------------------------- *)

let admitted ?(voter = 1) ?(claimed = 2) ?(path = Trace.Admitted_unknown) () =
  Trace.Invitation_admitted { voter; claimed; au = 0; poll_id = None; path }

let test_grade_decay_touches_reset () =
  let d = micro_params.Invariant.decay_period in
  let known g = Trace.Admitted_known g in
  (* Same grade inside one decay step: clean. *)
  let a =
    audit_events ~only:[ "grade-decay" ]
      [ (0., admitted ~path:(known Grade.Even) ()); (0.5 *. d, admitted ~path:(known Grade.Even) ()) ]
  in
  Alcotest.(check int) "steady grade is clean" 0 (Auditor.violation_count a);
  (* A climb with no touch in between: violation. *)
  let a =
    audit_events ~only:[ "grade-decay" ]
      [ (0., admitted ~path:(known Grade.Even) ()); (0.5 *. d, admitted ~path:(known Grade.Credit) ()) ]
  in
  Alcotest.(check int) "untouched climb fires" 1 (Auditor.violation_count a);
  (* The observer voting for the subject legitimately rewrites the
     entry, so a later climb is not a violation. *)
  let a =
    audit_events ~only:[ "grade-decay" ]
      [
        (0., admitted ~path:(known Grade.Even) ());
        (1., Trace.Vote_sent { voter = 1; poller = 2; au = 0; poll_id = 9 });
        (2., admitted ~path:(known Grade.Credit) ());
      ]
  in
  Alcotest.(check int) "own vote resets the baseline" 0 (Auditor.violation_count a);
  (* The subject voting in the observer's poll raises its grade when the
     poll concludes — also a legitimate rewrite. *)
  let a =
    audit_events ~only:[ "grade-decay" ]
      [
        (0., admitted ~voter:1 ~claimed:3 ~path:(known Grade.Even) ());
        (1., Trace.Vote_sent { voter = 3; poller = 1; au = 0; poll_id = 9 });
        ( 2.,
          Trace.Poll_concluded { poller = 1; au = 0; poll_id = 9; outcome = Metrics.Success }
        );
        (3., admitted ~voter:1 ~claimed:3 ~path:(known Grade.Credit) ());
      ]
  in
  Alcotest.(check int) "concluded vote resets the baseline" 0
    (Auditor.violation_count a)

(* -- QCheck model batteries --------------------------------------------- *)

(* Random admission histories on one supplier: the auditor must flag
   exactly the gaps a direct reading of the rule flags. Integer gaps
   keep the comparison away from the epsilon band. *)
let prop_refractory_matches_model =
  QCheck2.Test.make ~name:"refractory agrees with the gap model on random histories"
    ~count:200
    QCheck2.Gen.(list_size (int_range 1 40) (int_range 0 250))
    (fun gaps ->
      let period = 100. in
      let params =
        { micro_params with Invariant.refractory_period = period; admission_control = true }
      in
      let auditor = Auditor.create ~params ~only:[ "refractory" ] () in
      (* the first admission has no predecessor, so only the gaps
         between consecutive admissions — the tail — can violate *)
      let expected =
        List.length
          (List.filter
             (fun g -> float_of_int g < period)
             (match gaps with [] -> [] | _ :: tl -> tl))
      in
      let _ =
        List.fold_left
          (fun now gap ->
            let now = now +. float_of_int gap in
            Auditor.feed auditor ~time:now (admitted ());
            now)
          0. gaps
      in
      Auditor.finish auditor;
      Auditor.violation_count auditor = expected)

type effort_op = Charge of float | Receive of float | Vote

(* Random charge/receive/vote interleavings on one account: the online
   check must agree with a direct fold over the same history. *)
let prop_effort_balance_matches_model =
  let gen_op =
    QCheck2.Gen.(
      frequency
        [
          (3, map (fun s -> Charge s) (float_range 0.1 10.));
          (2, map (fun s -> Receive s) (float_range 0.1 30.));
          (1, pure Vote);
        ])
  in
  QCheck2.Test.make ~name:"effort-balance agrees with the ledger model on random histories"
    ~count:200
    QCheck2.Gen.(list_size (int_range 1 50) gen_op)
    (fun ops ->
      let auditor = Auditor.create ~params:micro_params ~only:[ "effort-balance" ] () in
      let tol = micro_params.Invariant.tolerance in
      let charged = ref 0. and received = ref 0. in
      let expected = ref 0 in
      let breaks () = !charged -. !received > tol *. Float.max 1. !received in
      List.iteri
        (fun i op ->
          let time = float_of_int i in
          match op with
          | Charge s ->
            charged := !charged +. s;
            Auditor.feed auditor ~time
              (Trace.Effort_charged
                 {
                   peer = 1;
                   role = Trace.Loyal;
                   phase = Trace.Voting;
                   poller = Some 2;
                   au = Some 0;
                   poll_id = Some 7;
                   seconds = s;
                 })
          | Receive s ->
            received := !received +. s;
            if breaks () then incr expected;
            Auditor.feed auditor ~time
              (Trace.Effort_received
                 {
                   peer = 1;
                   from_ = 2;
                   phase = Trace.Solicitation;
                   au = 0;
                   poll_id = 7;
                   seconds = s;
                 })
          | Vote ->
            if breaks () then incr expected;
            Auditor.feed auditor ~time
              (Trace.Vote_sent { voter = 1; poller = 2; au = 0; poll_id = 7 }))
        ops;
      Auditor.finish auditor;
      Auditor.violation_count auditor = !expected)

let () =
  Alcotest.run "check"
    [
      ( "clean runs",
        [
          Alcotest.test_case "fault-free audited run" `Quick test_baseline_run_clean;
          Alcotest.test_case "attacked audited run" `Quick test_attacked_run_clean;
          Alcotest.test_case "faulted audited run" `Quick test_faulted_run_clean;
          Alcotest.test_case "offline replay with conservation" `Quick
            test_offline_matches_live;
        ] );
      ( "mutation self-tests",
        [
          Alcotest.test_case "each mutation trips exactly its invariant" `Quick
            test_mutations_trip_their_invariant;
          Alcotest.test_case "unknown mutation rejected" `Quick
            test_unknown_mutation_rejected;
          Alcotest.test_case "conservation fires on a perturbed summary" `Quick
            test_conservation_fires_on_perturbed_summary;
        ] );
      ( "live attachment",
        [
          Alcotest.test_case "re-emission without feedback loops" `Quick
            test_attach_reemits_without_looping;
        ] );
      ( "reference models",
        [
          Alcotest.test_case "grade decay touch semantics" `Quick
            test_grade_decay_touches_reset;
          QCheck_alcotest.to_alcotest prop_refractory_matches_model;
          QCheck_alcotest.to_alcotest prop_effort_balance_matches_model;
        ] );
    ]
