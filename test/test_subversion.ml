(* Tests for the content-subversion (stealth) adversary and the retained
   defenses against it: bimodal landslide outcomes, sampling, friend
   bias. *)

module Duration = Repro_prelude.Duration
open Lockss

let cfg =
  {
    Config.default with
    Config.loyal_peers = 25;
    aus = 2;
    quorum = 5;
    max_disagree = 1;
    outer_circle_size = 5;
    reference_list_target = 12;
    disk_mttf_years = 1e6;  (* isolate adversary effects from bit rot *)
  }

let run ~fraction ~strategy ~years =
  let population = Population.create ~seed:11 cfg in
  let attack = Adversary.Subversion.attach population ~fraction ~strategy in
  Population.run population ~until:(Duration.of_years years);
  (attack, Population.summary population)

let test_minion_selection () =
  let population = Population.create ~seed:11 cfg in
  let attack =
    Adversary.Subversion.attach population ~fraction:0.2
      ~strategy:Adversary.Subversion.Aggressive
  in
  Alcotest.(check int) "rounded fraction" 5 (Adversary.Subversion.minion_count attack);
  List.iter
    (fun node ->
      Alcotest.(check bool) "minions are loyal nodes" true
        (node >= 0 && node < cfg.Config.loyal_peers))
    (Adversary.Subversion.minion_nodes attack)

let test_invalid_fraction () =
  let population = Population.create ~seed:11 cfg in
  Alcotest.(check bool) "fraction 0 rejected" true
    (try
       ignore
         (Adversary.Subversion.attach population ~fraction:0.
            ~strategy:Adversary.Subversion.Patient);
       false
     with Invalid_argument _ -> true)

let test_aggressive_raises_alarms_not_corruption () =
  let attack, summary = run ~fraction:0.3 ~strategy:Adversary.Subversion.Aggressive ~years:1. in
  (* The bimodal design turns partial infiltration into inconclusive-poll
     alarms... *)
  Alcotest.(check bool) "alarms raised" true (summary.Metrics.polls_alarmed > 20);
  Alcotest.(check bool) "corrupt votes cast" true
    (Adversary.Subversion.corrupt_votes attack > 100);
  (* ...but essentially never into silently corrupted honest replicas. *)
  Alcotest.(check bool) "no stealth corruption" true
    (Adversary.Subversion.corrupted_replicas attack <= 1)

let test_patient_minority_lurks () =
  let attack, summary = run ~fraction:0.1 ~strategy:Adversary.Subversion.Patient ~years:1. in
  (* With desynchronized solicitation, a 10% minority never accumulates
     the co-invitation evidence it waits for. *)
  Alcotest.(check int) "no corrupt votes" 0 (Adversary.Subversion.corrupt_votes attack);
  Alcotest.(check int) "no corrupt repairs" 0 (Adversary.Subversion.corrupt_repairs attack);
  Alcotest.(check int) "no alarms" 0 summary.Metrics.polls_alarmed;
  Alcotest.(check int) "no corruption" 0 (Adversary.Subversion.corrupted_replicas attack)

let test_lurking_minions_preserve_service () =
  let _, with_attack = run ~fraction:0.1 ~strategy:Adversary.Subversion.Patient ~years:1. in
  let baseline = Population.create ~seed:11 cfg in
  Population.run baseline ~until:(Duration.of_years 1.);
  let without = Population.summary baseline in
  (* A lurking minority is indistinguishable from loyal peers. *)
  Alcotest.(check bool) "successes comparable" true
    (with_attack.Metrics.polls_succeeded > (without.Metrics.polls_succeeded * 9) / 10)

let test_corruption_is_self_healing () =
  (* Even when an aggressive supermajority lands a corrupt repair, later
     polls dominated by honest voters repair it back. *)
  let population = Population.create ~seed:13 cfg in
  let attack =
    Adversary.Subversion.attach population ~fraction:0.4
      ~strategy:Adversary.Subversion.Aggressive
  in
  Population.run population ~until:(Duration.of_years 2.);
  let corrupted_end = Adversary.Subversion.corrupted_replicas attack in
  let served = Adversary.Subversion.corrupt_repairs attack in
  Alcotest.(check bool) "endemic corruption does not accumulate" true
    (corrupted_end <= max 2 (served / 2))

let test_operator_answers_alarms () =
  (* With the operator model enabled, alarms lead to out-of-band audits
     that restore replicas — closing the loop the paper assigns to
     "attention from a human operator". *)
  let cfg_op = { cfg with Config.operator_response_time = Duration.of_days 7. } in
  let population = Population.create ~seed:13 cfg_op in
  let attack =
    Adversary.Subversion.attach population ~fraction:0.4
      ~strategy:Adversary.Subversion.Aggressive
  in
  Population.run population ~until:(Duration.of_years 2.);
  let s = Population.summary population in
  Alcotest.(check bool) "alarms were raised" true (s.Metrics.polls_alarmed > 50);
  Alcotest.(check int) "no corruption outlives the operator" 0
    (Adversary.Subversion.corrupted_replicas attack)

let test_alarms_scale_with_infiltration () =
  let _, low = run ~fraction:0.1 ~strategy:Adversary.Subversion.Aggressive ~years:1. in
  let _, high = run ~fraction:0.3 ~strategy:Adversary.Subversion.Aggressive ~years:1. in
  Alcotest.(check bool) "more infiltration, more alarms" true
    (high.Metrics.polls_alarmed > low.Metrics.polls_alarmed)

(* The lock on the retained-defense and grade-recovery experiments: their
   bench-scale tables, rendered, pinned by MD5. Refactoring how those
   sweeps build and run their populations must not move a digit. *)
let test_experiment_tables_pinned () =
  let check name expected table =
    let text = Repro_prelude.Table.render table in
    let actual = Digest.to_hex (Digest.string text) in
    if actual <> expected then
      Alcotest.fail
        (Printf.sprintf "%s table moved: expected MD5 %s, got %s\n%s" name expected
           actual text)
  in
  check "subversion" "f36611ee4d7a25e5e2c31aec73c8b98d"
    Experiments.Subversion_attack.(to_table (sweep ()));
  check "reciprocity" "f32553e98e7af18c3bab7c498a2e7bb0"
    Experiments.Reciprocity_attack.(to_table (sweep ()))

let () =
  let slow name f = Alcotest.test_case name `Slow f in
  let quick name f = Alcotest.test_case name `Quick f in
  Alcotest.run "subversion"
    [
      ( "mechanics",
        [ quick "minion selection" test_minion_selection; quick "invalid fraction" test_invalid_fraction ]
      );
      ( "retained defenses",
        [
          slow "aggressive => alarms, not corruption" test_aggressive_raises_alarms_not_corruption;
          slow "patient minority lurks" test_patient_minority_lurks;
          slow "lurkers preserve service" test_lurking_minions_preserve_service;
          slow "corruption self-heals" test_corruption_is_self_healing;
          slow "alarms scale with infiltration" test_alarms_scale_with_infiltration;
          slow "operator answers alarms" test_operator_answers_alarms;
        ] );
      ("experiments", [ slow "bench-scale tables pinned" test_experiment_tables_pinned ]);
    ]
