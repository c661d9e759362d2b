(* Tests for the Section 9 (future work) extensions: adaptive acceptance,
   population churn, combined adversary strategies. *)

module Duration = Repro_prelude.Duration
open Experiments

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

(* -- Adaptive acceptance ----------------------------------------------- *)

let test_adaptive_acceptance_shifts_costs () =
  match Extensions.adaptive_acceptance ~scale:micro () with
  | [ fixed; adaptive ] ->
    Alcotest.(check bool) "rows labelled correctly" true
      ((not fixed.Extensions.adaptive) && adaptive.Extensions.adaptive);
    (* Adaptive acceptance pushes back on the vote-extraction attack:
       friction must not rise, and the attacker's cost ratio must not
       fall. *)
    Alcotest.(check bool) "friction no worse" true
      (adaptive.Extensions.friction <= fixed.Extensions.friction +. 0.01);
    Alcotest.(check bool) "attacker pays at least as much per unit" true
      (adaptive.Extensions.cost_ratio >= fixed.Extensions.cost_ratio -. 0.01);
    (* And it must not break the loyal workload. *)
    Alcotest.(check bool) "polls keep succeeding" true
      (adaptive.Extensions.polls_succeeded > (fixed.Extensions.polls_succeeded * 9) / 10)
  | _ -> Alcotest.fail "expected two rows"

let test_adaptive_acceptance_idle_is_transparent () =
  (* An idle voter must accept as if the feature were off. *)
  let cfg =
    {
      (Scenario.config micro) with
      Lockss.Config.adaptive_acceptance = true;
    }
  in
  let on = (Scenario.run ~cfg ~seed:3 ~years:1. Scenario.No_attack).Scenario.summary in
  let off =
    (Scenario.run
       ~cfg:{ cfg with Lockss.Config.adaptive_acceptance = false }
       ~seed:3 ~years:1. Scenario.No_attack)
      .Scenario.summary
  in
  (* At this light load the busyness signal is small, so outcomes are
     near-identical. *)
  Alcotest.(check bool) "similar success counts" true
    (abs (on.Lockss.Metrics.polls_succeeded - off.Lockss.Metrics.polls_succeeded)
    <= off.Lockss.Metrics.polls_succeeded / 20)

(* -- Churn --------------------------------------------------------------- *)

let test_dormant_peers_stay_silent () =
  let cfg = Scenario.config micro in
  let population = Lockss.Population.create ~seed:5 ~dormant:3 cfg in
  Alcotest.(check int) "dormant count" 3
    (List.length (Lockss.Population.dormant_nodes population));
  Alcotest.(check int) "active count" micro.Scenario.peers
    (List.length (Lockss.Population.loyal_nodes population));
  Lockss.Population.run population ~until:(Duration.of_months 6.);
  let ctx = Lockss.Population.ctx population in
  List.iter
    (fun node ->
      Alcotest.(check int) "dormant peer called no polls" 0
        (Lockss.Metrics.successes_of ctx.Lockss.Peer.metrics node))
    (Lockss.Population.dormant_nodes population)

let test_activation_brings_peer_online () =
  let cfg = Scenario.config micro in
  let population = Lockss.Population.create ~seed:5 ~dormant:1 cfg in
  let node = List.hd (Lockss.Population.dormant_nodes population) in
  Lockss.Population.run population ~until:(Duration.of_months 3.);
  Lockss.Population.activate population ~node;
  Alcotest.(check (list int)) "no dormant peers left" []
    (Lockss.Population.dormant_nodes population);
  Lockss.Population.run population ~until:(Duration.of_years 1.5);
  let ctx = Lockss.Population.ctx population in
  Alcotest.(check bool) "newcomer completes polls" true
    (Lockss.Metrics.successes_of ctx.Lockss.Peer.metrics node > 0)

let test_churn_newcomers_integrate () =
  let c = Extensions.churn ~scale:micro ~joiners:4 () in
  Alcotest.(check int) "joiners" 4 c.Extensions.joiners;
  Alcotest.(check bool) "incumbents keep auditing" true
    (c.Extensions.incumbent_success_rate > 3.0);
  (* Newcomers must reach a substantial fraction of the incumbent audit
     rate — discovery, introductions and the friends list integrate them. *)
  Alcotest.(check bool) "newcomers integrate" true
    (c.Extensions.newcomer_success_rate > 0.5 *. c.Extensions.incumbent_success_rate)

(* -- Collection diversity ------------------------------------------------ *)

let test_diversity_preserves_audit_rate () =
  match Extensions.diversity ~scale:micro ~coverages:[ 1.0; 0.7 ] () with
  | [ full; partial ], [] ->
    Alcotest.(check bool) "fewer replicas at lower coverage" true
      (partial.Extensions.replicas < full.Extensions.replicas);
    (* Polls still conclude at the fixed cadence on the replicas held. *)
    let interval = (Scenario.config micro).Lockss.Config.inter_poll_interval in
    Alcotest.(check bool) "cadence preserved" true
      (Float.abs (partial.Extensions.mean_gap -. interval) < 0.15 *. interval);
    (* Success volume scales with the replica count, not worse. *)
    let rate (r : Extensions.diversity_row) =
      float_of_int r.Extensions.polls_succeeded /. float_of_int r.Extensions.replicas
    in
    Alcotest.(check bool) "per-replica success rate holds" true
      (rate partial > 0.85 *. rate full)
  | _ -> Alcotest.fail "expected two rows"

let test_diversity_drops_invalid_coverage () =
  (* At the smoke scale (what [extensions --peers 15 --aus 2 --quorum 4
     --years 1 --seed 5] builds) coverage 0.5 leaves round(7.5) = 8
     holders per AU, not more than the inner circle of 2 x 4: that
     coverage is dropped with the validator's reason, not raised. *)
  let scale =
    { micro with Scenario.outer_circle = 4; reference_target = 12; years = 1.; seed = 5 }
  in
  let rows, dropped = Extensions.diversity ~scale () in
  Alcotest.(check (list (float 0.))) "valid coverages run" [ 1.0; 0.75 ]
    (List.map (fun (r : Extensions.diversity_row) -> r.Extensions.coverage) rows);
  match dropped with
  | [ (coverage, reason) ] ->
    Alcotest.(check (float 0.)) "coverage 0.5 dropped" 0.5 coverage;
    Alcotest.(check bool) "reason names au_coverage" true
      (String.length reason > 0 && String.starts_with ~prefix:"Config: au_coverage" reason)
  | _ -> Alcotest.fail "expected exactly one dropped coverage"

let test_diversity_rejects_too_sparse () =
  let cfg = { (Scenario.config micro) with Lockss.Config.au_coverage = 0.2 } in
  Alcotest.(check bool) "holders below inner circle rejected" true
    (try
       ignore (Lockss.Population.create ~seed:1 cfg);
       false
     with Invalid_argument _ -> true)

let test_non_holders_ignore_polls () =
  let cfg = { (Scenario.config micro) with Lockss.Config.au_coverage = 0.7 } in
  let population = Lockss.Population.create ~seed:8 cfg in
  let ctx = Lockss.Population.ctx population in
  (* Find a (peer, au) the peer does not hold and solicit it directly. *)
  let exception Found of Lockss.Peer.t * Lockss.Peer.au_state in
  (try
     Array.iter
       (fun (peer : Lockss.Peer.t) ->
         Array.iter
           (fun (st : Lockss.Peer.au_state) ->
             if not st.Lockss.Peer.held then raise (Found (peer, st)))
           peer.Lockss.Peer.aus)
       ctx.Lockss.Peer.peers;
     Alcotest.fail "expected at least one non-held replica"
   with Found (peer, st) ->
     Lockss.Voter.on_poll ctx peer ~src:1 ~identity:1 ~au:st.Lockss.Peer.au ~poll_id:9
       ~intro:(Effort.Proof.forged ~claimed_cost:1.);
     Alcotest.(check int) "no session for unheld AU" 0
       (Lockss.Peer.Session_tbl.length peer.Lockss.Peer.voter_sessions))

(* -- Combined attacks ---------------------------------------------------- *)

let test_combined_attack_composes () =
  match Extensions.combined ~scale:micro () with
  | [ stoppage; brute; combined ] ->
    Alcotest.(check bool) "combined friction at least the worst component" true
      (combined.Extensions.friction
      >= Float.max stoppage.Extensions.friction brute.Extensions.friction -. 0.01);
    Alcotest.(check bool) "combined delay at least the worst component" true
      (combined.Extensions.delay_ratio
      >= Float.max stoppage.Extensions.delay_ratio brute.Extensions.delay_ratio -. 0.01)
  | _ -> Alcotest.fail "expected three rows"

let test_combined_allocates_disjoint_minions () =
  (* Two effortful sub-attacks need 10 minions in total; the scenario
     runner must allocate them without clashing. *)
  let cfg = Scenario.config micro in
  let attack =
    Scenario.Combined
      [
        Scenario.Admission_flood
          {
            coverage = 1.0;
            duration = Duration.of_days 60.;
            recuperation = Duration.of_days 30.;
            rate = 4.;
          };
        Scenario.Brute_force
          { strategy = Adversary.Brute_force.Full; rate = 5.; identities = 10 };
      ]
  in
  let summary = (Scenario.run ~cfg ~seed:4 ~years:0.5 attack).Scenario.summary in
  Alcotest.(check bool) "system still runs" true (summary.Lockss.Metrics.polls_succeeded > 0);
  Alcotest.(check bool) "effortful component charged" true
    (summary.Lockss.Metrics.adversary_effort > 0.)

let () =
  let quick name f = Alcotest.test_case name `Quick f in
  let slow name f = Alcotest.test_case name `Slow f in
  Alcotest.run "extensions"
    [
      ( "adaptive acceptance",
        [
          slow "shifts costs to the attacker" test_adaptive_acceptance_shifts_costs;
          quick "transparent when idle" test_adaptive_acceptance_idle_is_transparent;
        ] );
      ( "churn",
        [
          quick "dormant peers stay silent" test_dormant_peers_stay_silent;
          slow "activation works" test_activation_brings_peer_online;
          slow "newcomers integrate" test_churn_newcomers_integrate;
        ] );
      ( "collection diversity",
        [
          slow "audit rate preserved" test_diversity_preserves_audit_rate;
          quick "too sparse rejected" test_diversity_rejects_too_sparse;
          quick "invalid coverage dropped" test_diversity_drops_invalid_coverage;
          quick "non-holders ignore polls" test_non_holders_ignore_polls;
        ] );
      ( "combined attacks",
        [
          slow "effects compose" test_combined_attack_composes;
          quick "disjoint minions" test_combined_allocates_disjoint_minions;
        ] );
    ]
