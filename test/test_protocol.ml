(* End-to-end protocol tests: whole populations running the audit-and-
   repair protocol over simulated months/years. *)

module Duration = Repro_prelude.Duration
open Lockss

let tiny_cfg =
  {
    Config.default with
    Config.loyal_peers = 15;
    aus = 2;
    quorum = 4;
    max_disagree = 1;
    inner_circle_factor = 2;
    outer_circle_size = 3;
    reference_list_target = 8;
    friends_count = 3;
  }

let run_population ?(cfg = tiny_cfg) ?(seed = 5) ~years () =
  let population = Population.create ~seed cfg in
  Population.run population ~until:(Duration.of_years years);
  population

let test_polls_happen_and_succeed () =
  let population = run_population ~years:1. () in
  let s = Population.summary population in
  (* 15 peers x 2 AUs x ~4 polls/year = ~120 poll slots. *)
  Alcotest.(check bool) "many successes" true (s.Metrics.polls_succeeded > 80);
  Alcotest.(check bool) "failures rare" true
    (s.Metrics.polls_inquorate < s.Metrics.polls_succeeded / 5);
  Alcotest.(check int) "no alarms among honest peers" 0 s.Metrics.polls_alarmed

let test_poll_rate_matches_interval () =
  let population = run_population ~years:2. () in
  let s = Population.summary population in
  let interval = tiny_cfg.Config.inter_poll_interval in
  Alcotest.(check bool) "mean gap within 15% of the inter-poll interval" true
    (Float.abs (s.Metrics.mean_success_gap -. interval) < 0.15 *. interval)

let test_damage_gets_repaired () =
  let population = run_population ~years:2. () in
  let s = Population.summary population in
  (* With MTTF 5y and 2/50 disks per peer over 15 peers x 2 years, some
     damage occurs; polls must detect and repair it. *)
  Alcotest.(check bool) "repairs happened" true (s.Metrics.repairs > 0);
  Alcotest.(check bool) "few replicas damaged at the end" true
    (Population.damaged_replicas population <= 1);
  Alcotest.(check bool) "access failure probability small" true
    (s.Metrics.access_failure_probability < 0.01)

let test_determinism () =
  let s1 = Population.summary (run_population ~seed:11 ~years:1. ()) in
  let s2 = Population.summary (run_population ~seed:11 ~years:1. ()) in
  Alcotest.(check int) "same successes" s1.Metrics.polls_succeeded s2.Metrics.polls_succeeded;
  Alcotest.(check (float 1e-12)) "same loyal effort" s1.Metrics.loyal_effort
    s2.Metrics.loyal_effort;
  Alcotest.(check (float 1e-12)) "same afp" s1.Metrics.access_failure_probability
    s2.Metrics.access_failure_probability

let test_seed_changes_results () =
  let s1 = Population.summary (run_population ~seed:11 ~years:1. ()) in
  let s2 = Population.summary (run_population ~seed:12 ~years:1. ()) in
  Alcotest.(check bool) "different seeds diverge" true
    (s1.Metrics.loyal_effort <> s2.Metrics.loyal_effort)

let test_effort_flows_both_roles () =
  let population = run_population ~years:1. () in
  let s = Population.summary population in
  Alcotest.(check bool) "votes supplied" true (s.Metrics.votes_supplied > 0);
  Alcotest.(check bool) "effort charged" true (s.Metrics.loyal_effort > 0.);
  Alcotest.(check (float 0.)) "no adversary effort absent attack" 0. s.Metrics.adversary_effort

let test_higher_damage_rate_more_failures () =
  let fragile = { tiny_cfg with Config.disk_mttf_years = 0.5 } in
  let sturdy = { tiny_cfg with Config.disk_mttf_years = 5.0 } in
  let sf = Population.summary (run_population ~cfg:fragile ~years:2. ()) in
  let ss = Population.summary (run_population ~cfg:sturdy ~years:2. ()) in
  Alcotest.(check bool) "fragile disks fail more" true
    (sf.Metrics.access_failure_probability > ss.Metrics.access_failure_probability)

let test_longer_interval_higher_access_failure () =
  let slow =
    { tiny_cfg with Config.inter_poll_interval = Duration.of_months 6.; disk_mttf_years = 1. }
  in
  let fast =
    { tiny_cfg with Config.inter_poll_interval = Duration.of_months 1.; disk_mttf_years = 1. }
  in
  let s_slow = Population.summary (run_population ~cfg:slow ~years:2. ()) in
  let s_fast = Population.summary (run_population ~cfg:fast ~years:2. ()) in
  Alcotest.(check bool) "slower polling leaves damage undetected longer" true
    (s_slow.Metrics.access_failure_probability > s_fast.Metrics.access_failure_probability)

let test_capacity_overprovisioning_reduces_refusals () =
  (* With heavy per-peer load and capacity 1, schedules refuse work; with
     ample capacity the same workload succeeds more often. *)
  let loaded = { tiny_cfg with Config.aus = 6; capacity = 0.02 } in
  let provisioned = { loaded with Config.capacity = 4.0 } in
  let s_lo = Population.summary (run_population ~cfg:loaded ~years:1. ()) in
  let s_hi = Population.summary (run_population ~cfg:provisioned ~years:1. ()) in
  Alcotest.(check bool) "over-provisioning helps" true
    (s_hi.Metrics.polls_succeeded >= s_lo.Metrics.polls_succeeded)

let test_pipe_stoppage_blocks_polls_then_recovery () =
  (* Manually stop the whole population mid-run and verify polls stall,
     then restore and verify they resume. *)
  let population = Population.create ~seed:3 tiny_cfg in
  Population.run population ~until:(Duration.of_months 6.);
  let mid = Population.summary population in
  let partition = Population.partition population in
  List.iter (Narses.Partition.stop partition) (Population.loyal_nodes population);
  Population.run population ~until:(Duration.of_months 12.);
  let stalled = Population.summary population in
  List.iter (Narses.Partition.restore partition) (Population.loyal_nodes population);
  Population.run population ~until:(Duration.of_months 24.);
  let recovered = Population.summary population in
  let d1 = stalled.Metrics.polls_succeeded - mid.Metrics.polls_succeeded in
  let d2 = recovered.Metrics.polls_succeeded - stalled.Metrics.polls_succeeded in
  Alcotest.(check bool) "stoppage stalls polls" true (d1 < d2 / 4);
  Alcotest.(check bool) "polls resume after restoration" true (d2 > 30)

let test_synchronized_ablation_struggles_under_load () =
  (* The [28] failure mode: synchronous solicitation needs many voters
     free simultaneously. Under tight capacity, the desynchronized
     protocol outperforms it. *)
  let base = { tiny_cfg with Config.aus = 4; capacity = 0.003 } in
  let desync = { base with Config.desynchronized = true } in
  let sync = { base with Config.desynchronized = false } in
  let s_desync = Population.summary (run_population ~cfg:desync ~years:1. ()) in
  let s_sync = Population.summary (run_population ~cfg:sync ~years:1. ()) in
  Alcotest.(check bool) "desynchronization wins decisively under load" true
    (s_desync.Metrics.polls_succeeded > s_sync.Metrics.polls_succeeded * 3 / 2)

let test_layering_validates_against_unlayered () =
  (* The paper's layering technique: "layer n is a simulation of 50 AUs on
     peers already running a realistic workload of 50(n-1) AUs", validated
     against unlayered runs with "negligible differences". We reproduce
     the validation at moderate load: a 4-AU layer on top of a 4-AU
     background behaves like the corresponding AUs of an 8-AU unlayered
     run. *)
  let base = { tiny_cfg with Config.loyal_peers = 25; quorum = 5; max_disagree = 1;
               outer_circle_size = 5; reference_list_target = 12; capacity = 0.01 } in
  let unlayered = { base with Config.aus = 8 } in
  let layered = { base with Config.aus = 4; background_load = 0.48 } in
  let su = Population.summary (run_population ~cfg:unlayered ~years:2. ()) in
  let sl = Population.summary (run_population ~cfg:layered ~years:2. ()) in
  let rate (s : Metrics.summary) aus =
    float_of_int s.Metrics.polls_succeeded /. float_of_int aus
  in
  let ru = rate su 8 and rl = rate sl 4 in
  Alcotest.(check bool) "per-AU success rates within 10%" true
    (Float.abs (ru -. rl) < 0.1 *. ru)

let test_background_load_consumes_schedule () =
  (* A saturating background load starves this layer's polls — the
     over-estimation bias the paper notes for higher layers. *)
  let base = { tiny_cfg with Config.capacity = 0.005 } in
  let free = { base with Config.background_load = 0. } in
  let saturated = { base with Config.background_load = 0.97 } in
  let sf = Population.summary (run_population ~cfg:free ~years:1. ()) in
  let ss = Population.summary (run_population ~cfg:saturated ~years:1. ()) in
  Alcotest.(check bool) "saturation starves the layer" true
    (ss.Metrics.polls_succeeded < sf.Metrics.polls_succeeded / 2)

let test_reader_estimator_matches_integral () =
  (* The empirical read-failure rate is an unbiased estimator of the
     time-averaged damaged fraction. *)
  let cfg =
    { tiny_cfg with Config.loyal_peers = 25; quorum = 5; max_disagree = 1;
      outer_circle_size = 5; reference_list_target = 12;
      disk_mttf_years = 0.05; reads_per_replica_per_day = 2.0 }
  in
  let s = Population.summary (run_population ~cfg ~seed:3 ~years:2. ()) in
  Alcotest.(check bool) "many reads sampled" true (s.Metrics.reads > 50_000);
  Alcotest.(check bool) "estimator within 25% of integral" true
    (Float.abs (s.Metrics.empirical_read_failure -. s.Metrics.access_failure_probability)
    < 0.25 *. s.Metrics.access_failure_probability)

let test_trace_captures_poll_lifecycle () =
  let population = Population.create ~seed:5 tiny_cfg in
  let recorded = ref [] in
  Trace.subscribe (Population.trace population) (fun ~time e ->
      recorded := (time, e) :: !recorded);
  Population.run population ~until:(Duration.of_months 8.);
  let events = List.rev !recorded in
  Alcotest.(check bool) "events recorded" true (List.length events > 100);
  let count p = List.length (List.filter (fun (_, e) -> p e) events) in
  let starts = count (function Trace.Poll_started _ -> true | _ -> false) in
  let conclusions = count (function Trace.Poll_concluded _ -> true | _ -> false) in
  let votes = count (function Trace.Vote_sent _ -> true | _ -> false) in
  Alcotest.(check bool) "polls started" true (starts > 0);
  Alcotest.(check bool) "conclusions do not exceed starts" true (conclusions <= starts);
  Alcotest.(check bool) "votes flowed" true (votes > conclusions);
  (* Times are monotone (the engine delivers events in order). *)
  let monotone =
    List.for_all2
      (fun (a, _) (b, _) -> a <= b)
      (List.filteri (fun i _ -> i < List.length events - 1) events)
      (List.tl events)
  in
  Alcotest.(check bool) "timestamps monotone" true monotone;
  (* The summary agrees with the trace. *)
  let s = Population.summary population in
  Alcotest.(check int) "trace conclusions = metrics conclusions"
    (s.Metrics.polls_succeeded + s.Metrics.polls_inquorate + s.Metrics.polls_alarmed)
    conclusions

let test_trace_free_when_unobserved () =
  (* No subscriber: runs must behave identically (emit is a no-op). *)
  let run ~observe =
    let population = Population.create ~seed:9 tiny_cfg in
    (if observe then
       let recorded = ref [] in
       Trace.subscribe (Population.trace population) (fun ~time e ->
           recorded := (time, e) :: !recorded));
    Population.run population ~until:(Duration.of_months 6.);
    Population.summary population
  in
  let a = run ~observe:false and b = run ~observe:true in
  Alcotest.(check int) "same successes" a.Metrics.polls_succeeded b.Metrics.polls_succeeded;
  Alcotest.(check (float 0.)) "same effort" a.Metrics.loyal_effort b.Metrics.loyal_effort

let test_damaged_peer_recovers_via_poll () =
  (* Damage one replica everywhere-but-one and watch the landslide
     repair machinery fix it within a couple of poll rounds. *)
  let cfg = { tiny_cfg with Config.disk_mttf_years = 1e6 (* no background damage *) } in
  let population = Population.create ~seed:9 cfg in
  let ctx = Population.ctx population in
  let victim = ctx.Peer.peers.(0) in
  let st = Peer.au_state victim 0 in
  let was_clean = Replica.damage st.Peer.replica ~block:7 ~version:999 in
  if was_clean then
    Metrics.on_replica_damaged ctx.Peer.metrics ~now:(Narses.Engine.now ctx.Peer.engine);
  Population.run population ~until:(Duration.of_years 1.);
  Alcotest.(check bool) "replica repaired" false (Replica.is_damaged st.Peer.replica);
  let s = Population.summary population in
  Alcotest.(check bool) "repair recorded" true (s.Metrics.repairs >= 1)

let test_concurrent_damage_same_block_converges () =
  (* Two peers damaged on the same block with different corrupt versions:
     a repair can arrive from a supplier that is itself damaged; the
     retry loop must still converge everyone to the publisher content. *)
  let cfg = { tiny_cfg with Config.disk_mttf_years = 1e6 } in
  let population = Population.create ~seed:17 cfg in
  let ctx = Population.ctx population in
  let damage node version =
    let st = Peer.au_state ctx.Peer.peers.(node) 0 in
    let was_clean = Replica.damage st.Peer.replica ~block:5 ~version in
    if was_clean then
      Metrics.on_replica_damaged ctx.Peer.metrics ~now:(Narses.Engine.now ctx.Peer.engine)
  in
  damage 0 100;
  damage 1 200;
  Population.run population ~until:(Duration.of_years 1.);
  Alcotest.(check int) "everyone clean again" 0 (Population.damaged_replicas population);
  let s = Population.summary population in
  Alcotest.(check bool) "at least two repairs happened" true (s.Metrics.repairs >= 2);
  (* At this small quorum (4, margin 1), two simultaneous dissenters on
     one block legitimately leave some polls without a landslide: the
     bimodal design raises alarms for correlated damage rather than
     guessing. They must stop once the replicas converge. *)
  Alcotest.(check bool) "alarms bounded and transient" true
    (s.Metrics.polls_alarmed < 10);
  let before = s.Metrics.polls_alarmed in
  Population.run population ~until:(Duration.of_years 2.);
  let s2 = Population.summary population in
  Alcotest.(check int) "no further alarms after convergence" before s2.Metrics.polls_alarmed

let () =
  let quick name f = Alcotest.test_case name `Quick f in
  let slow name f = Alcotest.test_case name `Slow f in
  Alcotest.run "protocol"
    [
      ( "end-to-end",
        [
          quick "polls succeed" test_polls_happen_and_succeed;
          slow "poll rate" test_poll_rate_matches_interval;
          slow "damage repaired" test_damage_gets_repaired;
          quick "deterministic runs" test_determinism;
          quick "seed sensitivity" test_seed_changes_results;
          quick "effort accounting" test_effort_flows_both_roles;
          slow "damage-rate monotone" test_higher_damage_rate_more_failures;
          slow "interval monotone" test_longer_interval_higher_access_failure;
          slow "over-provisioning" test_capacity_overprovisioning_reduces_refusals;
          slow "stoppage and recovery" test_pipe_stoppage_blocks_polls_then_recovery;
          slow "desynchronization ablation" test_synchronized_ablation_struggles_under_load;
          quick "targeted damage recovery" test_damaged_peer_recovers_via_poll;
          slow "layering validation" test_layering_validates_against_unlayered;
          slow "background load semantics" test_background_load_consumes_schedule;
          slow "reader estimator" test_reader_estimator_matches_integral;
          quick "trace lifecycle" test_trace_captures_poll_lifecycle;
          quick "trace free when unobserved" test_trace_free_when_unobserved;
          quick "concurrent same-block damage" test_concurrent_damage_same_block_converges;
        ] );
    ]
