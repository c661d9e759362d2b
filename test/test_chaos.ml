(* Tests for the fault-injection layer (Narses.Faults), its wiring into
   Net and Population (crash/restart semantics, duplicate-delivery
   idempotence), the engine's event budget, and the chaos harness
   invariants — including fault-trace determinism. *)

module Rng = Repro_prelude.Rng
module Duration = Repro_prelude.Duration
module Engine = Narses.Engine
module Topology = Narses.Topology
module Partition = Narses.Partition
module Net = Narses.Net
module Faults = Narses.Faults
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

let contains s sub =
  let n = String.length sub in
  let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
  go 0

(* A bare faulty network: engine + topology + partition + injector. *)
let make_net ?(nodes = 12) fault_cfg =
  let engine = Engine.create () in
  let topology = Topology.create ~rng:(Rng.create 99) ~nodes in
  let partition = Partition.create ~nodes in
  let faults = Faults.create ~engine ~nodes fault_cfg in
  let net = Net.create ~faults ~engine ~topology ~partition () in
  (engine, topology, faults, net)

(* -- Injection at the Net layer ----------------------------------------- *)

let test_loss_drops_everything () =
  let cfg = { Faults.none with Faults.loss = 1.0; fault_seed = 3 } in
  let engine, _topology, faults, net = make_net cfg in
  let received = ref 0 in
  Net.register net 1 (fun ~src:_ (_ : int) -> incr received);
  for i = 1 to 50 do
    Net.send net ~src:0 ~dst:1 ~bytes:1024 i
  done;
  Engine.run engine;
  Alcotest.(check int) "nothing delivered" 0 !received;
  Alcotest.(check int) "net counted every drop" 50 (Net.dropped_count net);
  Alcotest.(check int) "injector counted every drop" 50 (Faults.dropped_count faults);
  Alcotest.(check int) "sends still counted" 50 (Net.sent_count net)

let test_duplication_doubles_delivery () =
  let cfg = { Faults.none with Faults.duplication = 1.0; fault_seed = 3 } in
  let engine, _topology, faults, net = make_net cfg in
  let received = ref 0 in
  Net.register net 1 (fun ~src:_ (_ : int) -> incr received);
  for i = 1 to 50 do
    Net.send net ~src:0 ~dst:1 ~bytes:1024 i
  done;
  Engine.run engine;
  Alcotest.(check int) "every message delivered twice" 100 !received;
  Alcotest.(check int) "fifty duplications injected" 50 (Faults.duplicated_count faults);
  Alcotest.(check int) "one logical send each" 50 (Net.sent_count net);
  Alcotest.(check int) "no drops" 0 (Net.dropped_count net)

let test_jitter_bounds_delay () =
  let jitter = 2.0 in
  let cfg = { Faults.none with Faults.jitter; fault_seed = 3 } in
  let engine, topology, faults, net = make_net cfg in
  let base = Topology.transfer_time topology ~src:0 ~dst:1 ~bytes:1024 in
  let arrivals = ref [] in
  Net.register net 1 (fun ~src:_ (_ : int) -> arrivals := Engine.now engine :: !arrivals);
  for i = 1 to 40 do
    Net.send net ~src:0 ~dst:1 ~bytes:1024 i
  done;
  Engine.run engine;
  Alcotest.(check int) "all delivered" 40 (List.length !arrivals);
  List.iter
    (fun t ->
      Alcotest.(check bool) "no earlier than the fault-free delay" true (t >= base -. 1e-9);
      Alcotest.(check bool) "within base + jitter" true (t <= base +. jitter +. 1e-9))
    !arrivals;
  let lo = List.fold_left Float.min infinity !arrivals in
  let hi = List.fold_left Float.max neg_infinity !arrivals in
  Alcotest.(check bool) "jitter actually spreads deliveries" true (hi -. lo > 0.1);
  Alcotest.(check int) "every delivery recorded as delayed" 40 (Faults.delayed_count faults)

let test_conservation_under_mixed_faults () =
  let cfg =
    {
      Faults.none with
      Faults.loss = 0.3;
      jitter = 1.0;
      duplication = 0.2;
      fault_seed = 5;
    }
  in
  let engine, _topology, faults, net = make_net cfg in
  for node = 0 to 11 do
    Net.register net node (fun ~src:_ (_ : int) -> ())
  done;
  for i = 0 to 199 do
    let src = i mod 12 in
    let dst = (src + 1 + (i mod 11)) mod 12 in
    Net.send net ~src ~dst ~bytes:4096 i
  done;
  Engine.run engine;
  let sent = Net.sent_count net in
  let dups = Faults.duplicated_count faults in
  let delivered = Net.delivered_count net in
  let dropped = Net.dropped_count net in
  Alcotest.(check int) "every send counted" 200 sent;
  Alcotest.(check bool) "some copies lost" true (dropped > 0);
  Alcotest.(check bool) "some copies duplicated" true (dups > 0);
  Alcotest.(check int) "sent + dup = delivered + dropped after drain" (sent + dups)
    (delivered + dropped)

(* -- Churn scheduling ---------------------------------------------------- *)

let test_churn_schedule_and_hooks () =
  let cfg =
    {
      Faults.none with
      Faults.churn_per_day = 1.0;
      downtime = Duration.of_days 0.5;
      fault_seed = 11;
    }
  in
  let engine = Engine.create () in
  let faults = Faults.create ~engine ~nodes:10 cfg in
  let hook_crashes = ref 0 and hook_restarts = ref 0 in
  Faults.on_crash faults (fun _node -> incr hook_crashes);
  Faults.on_restart faults (fun _node -> incr hook_restarts);
  Faults.start_churn faults ~nodes:(List.init 10 (fun i -> i));
  Engine.run_until engine ~limit:(Duration.of_days 30.);
  let crashes = Faults.crash_count faults in
  let restarts = Faults.restart_count faults in
  let down = Faults.down_count faults in
  Alcotest.(check bool) "churn produced crashes" true (crashes > 0);
  Alcotest.(check int) "crashes = restarts + still down" crashes (restarts + down);
  Alcotest.(check int) "crash hook fired per crash" crashes !hook_crashes;
  Alcotest.(check int) "restart hook fired per restart" restarts !hook_restarts;
  let observed_down = ref 0 in
  for node = 0 to 9 do
    if Faults.is_down faults node then incr observed_down
  done;
  Alcotest.(check int) "down_count matches is_down" down !observed_down

let test_validate_rejects_bad_configs () =
  let rejects label cfg =
    Alcotest.(check bool) label true
      (try
         Faults.validate cfg;
         false
       with Invalid_argument _ -> true)
  in
  Faults.validate Faults.none;
  rejects "loss above one" { Faults.none with Faults.loss = 1.5 };
  rejects "negative jitter" { Faults.none with Faults.jitter = -1.0 };
  rejects "negative duplication" { Faults.none with Faults.duplication = -0.1 };
  rejects "churn without downtime" { Faults.none with Faults.churn_per_day = 0.5; downtime = 0.0 }

(* -- Crash / restart at the population layer ----------------------------- *)

(* First (time, poller) at which any poll starts, found by replaying the
   deterministic run once with a trace subscriber. *)
let first_poll_start cfg ~seed ~horizon =
  let population = Lockss.Population.create ~seed cfg in
  let found = ref None in
  Lockss.Trace.subscribe (Lockss.Population.trace population) (fun ~time event ->
      match (!found, event) with
      | None, Lockss.Trace.Poll_started { poller; _ } -> found := Some (time, poller)
      | _ -> ());
  Lockss.Population.run population ~until:horizon;
  match !found with
  | Some x -> x
  | None -> Alcotest.fail "no poll started within the horizon"

let test_crash_aborts_inflight_poll () =
  let cfg = Scenario.config micro in
  let horizon = 1.5 *. cfg.Lockss.Config.inter_poll_interval in
  let t0, poller = first_poll_start cfg ~seed:5 ~horizon in
  (* Same seed, fresh population: stop just after that poll went out. *)
  let population = Lockss.Population.create ~seed:5 cfg in
  Lockss.Population.run population ~until:(t0 +. 1.);
  let ctx = Lockss.Population.ctx population in
  let peer = ctx.Lockss.Peer.peers.(poller) in
  Alcotest.(check bool) "poll in flight before the crash" true
    (Array.exists
       (fun (st : Lockss.Peer.au_state) -> Option.is_some st.Lockss.Peer.current_poll)
       peer.Lockss.Peer.aus);
  Lockss.Population.crash_peer population ~node:poller;
  Alcotest.(check bool) "peer inactive after crash" false peer.Lockss.Peer.active;
  Alcotest.(check bool) "in-flight polls aborted" true
    (Array.for_all
       (fun (st : Lockss.Peer.au_state) -> Option.is_none st.Lockss.Peer.current_poll)
       peer.Lockss.Peer.aus);
  Alcotest.(check int) "voter sessions discarded" 0
    (Lockss.Peer.Session_tbl.length peer.Lockss.Peer.voter_sessions);
  Lockss.Population.restart_peer population ~node:poller;
  Alcotest.(check bool) "peer active after restart" true peer.Lockss.Peer.active;
  (* The deployment keeps running cleanly through the crash/restart. *)
  Lockss.Population.run population ~until:horizon

let test_restart_ignores_dormant_peers () =
  let cfg = Scenario.config micro in
  let population = Lockss.Population.create ~seed:5 ~dormant:1 cfg in
  let node = List.hd (Lockss.Population.dormant_nodes population) in
  (* crash_peer is a no-op on an inactive peer, and restart_peer only
     revives peers that churn actually took down. *)
  Lockss.Population.crash_peer population ~node;
  Lockss.Population.restart_peer population ~node;
  Alcotest.(check bool) "dormant peer stays dormant" true
    (List.mem node (Lockss.Population.dormant_nodes population));
  Alcotest.(check bool) "dormant peer stays inactive" false
    (Lockss.Population.ctx population).Lockss.Peer.peers.(node).Lockss.Peer.active

(* -- Duplicate-delivery idempotence -------------------------------------- *)

(* Admission control and effort balancing draw from the voter's rng; with
   both off, Voter.on_poll is deterministic and we can call it directly. *)
let idem_population () =
  let cfg =
    {
      (Scenario.config micro) with
      Lockss.Config.admission_control_enabled = false;
      effort_balancing_enabled = false;
    }
  in
  Lockss.Population.create ~seed:11 cfg

let test_duplicate_poll_is_reacked () =
  let population = idem_population () in
  let ctx = Lockss.Population.ctx population in
  let peer = ctx.Lockss.Peer.peers.(2) in
  let st = peer.Lockss.Peer.aus.(0) in
  Alcotest.(check bool) "replica held" true st.Lockss.Peer.held;
  let au = st.Lockss.Peer.au in
  let sent0 = Net.sent_count ctx.Lockss.Peer.net in
  let invite () =
    Lockss.Voter.on_poll ctx peer ~src:1 ~identity:1 ~au ~poll_id:99
      ~intro:(Effort.Proof.forged ~claimed_cost:1.)
  in
  invite ();
  Alcotest.(check int) "one session opened" 1
    (Lockss.Peer.Session_tbl.length peer.Lockss.Peer.voter_sessions);
  Alcotest.(check int) "ack sent" (sent0 + 1) (Net.sent_count ctx.Lockss.Peer.net);
  invite ();
  Alcotest.(check int) "duplicate opens no second session" 1
    (Lockss.Peer.Session_tbl.length peer.Lockss.Peer.voter_sessions);
  Alcotest.(check int) "lost-ack recovery: ack repeated" (sent0 + 2)
    (Net.sent_count ctx.Lockss.Peer.net);
  match Lockss.Peer.Session_tbl.find_opt peer.Lockss.Peer.voter_sessions (1, au, 99) with
  | Some { Lockss.Peer.vs_state = Lockss.Peer.Awaiting_proof _; _ } -> ()
  | _ -> Alcotest.fail "session should still be awaiting its proof"

let test_stale_duplicate_is_dropped () =
  let population = idem_population () in
  let ctx = Lockss.Population.ctx population in
  let peer = ctx.Lockss.Peer.peers.(3) in
  let st = peer.Lockss.Peer.aus.(0) in
  let au = st.Lockss.Peer.au in
  (* Pretend the session for poll 77 already ran to completion. *)
  Lockss.Peer.note_session_closed peer (1, au, 77);
  let sent0 = Net.sent_count ctx.Lockss.Peer.net in
  Lockss.Voter.on_poll ctx peer ~src:1 ~identity:1 ~au ~poll_id:77
    ~intro:(Effort.Proof.forged ~claimed_cost:1.);
  Alcotest.(check int) "no ghost session reopened" 0
    (Lockss.Peer.Session_tbl.length peer.Lockss.Peer.voter_sessions);
  Alcotest.(check int) "no ack for a stale duplicate" sent0
    (Net.sent_count ctx.Lockss.Peer.net)

(* -- Engine event budget ------------------------------------------------- *)

let test_engine_budget_stops_livelock () =
  let engine = Engine.create () in
  let rec boom () = ignore (Engine.schedule_in engine ~after:0.001 boom) in
  boom ();
  (match Engine.run ~max_events:500 engine with
  | () -> Alcotest.fail "run should have raised Event_limit_exceeded"
  | exception Engine.Event_limit_exceeded msg ->
    Alcotest.(check bool) "message names the budget" true (contains msg "500"));
  let engine2 = Engine.create () in
  let rec boom2 () = ignore (Engine.schedule_in engine2 ~after:0.001 boom2) in
  boom2 ();
  match Engine.run_until ~max_events:500 engine2 ~limit:10.0 with
  | () -> Alcotest.fail "run_until should have raised Event_limit_exceeded"
  | exception Engine.Event_limit_exceeded _ -> ()

let test_engine_budget_spares_finite_runs () =
  let engine = Engine.create () in
  let count = ref 0 in
  let rec chain n =
    if n > 0 then
      ignore
        (Engine.schedule_in engine ~after:1.0 (fun () ->
             incr count;
             chain (n - 1)))
  in
  chain 100;
  Engine.run ~max_events:1000 engine;
  Alcotest.(check int) "finite workload completes under budget" 100 !count

(* -- Determinism --------------------------------------------------------- *)

let traced_run ~fault_seed () =
  let mix =
    {
      Chaos.default_mix with
      Chaos.loss = 0.1;
      jitter = 0.5;
      duplication = 0.05;
      churn_per_day = 0.05;
      fault_seed;
    }
  in
  let cfg =
    { (Scenario.config micro) with Lockss.Config.faults = Some (Chaos.faults_config mix) }
  in
  let population = Lockss.Population.create ~seed:5 cfg in
  let buf = Buffer.create 65536 in
  Lockss.Trace.subscribe (Lockss.Population.trace population) (fun ~time event ->
      Buffer.add_string buf (Obs.Json.to_string (Lockss.Trace.to_json ~time event));
      Buffer.add_char buf '\n');
  Lockss.Population.run population ~until:(Duration.of_years 0.5);
  (Buffer.contents buf, Lockss.Population.summary population)

let test_same_seed_identical_fault_trace () =
  let trace1, summary1 = traced_run ~fault_seed:7 () in
  let trace2, summary2 = traced_run ~fault_seed:7 () in
  Alcotest.(check bool) "trace is non-trivial" true (String.length trace1 > 1000);
  Alcotest.(check bool) "faults appear in the trace" true
    (contains trace1 "fault_dropped" && contains trace1 "fault_delayed");
  Alcotest.(check bool) "byte-identical JSONL traces" true (String.equal trace1 trace2);
  Alcotest.(check int) "identical poll outcomes" summary1.Lockss.Metrics.polls_succeeded
    summary2.Lockss.Metrics.polls_succeeded;
  Alcotest.(check (float 0.)) "identical damage"
    summary1.Lockss.Metrics.access_failure_probability
    summary2.Lockss.Metrics.access_failure_probability

let test_fault_seed_changes_trace () =
  let trace1, _ = traced_run ~fault_seed:7 () in
  let trace2, _ = traced_run ~fault_seed:8 () in
  Alcotest.(check bool) "different fault seeds diverge" false (String.equal trace1 trace2)

(* -- The chaos harness --------------------------------------------------- *)

let test_chaos_harness_all_green () =
  let scale = { micro with Scenario.years = 1.; seed = 3 } in
  let report = Chaos.run ~scale Chaos.default_mix in
  Alcotest.(check int) "seven invariants evaluated" 7 (List.length report.Chaos.checks);
  List.iter
    (fun (c : Chaos.check) ->
      Alcotest.(check bool) (c.Chaos.name ^ " — " ^ c.Chaos.detail) true c.Chaos.ok)
    report.Chaos.checks;
  Alcotest.(check bool) "harness agrees it is green" true (Chaos.all_green report);
  Alcotest.(check bool) "no-stuck-poll invariant present" true
    (List.exists (fun (c : Chaos.check) -> c.Chaos.name = "no stuck poll") report.Chaos.checks);
  Alcotest.(check bool) "faults were actually injected" true
    (report.Chaos.injected_drops > 0
    && report.Chaos.injected_dups > 0
    && report.Chaos.injected_delays > 0);
  Alcotest.(check bool) "content faults were actually injected" true
    (report.Chaos.injected_corruptions > 0
    && report.Chaos.injected_replays > 0
    && report.Chaos.injected_stales > 0
    && report.Chaos.injected_strays > 0);
  Alcotest.(check bool) "leak audit invariant present" true
    (List.exists (fun (c : Chaos.check) -> c.Chaos.name = "leak audit") report.Chaos.checks)

(* A manifest must reproduce the run: every field of the mix is encoded,
   and decoding the members rebuilds the same mix. Each field gets a
   value no other field has, so a swapped name is caught too. *)
let test_mix_json_round_trip () =
  let mix =
    {
      Chaos.loss = 0.11;
      jitter = 0.22;
      duplication = 0.33;
      churn_per_day = 0.44;
      downtime = 5.5;
      corruption = 0.66;
      replay = 0.77;
      stale = 0.88;
      stray = 0.99;
      fault_seed = 1234;
    }
  in
  let json =
    match Obs.Json.of_string (Obs.Json.to_string (Chaos.mix_to_json mix)) with
    | Ok json -> json
    | Error msg -> Alcotest.fail msg
  in
  let members = match json with Obs.Json.Assoc m -> m | _ -> Alcotest.fail "not an object" in
  let get to_value name =
    match Option.bind (Obs.Json.member name json) to_value with
    | Some v -> v
    | None -> Alcotest.failf "member %s missing or mistyped" name
  in
  let float = get Obs.Json.to_float in
  let decoded =
    {
      Chaos.loss = float "loss";
      jitter = float "jitter";
      duplication = float "duplication";
      churn_per_day = float "churn_per_day";
      downtime = float "downtime";
      corruption = float "corruption";
      replay = float "replay";
      stale = float "stale";
      stray = float "stray";
      fault_seed = get Obs.Json.to_int "fault_seed";
    }
  in
  Alcotest.(check int) "one member per field" 10 (List.length members);
  Alcotest.(check bool) "decodes to the same mix" true (decoded = mix)

let () =
  let quick name f = Alcotest.test_case name `Quick f in
  Alcotest.run "chaos"
    [
      ( "injection",
        [
          quick "loss drops everything at p=1" test_loss_drops_everything;
          quick "duplication doubles delivery at p=1" test_duplication_doubles_delivery;
          quick "jitter bounded by config" test_jitter_bounds_delay;
          quick "conservation under mixed faults" test_conservation_under_mixed_faults;
        ] );
      ( "churn",
        [
          quick "schedule, hooks and accounting" test_churn_schedule_and_hooks;
          quick "crash aborts in-flight poll" test_crash_aborts_inflight_poll;
          quick "restart ignores dormant peers" test_restart_ignores_dormant_peers;
        ] );
      ( "idempotence",
        [
          quick "duplicate poll re-acked once" test_duplicate_poll_is_reacked;
          quick "stale duplicate dropped" test_stale_duplicate_is_dropped;
        ] );
      ( "engine budget",
        [
          quick "livelock raises" test_engine_budget_stops_livelock;
          quick "finite run unaffected" test_engine_budget_spares_finite_runs;
        ] );
      ( "determinism",
        [
          quick "same seed, byte-identical trace" test_same_seed_identical_fault_trace;
          quick "different fault seed diverges" test_fault_seed_changes_trace;
        ] );
      ( "config",
        [
          quick "validate rejects bad mixes" test_validate_rejects_bad_configs;
          quick "mix encodes every field" test_mix_json_round_trip;
        ] );
      ( "harness", [ quick "acceptance mix all green" test_chaos_harness_all_green ] );
    ]
