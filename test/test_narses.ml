(* Tests for the discrete-event engine and the network substrate. *)

module Engine = Narses.Engine
module Topology = Narses.Topology
module Partition = Narses.Partition
module Net = Narses.Net
module Rng = Repro_prelude.Rng

(* Event classes for the engine model test. Registered at module
   initialisation, as the engine requires: the first [Engine.create]
   freezes the registry. *)
let cls_model_a = Engine.register_class "model_a"
let cls_model_b = Engine.register_class "model_b"

(* -- Engine ----------------------------------------------------------- *)

let test_engine_runs_in_time_order () =
  let engine = Engine.create () in
  let trace = ref [] in
  let note tag () = trace := tag :: !trace in
  ignore (Engine.schedule engine ~at:3. (note "c"));
  ignore (Engine.schedule engine ~at:1. (note "a"));
  ignore (Engine.schedule engine ~at:2. (note "b"));
  Engine.run engine;
  Alcotest.(check (list string)) "order" [ "a"; "b"; "c" ] (List.rev !trace)

let test_engine_fifo_at_equal_times () =
  let engine = Engine.create () in
  let trace = ref [] in
  for i = 1 to 5 do
    ignore (Engine.schedule engine ~at:1. (fun () -> trace := i :: !trace))
  done;
  Engine.run engine;
  Alcotest.(check (list int)) "fifo ties" [ 1; 2; 3; 4; 5 ] (List.rev !trace)

let test_engine_clock_advances () =
  let engine = Engine.create () in
  let seen = ref [] in
  ignore (Engine.schedule engine ~at:2.5 (fun () -> seen := Engine.now engine :: !seen));
  ignore (Engine.schedule engine ~at:7. (fun () -> seen := Engine.now engine :: !seen));
  Engine.run engine;
  Alcotest.(check (list (float 1e-9))) "clock at event times" [ 2.5; 7. ] (List.rev !seen)

let test_engine_schedule_in_past_rejected () =
  let engine = Engine.create () in
  ignore (Engine.schedule engine ~at:5. (fun () -> ()));
  Engine.run engine;
  Alcotest.(check bool) "raises" true
    (try
       ignore (Engine.schedule engine ~at:1. (fun () -> ()));
       false
     with Invalid_argument _ -> true)

let test_engine_cancel () =
  let engine = Engine.create () in
  let fired = ref false in
  let id = Engine.schedule engine ~at:1. (fun () -> fired := true) in
  Engine.cancel engine id;
  Engine.run engine;
  Alcotest.(check bool) "cancelled event does not fire" false !fired;
  Alcotest.(check int) "no live events" 0 (Engine.pending engine)

let test_engine_cancel_twice_harmless () =
  let engine = Engine.create () in
  let id = Engine.schedule engine ~at:1. (fun () -> ()) in
  Engine.cancel engine id;
  Engine.cancel engine id;
  Alcotest.(check int) "pending zero, not negative" 0 (Engine.pending engine)

let test_engine_events_scheduling_events () =
  let engine = Engine.create () in
  let count = ref 0 in
  let rec chain n () =
    incr count;
    if n > 1 then ignore (Engine.schedule_in engine ~after:1. (chain (n - 1)))
  in
  ignore (Engine.schedule engine ~at:0. (chain 10));
  Engine.run engine;
  Alcotest.(check int) "chain length" 10 !count;
  Alcotest.(check (float 1e-9)) "final time" 9. (Engine.now engine)

let test_engine_run_until_limit () =
  let engine = Engine.create () in
  let fired = ref [] in
  List.iter
    (fun at -> ignore (Engine.schedule engine ~at (fun () -> fired := at :: !fired)))
    [ 1.; 2.; 10. ];
  Engine.run_until engine ~limit:5.;
  Alcotest.(check (list (float 1e-9))) "only early events" [ 1.; 2. ] (List.rev !fired);
  Alcotest.(check (float 1e-9)) "clock at limit" 5. (Engine.now engine);
  Alcotest.(check int) "late event still pending" 1 (Engine.pending engine);
  Engine.run_until engine ~limit:20.;
  Alcotest.(check (list (float 1e-9))) "late event fires later" [ 1.; 2.; 10. ]
    (List.rev !fired)

let test_engine_budget_ignores_cancelled () =
  (* Regression: run_until used to charge its event budget before
     draining cancelled entries at the heap head, so a burst of
     cancellations could raise Event_limit_exceeded even though no live
     event beyond the budget would ever execute. *)
  let engine = Engine.create () in
  let fired = ref 0 in
  ignore (Engine.schedule engine ~at:1. (fun () -> incr fired));
  (* Cancelled debris sitting at the heap head within the time limit... *)
  List.iter
    (fun at ->
      let id = Engine.schedule engine ~at ignore in
      Engine.cancel engine id)
    [ 2.; 3.; 4. ];
  (* ...and a live event beyond the limit that must stay pending. *)
  ignore (Engine.schedule engine ~at:100. ignore);
  (* Budget 1 covers exactly the one live event inside the limit. *)
  Engine.run_until ~max_events:1 engine ~limit:10.;
  Alcotest.(check int) "live event executed" 1 !fired;
  Alcotest.(check int) "late event untouched" 1 (Engine.pending engine)

let prop_engine_never_runs_backwards =
  QCheck2.Test.make ~name:"events never run out of time order" ~count:100
    QCheck2.Gen.(list_size (int_range 1 100) (float_range 0. 1000.))
    (fun times ->
      let engine = Engine.create () in
      let last = ref neg_infinity in
      let monotone = ref true in
      List.iter
        (fun at ->
          ignore
            (Engine.schedule engine ~at (fun () ->
                 if Engine.now engine < !last then monotone := false;
                 last := Engine.now engine)))
        times;
      Engine.run engine;
      !monotone)

let test_engine_cancel_reused_slot () =
  (* A fired event's slot is reused by the next schedule; its stale
     handle must neither cancel nor report the new occupant. *)
  let engine = Engine.create () in
  let fired = ref [] in
  let a = Engine.schedule engine ~at:1. (fun () -> fired := "a" :: !fired) in
  Engine.run engine;
  let b = Engine.schedule engine ~at:2. (fun () -> fired := "b" :: !fired) in
  Alcotest.(check int) "slot reused" ((a :> int) land 0xFFFFFF) ((b :> int) land 0xFFFFFF);
  Alcotest.(check bool) "fired handle dead" false (Engine.is_live engine a);
  Alcotest.(check bool) "new handle live" true (Engine.is_live engine b);
  Engine.cancel engine a;
  Alcotest.(check int) "stale cancel is a no-op" 1 (Engine.pending engine);
  Alcotest.(check int) "nothing counted cancelled" 0 (Engine.stats engine).Engine.cancelled;
  Engine.run engine;
  Alcotest.(check (list string)) "both fired" [ "a"; "b" ] (List.rev !fired);
  (* Same after a cancel frees the slot. *)
  let c = Engine.schedule engine ~at:3. ignore in
  Engine.cancel engine c;
  let d = Engine.schedule engine ~at:4. (fun () -> fired := "d" :: !fired) in
  Engine.cancel engine c;
  Alcotest.(check bool) "cancelled handle dead" false (Engine.is_live engine c);
  Alcotest.(check bool) "reusing handle live" true (Engine.is_live engine d);
  Engine.run engine;
  Alcotest.(check (list string)) "d fired" [ "a"; "b"; "d" ] (List.rev !fired)

let test_engine_registry_frozen () =
  ignore (Engine.create ());
  match Engine.register_class "too_late" with
  | _ -> Alcotest.fail "register_class after Engine.create must raise"
  | exception Invalid_argument _ -> ()

(* Exact minor-heap words, not timings: the slot table and the int
   handle leave [schedule] and [cancel] allocation-free once the
   engine's arrays have grown. Firing allocates exactly the clock's
   two-word float box (the engine's [mutable clock : float] field is
   boxed). The times are boxed before measuring (a float computed at
   the call site is boxed by the caller, not by the engine), and the
   class label's [Some cls] is built once outside the measured region,
   so the classed delta is the engine's own. *)
let test_engine_allocation () =
  let engine = Engine.create () in
  let hits = ref 0 in
  let action () = incr hits in
  let n = 10_000 in
  let times base = List.init n (fun i -> float_of_int (base + (i mod 97))) in
  let cls_b = Some cls_model_b in
  let schedule at = ignore (Engine.schedule engine ~at action) in
  let schedule_b at = ignore (Engine.schedule ?cls:cls_b engine ~at action) in
  (* Warm up: grow the queue and slot table past [n] live events. *)
  List.iter schedule (times 0);
  Engine.run engine;
  let words f =
    let before = Gc.minor_words () in
    f ();
    Gc.minor_words () -. before
  in
  let clock_box = float_of_int (2 * n) in
  let t1 = times 100 and t2 = times 200 and t3 = times 400 and t4 = times 300 in
  Alcotest.(check (float 0.)) "schedule + fire: the clock box only" clock_box
    (words (fun () ->
         List.iter schedule t1;
         Engine.run engine));
  Alcotest.(check (float 0.)) "schedule + fire, classed: the clock box only" clock_box
    (words (fun () ->
         List.iter schedule_b t2;
         Engine.run engine));
  Alcotest.(check (float 0.)) "schedule + run_until: the clock box only" clock_box
    (words (fun () ->
         List.iter schedule t4;
         Engine.run_until engine ~limit:399.));
  let ids = Array.of_list (List.map (fun at -> Engine.schedule engine ~at action) t3) in
  let cancel id = Engine.cancel engine id in
  Alcotest.(check (float 0.)) "cancel" 0.
    (words (fun () ->
         Array.iter cancel ids;
         (* Twice: cancelling a cancelled handle is free too. *)
         Array.iter cancel ids));
  Alcotest.(check int) "all fired" (4 * n) !hits;
  Alcotest.(check int) "none pending" 0 (Engine.pending engine)

(* Model test: random interleavings of schedule / cancel / step /
   run_until against a reference engine built from records on the
   generic comparator heap. Cancels pick any handle ever issued, so they
   hit pending, fired, cancelled and slot-reused events alike; some
   events schedule a successor when they fire. After every operation
   the fire order, clock, pending count, per-class live counts, stats
   (including the heap high-water mark, which counts dead entries not
   yet surfaced) and every handle's liveness must agree. *)
type model_event = {
  m_time : float;
  m_seq : int;
  m_cls : int;  (* 0 unlabeled, 1 model_a, 2 model_b *)
  m_tag : int;
  m_spawn : bool;
  mutable m_live : bool;
}

type model = {
  heap : model_event Heap.t;
  mutable m_clock : float;
  mutable m_next_seq : int;
  mutable m_executed : int;
  mutable m_cancelled : int;
  mutable m_live_count : int;
  mutable m_max_depth : int;
  m_live_cls : int array;
  mutable m_log : int list;
  mutable m_events : model_event list;  (* newest first, by tag *)
}

type engine_op = Schedule of int * int * bool | Cancel of int | Step | Run_until of int

let engine_op_gen =
  QCheck2.Gen.(
    frequency
      [
        (5, map3 (fun dt cls spawn -> Schedule (dt, cls, spawn)) (int_bound 4) (int_bound 2)
             (map (fun k -> k = 0) (int_bound 4)));
        (3, map (fun k -> Cancel k) nat);
        (3, return Step);
        (1, map (fun dl -> Run_until dl) (int_bound 3));
      ])

let model_create () =
  {
    heap =
      Heap.create ~cmp:(fun a b ->
          match Float.compare a.m_time b.m_time with
          | 0 -> Int.compare a.m_seq b.m_seq
          | c -> c);
    m_clock = 0.;
    m_next_seq = 0;
    m_executed = 0;
    m_cancelled = 0;
    m_live_count = 0;
    m_max_depth = 0;
    m_live_cls = Array.make 3 0;
    m_log = [];
    m_events = [];
  }

let model_schedule m ~at ~cls ~spawn =
  let ev =
    { m_time = at; m_seq = m.m_next_seq; m_cls = cls; m_tag = m.m_next_seq; m_spawn = spawn;
      m_live = true }
  in
  m.m_next_seq <- m.m_next_seq + 1;
  m.m_live_count <- m.m_live_count + 1;
  m.m_live_cls.(cls) <- m.m_live_cls.(cls) + 1;
  m.m_events <- ev :: m.m_events;
  Heap.add m.heap ev;
  m.m_max_depth <- max m.m_max_depth (Heap.length m.heap)

let model_kill m ev =
  ev.m_live <- false;
  m.m_live_count <- m.m_live_count - 1;
  m.m_live_cls.(ev.m_cls) <- m.m_live_cls.(ev.m_cls) - 1

let model_fire m ev =
  model_kill m ev;
  m.m_clock <- ev.m_time;
  m.m_executed <- m.m_executed + 1;
  m.m_log <- ev.m_tag :: m.m_log;
  if ev.m_spawn then model_schedule m ~at:(m.m_clock +. 1.) ~cls:0 ~spawn:false

let model_step m =
  match Heap.pop m.heap with
  | None -> false
  | Some ev ->
    if ev.m_live then model_fire m ev;
    true

let model_run_until m ~limit =
  let rec loop () =
    match Heap.peek m.heap with
    | None -> ()
    | Some ev when not ev.m_live ->
      ignore (Heap.pop m.heap);
      loop ()
    | Some ev when ev.m_time > limit -> ()
    | Some ev ->
      ignore (Heap.pop m.heap);
      model_fire m ev;
      loop ()
  in
  loop ();
  if limit > m.m_clock then m.m_clock <- limit

let prop_engine_matches_model =
  QCheck2.Test.make ~name:"engine matches a reference model" ~count:300
    ~print:(fun ops -> Printf.sprintf "%d ops" (List.length ops))
    QCheck2.Gen.(list_size (int_bound 150) engine_op_gen)
    (fun ops ->
      let engine = Engine.create () in
      let m = model_create () in
      let log = ref [] in
      let handles = ref [] in  (* newest first, by tag *)
      let rec schedule ~at ~cls ~spawn =
        let tag = List.length !handles in
        let action () =
          log := tag :: !log;
          if spawn then schedule ~at:(Engine.now engine +. 1.) ~cls:0 ~spawn:false
        in
        let id =
          match cls with
          | 0 -> Engine.schedule engine ~at action
          | 1 -> Engine.schedule ~cls:cls_model_a engine ~at action
          | _ -> Engine.schedule ~cls:cls_model_b engine ~at action
        in
        handles := id :: !handles
      in
      let agree () =
        let s = Engine.stats engine in
        let classes = Engine.live_by_class engine in
        List.length !handles = List.length m.m_events
        && !log = m.m_log
        && Engine.now engine = m.m_clock
        && Engine.pending engine = m.m_live_count
        && s
           = {
               Engine.executed = m.m_executed;
               scheduled = m.m_next_seq;
               cancelled = m.m_cancelled;
               pending = m.m_live_count;
               max_heap_depth = m.m_max_depth;
             }
        && List.assoc_opt "model_a" classes = Some m.m_live_cls.(1)
        && List.assoc_opt "model_b" classes = Some m.m_live_cls.(2)
        && List.for_all2
             (fun id ev -> Engine.is_live engine id = ev.m_live)
             !handles m.m_events
      in
      List.for_all
        (fun op ->
          (match op with
          | Schedule (dt, cls, spawn) ->
            schedule ~at:(Engine.now engine +. float_of_int dt) ~cls ~spawn;
            model_schedule m ~at:(m.m_clock +. float_of_int dt) ~cls ~spawn
          | Cancel k ->
            let n = List.length !handles in
            if n > 0 then begin
              let i = k mod n in
              Engine.cancel engine (List.nth !handles i);
              let ev = List.nth m.m_events i in
              if ev.m_live then begin
                model_kill m ev;
                m.m_cancelled <- m.m_cancelled + 1
              end
            end
          | Step ->
            let fired = Engine.step engine in
            if fired <> model_step m then log := -1 :: !log
          | Run_until dl ->
            let limit = Engine.now engine +. float_of_int dl in
            Engine.run_until engine ~limit;
            model_run_until m ~limit);
          agree ())
        ops
      && (Engine.run engine;
          while model_step m do () done;
          agree ()))

(* -- Topology --------------------------------------------------------- *)

let make_topology ?(nodes = 20) () =
  Topology.create ~rng:(Rng.create 99) ~nodes

let test_topology_bandwidth_choices () =
  let t = make_topology ~nodes:200 () in
  for n = 0 to 199 do
    let bw = Topology.bandwidth_bps t n in
    Alcotest.(check bool) "bandwidth from paper's set" true
      (List.mem bw [ 1.5e6; 10.0e6; 100.0e6 ])
  done

let test_topology_latency_range () =
  let t = make_topology ~nodes:200 () in
  for src = 0 to 19 do
    for dst = 0 to 19 do
      if src <> dst then begin
        let l = Topology.path_latency t ~src ~dst in
        Alcotest.(check bool) "latency in [1,30] ms" true (l >= 0.001 && l <= 0.030)
      end
    done
  done

let test_topology_transfer_time () =
  let t = make_topology () in
  let small = Topology.transfer_time t ~src:0 ~dst:1 ~bytes:100 in
  let large = Topology.transfer_time t ~src:0 ~dst:1 ~bytes:1_000_000 in
  Alcotest.(check bool) "positive" true (small > 0.);
  Alcotest.(check bool) "larger payload slower" true (large > small);
  (* Serialisation term: (large - small) = 8 * delta_bytes / bottleneck *)
  let bottleneck = min (Topology.bandwidth_bps t 0) (Topology.bandwidth_bps t 1) in
  let expected = 8. *. 999_900. /. bottleneck in
  Alcotest.(check (float 1e-9)) "bandwidth math" expected (large -. small)

(* -- Partition -------------------------------------------------------- *)

let test_partition_stop_restore () =
  let p = Partition.create ~nodes:4 in
  Alcotest.(check bool) "initially open" false (Partition.blocked p ~src:0 ~dst:1);
  Partition.stop p 1;
  Alcotest.(check bool) "blocked as dst" true (Partition.blocked p ~src:0 ~dst:1);
  Alcotest.(check bool) "blocked as src" true (Partition.blocked p ~src:1 ~dst:2);
  Alcotest.(check bool) "others fine" false (Partition.blocked p ~src:0 ~dst:2);
  Alcotest.(check int) "count" 1 (Partition.stopped_count p);
  Partition.stop p 1;
  Alcotest.(check int) "idempotent stop" 1 (Partition.stopped_count p);
  Partition.restore p 1;
  Alcotest.(check bool) "restored" false (Partition.blocked p ~src:0 ~dst:1);
  Partition.restore p 1;
  Alcotest.(check int) "idempotent restore" 0 (Partition.stopped_count p)

let test_partition_restore_all () =
  let p = Partition.create ~nodes:5 in
  List.iter (Partition.stop p) [ 0; 2; 4 ];
  Partition.restore_all p;
  Alcotest.(check int) "all restored" 0 (Partition.stopped_count p)

(* -- Net -------------------------------------------------------------- *)

let make_net ?model () =
  let engine = Engine.create () in
  let topology = make_topology () in
  let partition = Partition.create ~nodes:20 in
  let net = Net.create ?model ~engine ~topology ~partition () in
  (engine, topology, partition, net)

let test_net_delivers () =
  let engine, topology, _, net = make_net () in
  let received = ref [] in
  Net.register net 1 (fun ~src msg -> received := (src, msg, Engine.now engine) :: !received);
  Net.send net ~src:0 ~dst:1 ~bytes:1000 "hello";
  Engine.run engine;
  match !received with
  | [ (src, msg, at) ] ->
    Alcotest.(check int) "src" 0 src;
    Alcotest.(check string) "payload" "hello" msg;
    let expected = Topology.transfer_time topology ~src:0 ~dst:1 ~bytes:1000 in
    Alcotest.(check (float 1e-9)) "delivery time" expected at;
    Alcotest.(check int) "delivered count" 1 (Net.delivered_count net);
    Alcotest.(check int) "bytes" 1000 (Net.bytes_delivered net)
  | _ -> Alcotest.fail "expected exactly one delivery"

let test_net_drops_when_stopped_at_send () =
  let engine, _, partition, net = make_net () in
  let received = ref 0 in
  Net.register net 1 (fun ~src:_ _ -> incr received);
  Partition.stop partition 1;
  Net.send net ~src:0 ~dst:1 ~bytes:10 "lost";
  Engine.run engine;
  Alcotest.(check int) "nothing delivered" 0 !received;
  Alcotest.(check int) "dropped" 1 (Net.dropped_count net)

let test_net_drops_mid_flight () =
  let engine, _, partition, net = make_net () in
  let received = ref 0 in
  Net.register net 1 (fun ~src:_ _ -> incr received);
  Net.send net ~src:0 ~dst:1 ~bytes:10 "doomed";
  (* Stop the destination before the propagation delay elapses. *)
  ignore (Engine.schedule engine ~at:0. (fun () -> Partition.stop partition 1));
  Engine.run engine;
  Alcotest.(check int) "mid-flight message lost" 0 !received;
  Alcotest.(check int) "dropped" 1 (Net.dropped_count net)

let test_net_unregistered_destination () =
  let engine, _, _, net = make_net () in
  Net.send net ~src:0 ~dst:2 ~bytes:10 "void";
  Engine.run engine;
  Alcotest.(check int) "counted as dropped" 1 (Net.dropped_count net)

let test_net_bidirectional () =
  let engine, _, _, net = make_net () in
  let log = ref [] in
  Net.register net 0 (fun ~src:_ msg -> log := ("at0", msg) :: !log);
  Net.register net 1 (fun ~src msg ->
      log := ("at1", msg) :: !log;
      Net.send net ~src:1 ~dst:src ~bytes:10 "pong");
  Net.send net ~src:0 ~dst:1 ~bytes:10 "ping";
  Engine.run engine;
  Alcotest.(check (list (pair string string))) "request/response" [ ("at1", "ping"); ("at0", "pong") ]
    (List.rev !log)

let test_net_shared_bottleneck_slows_concurrency () =
  let engine, topology, _, net = make_net ~model:Net.Shared_bottleneck () in
  let arrival = ref nan in
  Net.register net 1 (fun ~src:_ msg -> if msg = "probe" then arrival := Engine.now engine);
  Net.register net 3 (fun ~src:_ _ -> ());
  (* A single transfer matches the uncongested time... *)
  Net.send net ~src:0 ~dst:1 ~bytes:100_000 "probe";
  Engine.run engine;
  let solo = !arrival in
  Alcotest.(check (float 1e-9)) "solo = delay-only time"
    (Topology.transfer_time topology ~src:0 ~dst:1 ~bytes:100_000)
    solo;
  (* ...but a transfer sharing the source link is slower. *)
  let engine2, topology2, _, net2 = make_net ~model:Net.Shared_bottleneck () in
  let arrival2 = ref nan in
  Net.register net2 1 (fun ~src:_ msg -> if msg = "probe" then arrival2 := Engine.now engine2);
  Net.register net2 3 (fun ~src:_ _ -> ());
  Net.send net2 ~src:0 ~dst:3 ~bytes:10_000_000 "bulk";
  Net.send net2 ~src:0 ~dst:1 ~bytes:100_000 "probe";
  Engine.run engine2;
  ignore topology2;
  Alcotest.(check bool) "congested probe is slower" true (!arrival2 > solo);
  Alcotest.(check int) "links idle at the end" 0 (Net.active_transfers net2 0)

let test_net_delay_only_ignores_concurrency () =
  let engine, topology, _, net = make_net () in
  let arrival = ref nan in
  Net.register net 1 (fun ~src:_ msg -> if msg = "probe" then arrival := Engine.now engine);
  Net.register net 3 (fun ~src:_ _ -> ());
  Net.send net ~src:0 ~dst:3 ~bytes:10_000_000 "bulk";
  Net.send net ~src:0 ~dst:1 ~bytes:100_000 "probe";
  Engine.run engine;
  Alcotest.(check (float 1e-9)) "probe unaffected by bulk transfer"
    (Topology.transfer_time topology ~src:0 ~dst:1 ~bytes:100_000)
    !arrival

let () =
  let quick name f = Alcotest.test_case name `Quick f in
  Alcotest.run "narses"
    [
      ( "engine",
        [
          quick "time order" test_engine_runs_in_time_order;
          quick "fifo ties" test_engine_fifo_at_equal_times;
          quick "clock advances" test_engine_clock_advances;
          quick "no scheduling in the past" test_engine_schedule_in_past_rejected;
          quick "cancel" test_engine_cancel;
          quick "cancel twice" test_engine_cancel_twice_harmless;
          quick "events schedule events" test_engine_events_scheduling_events;
          quick "run_until" test_engine_run_until_limit;
          quick "budget ignores cancelled" test_engine_budget_ignores_cancelled;
          QCheck_alcotest.to_alcotest prop_engine_never_runs_backwards;
          quick "cancel of a slot-reused handle" test_engine_cancel_reused_slot;
          quick "registry frozen at first create" test_engine_registry_frozen;
          quick "schedule and cancel allocate nothing" test_engine_allocation;
          QCheck_alcotest.to_alcotest prop_engine_matches_model;
        ] );
      ( "topology",
        [
          quick "bandwidth choices" test_topology_bandwidth_choices;
          quick "latency range" test_topology_latency_range;
          quick "transfer time" test_topology_transfer_time;
        ] );
      ( "partition",
        [
          quick "stop/restore" test_partition_stop_restore;
          quick "restore_all" test_partition_restore_all;
        ] );
      ( "net",
        [
          quick "delivery" test_net_delivers;
          quick "drop at send" test_net_drops_when_stopped_at_send;
          quick "drop mid-flight" test_net_drops_mid_flight;
          quick "unregistered destination" test_net_unregistered_destination;
          quick "bidirectional exchange" test_net_bidirectional;
          quick "shared bottleneck congestion" test_net_shared_bottleneck_slows_concurrency;
          quick "delay-only has no congestion" test_net_delay_only_ignores_concurrency;
        ] );
    ]
