(* Tests for Experiments.Runner: the work-stealing parallel map must be
   a drop-in replacement for serial iteration — same results, same
   order, same bytes in every rendered table. Whether it is also faster
   is a timing claim, gated by [bench parallel --min-speedup] rather than
   asserted here. *)

module Duration = Repro_prelude.Duration
open Experiments

(* A very small, fast scale with enough runs/grid points to exercise the
   cursor with more jobs than workers. *)
let micro =
  {
    Scenario.peers = 12;
    aus = 1;
    quorum = 3;
    max_disagree = 1;
    outer_circle = 3;
    reference_target = 6;
    years = 0.5;
    runs = 2;
    seed = 11;
  }

(* Run [f] with a forced worker count, restoring the auto heuristic
   afterwards even on failure. *)
let with_jobs n f =
  Runner.set_jobs n;
  Fun.protect ~finally:(fun () -> Runner.set_jobs 0) f

(* -- Map semantics ----------------------------------------------------- *)

let test_map_preserves_order () =
  let items = List.init 100 Fun.id in
  List.iter
    (fun jobs ->
      Alcotest.(check (list int))
        (Printf.sprintf "squares in order (%d jobs)" jobs)
        (List.map (fun x -> x * x) items)
        (Runner.map ~jobs (fun x -> x * x) items))
    [ 1; 2; 4; 7 ]

let test_map_empty_and_singleton () =
  Alcotest.(check (list int)) "empty" [] (Runner.map ~jobs:4 succ []);
  Alcotest.(check (list int)) "singleton" [ 2 ] (Runner.map ~jobs:4 succ [ 1 ])

exception Boom of int

let test_map_reraises_lowest_index () =
  List.iter
    (fun jobs ->
      match
        Runner.map ~jobs (fun x -> if x >= 3 then raise (Boom x) else x)
          [ 0; 1; 2; 3; 4; 5 ]
      with
      | _ -> Alcotest.fail "expected Boom"
      | exception Boom x ->
        Alcotest.(check int)
          (Printf.sprintf "lowest failing index wins (%d jobs)" jobs)
          3 x)
    [ 1; 4 ]

let test_map_nested_runs_serially () =
  (* A map inside a worker must not spawn further domains — it runs
     inline, so the nested call still returns correct, ordered results. *)
  let result =
    Runner.map ~jobs:4
      (fun outer -> Runner.map ~jobs:4 (fun inner -> (outer * 10) + inner) [ 0; 1; 2 ])
      [ 1; 2; 3 ]
  in
  Alcotest.(check (list (list int)))
    "nested results intact"
    [ [ 10; 11; 12 ]; [ 20; 21; 22 ]; [ 30; 31; 32 ] ]
    result

let test_both_pairs_results () =
  List.iter
    (fun jobs ->
      with_jobs jobs (fun () ->
          let a, b = Runner.both (fun () -> 6 * 7) (fun () -> "ok") in
          Alcotest.(check int) "left" 42 a;
          Alcotest.(check string) "right" "ok" b))
    [ 1; 2 ];
  match Runner.both (fun () -> raise (Boom 1)) (fun () -> ()) with
  | _ -> Alcotest.fail "expected Boom"
  | exception Boom 1 -> ()

let test_set_jobs_validation () =
  Alcotest.check_raises "negative rejected"
    (Invalid_argument "Runner.set_jobs: negative job count") (fun () ->
      Runner.set_jobs (-1));
  with_jobs 3 (fun () -> Alcotest.(check int) "override visible" 3 (Runner.jobs ()));
  Alcotest.(check bool) "heuristic restored" true (Runner.jobs () >= 1)

(* -- Determinism: parallel output is byte-identical to serial --------- *)

let render_stoppage_tables () =
  let points =
    Grid.sweep ~scale:micro
      ~durations:[ Duration.of_days 30.; Duration.of_days 90. ]
      ~coverages:[ 0.3; 1.0 ] Grid.stoppage
  in
  String.concat "\n"
    (List.map
       (fun measure -> Repro_prelude.Table.render (Grid.table measure points))
       [ Grid.access_failure; Grid.delay_ratio; Grid.friction ])

let test_stoppage_sweep_byte_identical () =
  let serial = with_jobs 1 render_stoppage_tables in
  List.iter
    (fun jobs ->
      let parallel = with_jobs jobs render_stoppage_tables in
      Alcotest.(check string)
        (Printf.sprintf "fig3-5 tables identical (%d jobs)" jobs)
        serial parallel)
    [ 2; 4 ]

let test_chaos_paired_run_byte_identical () =
  let report () =
    Format.asprintf "%a" Chaos.pp_report (Chaos.run ~scale:micro Chaos.default_mix)
  in
  let serial = with_jobs 1 report in
  let parallel = with_jobs 2 report in
  Alcotest.(check string) "chaos report identical" serial parallel

let test_sweep_identical () =
  let cfg = Scenario.config micro in
  let scale = { micro with Scenario.runs = 3 } in
  let probes = { Scenario.default_probes with Scenario.audit = true } in
  let sweep () = Scenario.sweep ~probes ~cfg scale Scenario.No_attack in
  let s = with_jobs 1 sweep in
  let p = with_jobs 3 sweep in
  Alcotest.(check int) "same run count" (List.length s.Scenario.runs)
    (List.length p.Scenario.runs);
  List.iteri
    (fun i ((s : Scenario.run), (p : Scenario.run)) ->
      Alcotest.(check int) (Printf.sprintf "run %d seed" i) (micro.Scenario.seed + i) p.seed;
      Alcotest.(check int) (Printf.sprintf "run %d seed order" i) s.seed p.seed;
      (* [compare], not [=]: a summary can hold [nan]. *)
      Alcotest.(check bool)
        (Printf.sprintf "run %d summary" i)
        true
        (compare s.summary p.summary = 0);
      Alcotest.(check bool)
        (Printf.sprintf "run %d violations" i)
        true
        (s.violations = p.violations);
      Alcotest.(check int) (Printf.sprintf "run %d audits clean" i) 0
        (List.length p.violations))
    (List.combine s.Scenario.runs p.Scenario.runs);
  Alcotest.(check bool) "mean" true (compare s.Scenario.mean p.Scenario.mean = 0);
  Alcotest.(check (float 0.)) "afp min" s.Scenario.afp_min p.Scenario.afp_min;
  Alcotest.(check (float 0.)) "afp max" s.Scenario.afp_max p.Scenario.afp_max

(* -- Pool behaviour: helpers persist across maps ----------------------- *)

let test_pool_reuse_byte_identical () =
  (* Helpers persist across maps; a sweep rendered through a freshly
     warmed pool, and again through the same (now well-used) pool with
     other-width maps in between, must produce the same bytes as a
     serial run every time. *)
  let reference = with_jobs 1 render_stoppage_tables in
  for round = 1 to 3 do
    (* Vary the interleaved map width so chunk striping differs between
       rounds — the rendered bytes must not. *)
    ignore (Runner.map ~jobs:(1 + round) (fun x -> x * x) (List.init (16 * round) Fun.id));
    let rendered = with_jobs 4 render_stoppage_tables in
    Alcotest.(check string)
      (Printf.sprintf "round %d through warm pool" round)
      reference rendered
  done

let test_chunked_claiming_determinism () =
  (* The chunk size is [max 1 (n / (jobs * 4))]; every (n, jobs)
     combination exercises a different striping, including chunk = 1
     (n <= jobs*4), n not divisible by the chunk, and single-chunk
     tails. All must agree with the serial map. *)
  List.iter
    (fun n ->
      let items = List.init n (fun i -> i) in
      let expected = List.map (fun x -> (x * 7) mod 13) items in
      List.iter
        (fun jobs ->
          Alcotest.(check (list int))
            (Printf.sprintf "n=%d jobs=%d" n jobs)
            expected
            (Runner.map ~jobs (fun x -> (x * 7) mod 13) items))
        [ 1; 2; 3; 5; 8 ])
    [ 1; 2; 3; 7; 16; 33; 100 ]

let test_nested_map_through_warm_pool () =
  (* Nested maps must stay serial on a pool that has already run
     batches, and [both] must compose with maps before and after — the
     parked helpers may not claim a nested batch recursively. *)
  ignore (Runner.map ~jobs:3 succ (List.init 10 Fun.id));
  let nested =
    Runner.map ~jobs:3
      (fun outer ->
        let a, b =
          Runner.both
            (fun () -> Runner.map ~jobs:3 (fun i -> (outer * 100) + i) [ 0; 1 ])
            (fun () -> outer * 1000)
        in
        (a, b))
      [ 1; 2 ]
  in
  Alcotest.(check (list (pair (list int) int)))
    "nested both+map through warm pool"
    [ ([ 100; 101 ], 1000); ([ 200; 201 ], 2000) ]
    nested;
  ignore (Runner.map ~jobs:2 succ (List.init 5 Fun.id))

let test_profiler_slots_stable () =
  (* Slots are persistent pool positions: slot 0 is the caller, helpers
     keep their id across batches, and [both] accounts through the same
     slot space as [map] instead of a colliding private 0/1. *)
  let prof = Obs.Profiler.create () in
  Runner.set_profiler (Some prof);
  Fun.protect
    ~finally:(fun () -> Runner.set_profiler None)
    (fun () ->
      with_jobs 2 (fun () ->
          ignore (Runner.map (fun x -> x * 2) (List.init 8 Fun.id));
          ignore (Runner.both (fun () -> 1) (fun () -> 2))));
  let stats = Obs.Profiler.domain_stats prof in
  Alcotest.(check bool) "some slots recorded" true (stats <> []);
  let total_tasks =
    List.fold_left (fun acc d -> acc + d.Obs.Profiler.tasks) 0 stats
  in
  Alcotest.(check int) "8 map jobs + 2 both thunks" 10 total_tasks;
  List.iter
    (fun d ->
      Alcotest.(check bool)
        (Printf.sprintf "slot %d busy_s sane" d.Obs.Profiler.domain)
        true
        (d.Obs.Profiler.busy_s >= 0. && d.Obs.Profiler.cpu_s >= 0.);
      Alcotest.(check bool)
        (Printf.sprintf "slot %d id sane" d.Obs.Profiler.domain)
        true (d.Obs.Profiler.domain >= 0))
    stats

(* -- Race-freedom: each population owns its bootstrap buffer ----------- *)

(* Several hundred peers per build, so a build spans many scheduler
   slices and builds on the two slots overlap; partial coverage, so the
   sparse holder sets go through the same buffer as the candidate
   lists. *)
let contended_cfg =
  {
    (Scenario.config { micro with Scenario.peers = 400; aus = 2 }) with
    Lockss.Config.au_coverage = 0.7;
  }

(* Every peer's friends and initial reference lists (what the bootstrap
   buffer feeds), then the summary after a short run. *)
let build_and_run seed =
  let population = Lockss.Population.create ~seed contended_cfg in
  let lists = Buffer.create 65536 in
  Array.iter
    (fun (peer : Lockss.Peer.t) ->
      let add ids =
        List.iter (fun id -> Buffer.add_string lists (string_of_int id ^ ",")) ids;
        Buffer.add_char lists '|'
      in
      add peer.Lockss.Peer.friends;
      Array.iter
        (fun (st : Lockss.Peer.au_state) ->
          add (Lockss.Reference_list.members st.Lockss.Peer.reference))
        peer.Lockss.Peer.aus)
    (Lockss.Population.ctx population).Lockss.Peer.peers;
  Lockss.Population.run population ~until:(Duration.of_days 20.);
  ( Digest.to_hex (Digest.string (Buffer.contents lists)),
    Format.asprintf "%a" Lockss.Metrics.pp_summary (Lockss.Population.summary population) )

let test_concurrent_builds_match_serial () =
  let seeds = [ 3; 5; 8; 13 ] in
  let serial = List.map build_and_run seeds in
  let concurrent = with_jobs 2 (fun () -> Runner.map ~jobs:2 build_and_run seeds) in
  List.iter2
    (fun seed ((lists, summary), (lists', summary')) ->
      Alcotest.(check string) (Printf.sprintf "seed %d bootstrap lists" seed) lists lists';
      Alcotest.(check string) (Printf.sprintf "seed %d summary" seed) summary summary')
    seeds
    (List.combine serial concurrent)

let () =
  let quick name f = Alcotest.test_case name `Quick f in
  let slow name f = Alcotest.test_case name `Slow f in
  Alcotest.run "runner"
    [
      ( "map",
        [
          quick "order preserved" test_map_preserves_order;
          quick "empty and singleton" test_map_empty_and_singleton;
          quick "exception propagation" test_map_reraises_lowest_index;
          quick "nested maps serial" test_map_nested_runs_serially;
          quick "both" test_both_pairs_results;
          quick "set_jobs validation" test_set_jobs_validation;
        ] );
      ( "pool",
        [
          quick "chunked claiming deterministic" test_chunked_claiming_determinism;
          quick "nested map through warm pool" test_nested_map_through_warm_pool;
          quick "profiler slots stable" test_profiler_slots_stable;
          slow "pool reuse byte-identical" test_pool_reuse_byte_identical;
        ] );
      ( "determinism",
        [
          slow "stoppage sweep byte-identical" test_stoppage_sweep_byte_identical;
          slow "chaos paired run byte-identical" test_chaos_paired_run_byte_identical;
          slow "sweep identical" test_sweep_identical;
          slow "concurrent builds match serial" test_concurrent_builds_match_serial;
        ] );
    ]
