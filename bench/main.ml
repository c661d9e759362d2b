(* Measurement harness: what the simulator costs, never what it
   reproduces. The paper's tables and figures are `lockss_sim
   reproduce`, `ablate`, `subversion`, `reciprocity` and `extensions`;
   a profiled run is `lockss_sim run --report DIR` (its profile.json).

   Usage:
     dune exec bench/main.exe -- parallel --json BENCH_parallel.json
                                              # serial vs parallel timings
     dune exec bench/main.exe -- scale --points 100,1000
                                              # skip the 10k point (CI)
     dune exec bench/main.exe -- overhead --json BENCH_overhead.json
                                              # tracing, auditor, faults
     dune exec bench/main.exe -- diff-bench BASELINE CURRENT ...
                                              # offline regression gate

   Every JSON-emitting target takes [--json FILE]; `diff-bench` diffs
   such files against the pinned BENCH_*.baseline.json records. *)

module Duration = Repro_prelude.Duration
module Table = Repro_prelude.Table
open Experiments

let scale = Scenario.bench

let section title =
  Printf.printf "\n%s\n%s\n" title (String.make (String.length title) '=')

let note fmt = Printf.printf (fmt ^^ "\n")

let timed f =
  let t0 = Unix.gettimeofday () in
  let result = f () in
  Printf.printf "[%.1fs]\n" (Unix.gettimeofday () -. t0);
  result

(* Write a target's JSON artifact when [--json FILE] asked for one. *)
let emit_doc json_out doc =
  match json_out with
  | None -> ()
  | Some path ->
    Out_channel.with_open_text path (fun oc ->
        output_string oc (Obs.Json.to_string doc);
        output_char oc '\n');
    Printf.printf "wrote %s\n" path

(* -- Parallel runner speedup ------------------------------------------- *)

(* Each target carries its parallelism cap — the widest fan-out its
   job list allows — so the [--min-speedup] floor never demands more
   parallelism than the workload offers: the stoppage sweep is a
   5-duration x 4-coverage grid, the baseline sweep a 4x3x2 grid, and a
   chaos run is one faulted/fault-free pair. Each target also carries
   a repeat count: it runs that many serial/parallel pairs, alternating,
   and each side keeps its best wall-clock time. The chaos paired run
   lasts 0.2-0.4 s, short enough that a co-tenant's burst on a shared
   host moves one reading by a third; alternating puts both sides under
   the same bursts. The sweeps run for seconds and are timed once. *)
let parallel_targets =
  [
    ("stoppage sweep", 20, 1, fun () -> ignore (Grid.sweep ~scale Grid.stoppage));
    ("baseline sweep", 24, 1, fun () -> ignore (Baseline.sweep ~scale ()));
    ("chaos paired run", 2, 9, fun () -> ignore (Chaos.run ~scale Chaos.default_mix));
  ]

let wall f =
  let t0 = Unix.gettimeofday () in
  f ();
  Unix.gettimeofday () -. t0

(* [require_parallel] fails the target outright when fewer than 2
   effective workers are available, instead of marking the artifact
   degenerate: CI runners that exist to arm the speedup gate use it so
   a silently single-core runner cannot pin a degenerate baseline.
   [min_speedup V] requires each target's speedup to reach
   [V * min(effective_jobs, target's parallelism cap)]. *)
let run_parallel json_out require_parallel min_speedup =
  section "Runner: serial vs parallel wall-clock";
  note "Same sweeps, jobs=1 versus the auto worker count; results are";
  note "byte-identical either way (see test/test_runner.ml), so the only";
  note "question is wall-clock. Speedup ~1.0 is expected on one core.";
  let requested_jobs = Experiments.Runner.default_jobs () in
  (* LOCKSS_JOBS can request more workers than the machine has cores;
     the speedup those workers can deliver is bounded by the cores. *)
  let effective_jobs = min requested_jobs (Domain.recommended_domain_count ()) in
  let degenerate = effective_jobs < 2 in
  let failed = ref false in
  note "workers: %d requested (Domain.recommended_domain_count or LOCKSS_JOBS), %d effective"
    requested_jobs effective_jobs;
  if degenerate then begin
    note
      "DEGENERATE: fewer than 2 effective workers — speedups here measure \
       scheduling overhead, not parallelism, and the regression gate skips them.";
    if require_parallel then begin
      note
        "--require-parallel: this runner cannot exercise the parallel path; \
         failing instead of emitting a degenerate artifact.";
      failed := true
    end
  end;
  (* A run-wide profiler collects per-worker busy time and GC pressure
     across the parallel phases; workers report through Runner, the
     profiler itself stays on this domain. *)
  let prof = Obs.Profiler.create () in
  Experiments.Runner.set_profiler (Some prof);
  let table = Table.create [ "target"; "serial (s)"; "parallel (s)"; "speedup" ] in
  let entries =
    List.map
      (fun (name, cap, repeats, f) ->
        let timed jobs side =
          Experiments.Runner.set_jobs jobs;
          Obs.Profiler.phase prof (name ^ side) (fun () -> wall f)
        in
        let serial = ref infinity and parallel = ref infinity in
        for _ = 1 to repeats do
          serial := Float.min !serial (timed 1 " serial");
          parallel := Float.min !parallel (timed 0 " parallel")
        done;
        let serial = !serial and parallel = !parallel in
        let speedup = if parallel > 0. then serial /. parallel else nan in
        Table.add_row table
          [
            name;
            Printf.sprintf "%.2f" serial;
            Printf.sprintf "%.2f" parallel;
            Printf.sprintf "%.2fx" speedup;
          ];
        ( (name, cap, speedup),
          Obs.Json.Assoc
            [
              ("target", Obs.Json.String name);
              ("parallelism_cap", Obs.Json.Int cap);
              ("repeats", Obs.Json.Int repeats);
              ("serial_s", Obs.Json.Float serial);
              ("parallel_s", Obs.Json.Float parallel);
              ("speedup", Obs.Json.Float speedup);
            ] ))
      parallel_targets
  in
  Experiments.Runner.set_jobs 0;
  Experiments.Runner.set_profiler None;
  Obs.Profiler.sample_gc prof;
  Table.print table;
  Format.printf "%a@." Obs.Profiler.pp prof;
  (* Absolute speedup floor, orthogonal to the baseline diff: each
     target must reach [V * min(effective_jobs, cap)] — the parallelism
     the machine and the workload jointly offer, discounted by the
     acceptable per-core efficiency V. Meaningless with < 2 effective
     workers, where --require-parallel has already failed the run. *)
  (match min_speedup with
  | Some v when not degenerate ->
    List.iter
      (fun ((name, cap, speedup), _) ->
        let required = v *. float_of_int (min effective_jobs cap) in
        if not (speedup >= required) then begin
          note "MIN-SPEEDUP FAILED: %s reached %.2fx, floor is %.2fx (%.2f x %d)"
            name speedup required v (min effective_jobs cap);
          failed := true
        end
        else note "min-speedup ok: %s %.2fx >= %.2fx" name speedup required)
      entries
  | Some _ -> note "min-speedup skipped: degenerate single-core run"
  | None -> ());
  (* Per-slot utilisation and GC pressure across the parallel phases:
     slot 0 is the coordinating domain, helpers keep their slot for the
     whole process. [cpu_s] close to [busy_s] means the slot computed
     rather than waited; [minor_words] is that domain's own allocation. *)
  let domains_json =
    Obs.Json.List
      (List.map
         (fun (d : Obs.Profiler.domain_stat) ->
           Obs.Json.Assoc
             [
               ("name", Obs.Json.String (string_of_int d.Obs.Profiler.domain));
               ("busy_s", Obs.Json.Float d.Obs.Profiler.busy_s);
               ("cpu_s", Obs.Json.Float d.Obs.Profiler.cpu_s);
               ("tasks", Obs.Json.Int d.Obs.Profiler.tasks);
               ("minor_words", Obs.Json.Float d.Obs.Profiler.minor_words);
               ("minor_collections", Obs.Json.Int d.Obs.Profiler.minor_collections);
               ("major_collections", Obs.Json.Int d.Obs.Profiler.major_collections);
             ])
         (Obs.Profiler.domain_stats prof))
  in
  emit_doc json_out
    (Obs.Json.Assoc
       [
         ("requested_jobs", Obs.Json.Int requested_jobs);
         ("effective_jobs", Obs.Json.Int effective_jobs);
         ("degenerate", Obs.Json.Bool degenerate);
         ("targets", Obs.Json.List (List.map snd entries));
         ("domains", domains_json);
       ]);
  if !failed then 1 else 0

(* -- Population scale sweep --------------------------------------------- *)

(* Sweep the population 100 -> 1k -> 10k peers and check that per-event
   cost stays flat: peer state is interned and sized to the replicas
   that exist, so neither setup nor the event loop may go quadratic in
   the peer count. Horizons shrink as populations grow to keep each
   point's wall-clock bounded; events/sec is per-event cost, so the
   ratios compare across horizons. *)
let scale_base = (100, 1.0)
let scale_bigs = [ (1_000, 0.5); (10_000, 0.15) ]

(* Two noise defenses, because on a busy shared host the machine's
   effective speed swings ~2x over minutes and a major GC slice over
   the 182MB heap of the 10k point can land inside any one timing
   window:
   - each large point is *paired* with a freshly built 100-peer
     population and the two advance in interleaved sim-time chunks, so
     the slowdown ratio compares measurements taken seconds apart on
     the same machine state (the round-robin trick the overhead
     loop uses);
   - the per-event cost per population is the best chunk's, the robust
     estimator for short runs. *)
let scale_chunks = 4

type scale_point = {
  sp_peers : int;
  sp_years : float;
  sp_setup_cpu_s : float;
  sp_live_words : int;
  sp_pop : Lockss.Population.t;
  mutable sp_run_cpu_s : float;
  mutable sp_executed : int;
  mutable sp_best_cost : float;  (* best-chunk CPU seconds per event *)
  mutable sp_minor_words : float;  (* run-phase allocation *)
}

let scale_build (peers, years) =
  let sc =
    {
      Scenario.peers;
      aus = 2;
      quorum = 5;
      max_disagree = 1;
      outer_circle = 3;
      reference_target = min 15 (peers - 1);
      years;
      runs = 1;
      seed = 11;
    }
  in
  let cfg = Scenario.config sc in
  (* Gc.stat performs a full major collection, so live_words deltas
     around the build isolate the population's resident size. *)
  let live0 = (Gc.stat ()).Gc.live_words in
  let t0 = Sys.time () in
  let pop = Scenario.build ~cfg ~seed:sc.Scenario.seed Scenario.No_attack in
  let sp_setup_cpu_s = Sys.time () -. t0 in
  let sp_live_words = (Gc.stat ()).Gc.live_words - live0 in
  {
    sp_peers = peers;
    sp_years = years;
    sp_setup_cpu_s;
    sp_live_words;
    sp_pop = pop;
    sp_run_cpu_s = 0.;
    sp_executed = 0;
    sp_best_cost = infinity;
    sp_minor_words = 0.;
  }

let scale_advance p ~chunk =
  let executed () =
    (Narses.Engine.stats (Lockss.Population.engine p.sp_pop)).Narses.Engine.executed
  in
  let before = executed () in
  let t = Sys.time () in
  (* Minor words are exact and cheap to read; unlike timings they are
     deterministic, so the words-per-event figure below is pinnable. *)
  let mw0 = Gc.minor_words () in
  Lockss.Population.run p.sp_pop
    ~until:
      (Duration.of_years
         (p.sp_years *. float_of_int chunk /. float_of_int scale_chunks));
  let dt = Sys.time () -. t in
  let after = executed () in
  p.sp_run_cpu_s <- p.sp_run_cpu_s +. dt;
  p.sp_executed <- after;
  p.sp_minor_words <- p.sp_minor_words +. (Gc.minor_words () -. mw0);
  let delta = after - before in
  if delta > 0 && dt /. float_of_int delta < p.sp_best_cost then
    p.sp_best_cost <- dt /. float_of_int delta

(* [points] selects which large populations join the 100-peer base
   (every slowdown ratio is relative to it); [None] sweeps them all.
   CI skips the ~29s 10k-peer setup; `make bench-scale-full` keeps it. *)
let run_scale json_out points =
  section "Population scale sweep (per-event cost must stay flat)";
  note "100 -> 1k -> 10k peers, 2 AUs each, full coverage; reports run-phase";
  note "throughput and resident population memory per point. The tracked";
  note "[slowdown] ratios are per-event cost relative to the 100-peer point";
  note "(1.0 = flat; the gate fails past neutral + threshold); [live_words]";
  note "per point is tracked too and fails when it grows past the threshold.";
  let bigs =
    match points with
    | None -> scale_bigs
    | Some points -> List.filter (fun (peers, _) -> List.mem peers points) scale_bigs
  in
  if List.length bigs < List.length scale_bigs then
    note "points: sweeping %s only (of %s) — full sweep: make bench-scale-full"
      (String.concat ", "
         (string_of_int (fst scale_base) :: List.map (fun (p, _) -> string_of_int p) bigs))
      (String.concat ", "
         (string_of_int (fst scale_base)
         :: List.map (fun (p, _) -> string_of_int p) scale_bigs));
  (* Each pair: a fresh base population interleaved chunk-by-chunk with
     one large population; the pair's slowdown is the ratio of their
     best per-event costs. *)
  let pairs =
    List.map
      (fun big ->
        timed (fun () ->
            let base = scale_build scale_base in
            let bigp = scale_build big in
            for chunk = 1 to scale_chunks do
              scale_advance base ~chunk;
              scale_advance bigp ~chunk
            done;
            (base, bigp)))
      bigs
  in
  let points =
    match pairs with
    | (base, _) :: _ -> base :: List.map snd pairs
    | [] -> []
  in
  let eps p = if p.sp_best_cost < infinity then 1. /. p.sp_best_cost else nan in
  let wpe p =
    if p.sp_executed > 0 then p.sp_minor_words /. float_of_int p.sp_executed
    else nan
  in
  let table =
    Table.create
      [
        "peers"; "years"; "setup (s)"; "run (s)"; "events"; "events/s";
        "words/event"; "live MB"; "words/replica";
      ]
  in
  List.iter
    (fun p ->
      let replicas = p.sp_peers * 2 in
      Table.add_row table
        [
          string_of_int p.sp_peers;
          Printf.sprintf "%g" p.sp_years;
          Printf.sprintf "%.2f" p.sp_setup_cpu_s;
          Printf.sprintf "%.2f" p.sp_run_cpu_s;
          string_of_int p.sp_executed;
          Printf.sprintf "%.0f" (eps p);
          Printf.sprintf "%.0f" (wpe p);
          Printf.sprintf "%.1f" (float_of_int (p.sp_live_words * 8) /. 1e6);
          Printf.sprintf "%.0f"
            (float_of_int p.sp_live_words /. float_of_int replicas);
        ])
    points;
  Table.print table;
  let ratios =
    List.map
      (fun (base, bigp) ->
        let slowdown =
          if base.sp_best_cost > 0. && base.sp_best_cost < infinity then
            bigp.sp_best_cost /. base.sp_best_cost
          else nan
        in
        Printf.printf "slowdown %d vs %d: %.2fx\n" bigp.sp_peers base.sp_peers
          slowdown;
        Obs.Json.Assoc
          [
            ( "name",
              Obs.Json.String
                (Printf.sprintf "%d_vs_%d" bigp.sp_peers base.sp_peers) );
            ("slowdown", Obs.Json.Float slowdown);
          ])
      pairs
  in
  emit_doc json_out
    (Obs.Json.Assoc
       [
         ( "points",
           Obs.Json.List
             (List.map
                (fun p ->
                  Obs.Json.Assoc
                    [
                      ("name", Obs.Json.String (string_of_int p.sp_peers));
                      ("peers", Obs.Json.Int p.sp_peers);
                      ("aus", Obs.Json.Int 2);
                      ("years", Obs.Json.Float p.sp_years);
                      ("setup_cpu_s", Obs.Json.Float p.sp_setup_cpu_s);
                      ("run_cpu_s", Obs.Json.Float p.sp_run_cpu_s);
                      ("executed", Obs.Json.Int p.sp_executed);
                      ("events_per_sec", Obs.Json.Float (eps p));
                      ("words_per_event", Obs.Json.Float (wpe p));
                      ("live_words", Obs.Json.Int p.sp_live_words);
                    ])
                points) );
         ("ratios", Obs.Json.List ratios);
       ]);
  0

(* -- Overhead loop ------------------------------------------------------- *)

(* Every probe is priced against one shared untouched run, as each
   attack is measured against one no-attack run at the same seeds: the
   same one-year micro simulation per variant, every variant against the
   first. A full year: the runs are compared as ratios, and sub-10ms
   runs drown the ratio in scheduler noise. *)
let micro_scale =
  {
    Scenario.peers = 15;
    aus = 2;
    quorum = 4;
    max_disagree = 1;
    outer_circle = 3;
    reference_target = 8;
    years = 1.0;
    runs = 1;
    seed = 7;
  }

let overhead_run ?probes ?(cfg = Scenario.config micro_scale) () =
  Scenario.run ?probes ~cfg ~seed:micro_scale.Scenario.seed
    ~years:micro_scale.Scenario.years Scenario.No_attack

type measured = {
  name : string;
  cpu_s : float;  (* best process CPU seconds over the rounds *)
  overhead : float;  (* median over the rounds of the CPU ratio to the first variant *)
  words_per_event : float;  (* run-phase minor words per executed event *)
  result : Scenario.run;
}

(* Process CPU seconds ([Sys.time] is getrusage-backed, microsecond
   granularity) rather than wall clock: these runs last tens of
   milliseconds, and on a busy shared host co-tenant preemption swings
   wall ratios by ±20% — far above the regression gate's threshold —
   while CPU time charges each variant only for its own work.

   One warm-up round, then [repeats] rounds; each variant keeps its
   best time, the robust estimator on short runs, where the mean is
   dominated by preemption and GC pauses. Variants are interleaved
   round-robin rather than measured in sequence: CPU frequency ramps
   over the process lifetime, and sequential measurement would charge
   the ramp to whichever variant ran first. The overhead is the median
   of the per-round ratios, each taken against the base run of its own
   round: a ratio of two best times pairs draws from different moments
   and spread 2.2-3.3x for the report variant. Minor words are counted
   around the event loop only ([Scenario.run_minor_words]), so setup and
   file handling stay out and every round reads the same figure. *)
let best_of_rounds ~repeats variants =
  let measure (name, run) =
    let t0 = Sys.time () in
    let result = run () in
    let cpu_s = Sys.time () -. t0 in
    let events = max 1 result.Scenario.engine.Narses.Engine.executed in
    let words_per_event = result.Scenario.run_minor_words /. float_of_int events in
    { name; cpu_s; overhead = nan; words_per_event; result }
  in
  List.iter (fun (_, run) -> ignore (run ())) variants;
  let rounds = List.init repeats (fun _ -> List.map measure variants) in
  let best =
    List.fold_left
      (List.map2 (fun a b -> if b.cpu_s < a.cpu_s then b else a))
      (List.hd rounds) (List.tl rounds)
  in
  let ratios round =
    let base = (List.hd round).cpu_s in
    List.map (fun m -> if base > 0. then m.cpu_s /. base else nan) round
  in
  let ratios = List.map ratios rounds in
  let median xs =
    if List.exists Float.is_nan xs then nan else Repro_prelude.Stats.percentile 50. xs
  in
  let best =
    List.mapi
      (fun i m -> { m with overhead = median (List.map (fun round -> List.nth round i) ratios) })
      best
  in
  let table = Table.create [ "variant"; "best cpu (s)"; "median overhead"; "words/event" ] in
  List.iter
    (fun m ->
      Table.add_row table
        [
          m.name;
          Printf.sprintf "%.3f" m.cpu_s;
          Printf.sprintf "%.2fx" m.overhead;
          Printf.sprintf "%.1f" m.words_per_event;
        ])
    best;
  Table.print table;
  best

(* The auditor subscribes to the same bus as the run report and
   evaluates every invariant online; an untouched run must not trip
   one. *)
let audit_leaves (audited : Scenario.run) =
  let violations = List.length audited.Scenario.violations in
  Printf.printf "violations on the audited baseline: %d (must be 0)\n" violations;
  [ ("violations", Obs.Json.Int violations) ]

(* The content-fault layer (corruption, replay, stale, stray) rides the
   per-send hot path and the hardened handlers pay validation on every
   delivery; one counted run profiles what the mix injects. *)
let fault_leaves cfg (_ : Scenario.run) =
  let population = Scenario.build ~cfg ~seed:micro_scale.Scenario.seed Scenario.No_attack in
  Lockss.Population.run population ~until:(Duration.of_years micro_scale.Scenario.years);
  let transport, content =
    match Lockss.Population.faults population with
    | None -> (0, 0)
    | Some f ->
      ( Narses.Faults.dropped_count f + Narses.Faults.duplicated_count f
        + Narses.Faults.delayed_count f,
        Narses.Faults.corrupted_count f + Narses.Faults.replayed_count f
        + Narses.Faults.stale_count f + Narses.Faults.stray_count f )
  in
  Printf.printf "injected per run: %d transport faults, %d content faults\n" transport
    content;
  [
    ("transport_faults", Obs.Json.Int transport);
    ("content_faults", Obs.Json.Int content);
  ]

(* The trace bus is pay-for-what-you-watch: emission takes a thunk and
   does nothing without subscribers. The loop prices "nothing", a
   warn-level and a full Debug run report, the online auditor and the
   full Byzantine fault mix, each variant adding its own leaves from
   its measured result. *)
let run_overhead json_out =
  section "Overhead (trace bus, run report, auditor, Byzantine faults)";
  note "Same one-year micro simulation per variant; overhead is the median";
  note "per-round CPU-time ratio against the untouched run.";
  (* Eight rounds, not five: on a shared machine the heavier variants
     need more draws to land a quiet scheduling window — with too few
     rounds the ratio noise floor sits above the regression gate's
     threshold. *)
  let repeats = 8 in
  let dir = Filename.temp_dir "bench_overhead" "" in
  let with_probes probes () = overhead_run ~probes () in
  let report trace_level =
    { Scenario.default_probes with Scenario.report = Some dir; trace_level }
  in
  let faulted =
    {
      (Scenario.config micro_scale) with
      Lockss.Config.faults = Some (Chaos.faults_config Chaos.default_mix);
    }
  in
  let no_leaves _ = [] in
  let variants =
    [
      ("tracing disabled", (fun () -> overhead_run ()), no_leaves);
      (* A warn-level report raises the bus's interest floor to Warn,
         so nearly every emission skips its thunk: this variant must
         stay within noise of "tracing disabled". *)
      ("warn-level report", with_probes (report Lockss.Trace.Warn), no_leaves);
      ("report", with_probes (report Lockss.Trace.Debug), no_leaves);
      ( "auditor on",
        with_probes { Scenario.default_probes with Scenario.audit = true },
        audit_leaves );
      ("full Byzantine mix", (fun () -> overhead_run ~cfg:faulted ()), fault_leaves faulted);
    ]
  in
  let measured =
    best_of_rounds ~repeats (List.map (fun (name, run, _) -> (name, run)) variants)
  in
  let run_dir = Filename.concat dir (Printf.sprintf "seed%d" micro_scale.Scenario.seed) in
  Array.iter (fun name -> Sys.remove (Filename.concat run_dir name)) (Sys.readdir run_dir);
  Sys.rmdir run_dir;
  Sys.rmdir dir;
  let warn_overhead = (List.nth measured 1).overhead in
  if warn_overhead > 1.25 then
    Printf.printf
      "NOTE: warn-level report overhead %.2fx exceeds the within-noise expectation \
       (1.25x); emit short-circuiting may have regressed.\n"
      warn_overhead
  else
    Printf.printf "warn-level report within noise of disabled (%.2fx <= 1.25x)\n"
      warn_overhead;
  let entries =
    List.map2
      (fun m (_, _, leaves) ->
        Obs.Json.Assoc
          ([
             ("variant", Obs.Json.String m.name);
             ("cpu_s", Obs.Json.Float m.cpu_s);
             ("overhead", Obs.Json.Float m.overhead);
             ("words_per_event", Obs.Json.Float m.words_per_event);
           ]
          @ leaves m.result))
      measured variants
  in
  emit_doc json_out
    (Obs.Json.Assoc
       [ ("repeats", Obs.Json.Int repeats); ("variants", Obs.Json.List entries) ]);
  0

(* -- Offline regression gate -------------------------------------------- *)

let load_json path =
  match In_channel.with_open_text path In_channel.input_all with
  | exception Sys_error msg -> Error (Printf.sprintf "cannot read %s: %s" path msg)
  | contents ->
    Result.map_error
      (Printf.sprintf "%s: invalid JSON: %s" path)
      (Obs.Json.of_string (String.trim contents))

(* Diff pinned baseline/current artifact pairs without re-running any
   benchmark: 1 on a regression or a missing or unpinned tracked
   metric, 2 on unusable input. *)
let run_diff_bench threshold_pct allow_degenerate_current files =
  let rec pairs = function
    | baseline :: current :: rest ->
      Option.map (List.cons (baseline, current)) (pairs rest)
    | [] -> Some []
    | [ _ ] -> None
  in
  match pairs files with
  | None | Some [] ->
    prerr_endline "diff-bench takes BASELINE CURRENT file pairs";
    2
  | Some pairs ->
    List.fold_left
      (fun status (baseline_path, current_path) ->
        Printf.printf "== %s vs %s ==\n" baseline_path current_path;
        match (load_json baseline_path, load_json current_path) with
        | Error msg, _ | _, Error msg ->
          prerr_endline msg;
          2
        | Ok baseline, Ok current ->
          let report =
            Obs.Bench_gate.compare_json ~threshold_pct ~allow_degenerate_current
              ~baseline ~current ()
          in
          Format.printf "%a@." Obs.Bench_gate.pp_report report;
          if Obs.Bench_gate.ok report then status else max status 1)
      0 pairs

(* -- Command line ------------------------------------------------------- *)

open Cmdliner

(* A float option that must satisfy [valid]; anything else is a usage
   error. *)
let float_where valid ~expect =
  let parse s =
    match float_of_string_opt s with
    | Some f when valid f -> Ok f
    | Some _ | None -> Error (`Msg (Printf.sprintf "%S is not %s" s expect))
  in
  Arg.conv (parse, Format.pp_print_float)

let json_out =
  Arg.(
    value
    & opt (some string) None
    & info [ "json" ] ~docv:"FILE" ~doc:"Write the target's JSON artifact to $(docv).")

let require_parallel =
  Arg.(
    value & flag
    & info [ "require-parallel" ]
        ~doc:
          "Exit 1 when fewer than 2 effective workers are available, instead of \
           marking the artifact degenerate.")

let min_speedup =
  Arg.(
    value
    & opt (some (float_where (fun v -> v > 0.) ~expect:"a positive factor")) None
    & info [ "min-speedup" ] ~docv:"V"
        ~doc:
          "Exit 1 unless each target's speedup reaches $(docv) x min(effective \
           workers, the target's parallelism cap), e.g. 0.75.")

let points =
  let known = List.map (fun (p, _) -> (string_of_int p, p)) (scale_base :: scale_bigs) in
  Arg.(
    value
    & opt (some (list (enum known))) None
    & info [ "points" ] ~docv:"PEERS,..."
        ~doc:
          "Population sizes to sweep, e.g. $(b,100,1000); the 100-peer base always \
           runs. Default: all of 100, 1000 and 10000.")

let threshold =
  Arg.(
    value
    & opt (float_where (fun t -> t >= 0.) ~expect:"a non-negative percent") 25.
    & info [ "threshold" ] ~docv:"PCT"
        ~doc:"Regression threshold for tracked metrics, in percent.")

let allow_degenerate =
  Arg.(
    value & flag
    & info [ "allow-degenerate" ]
        ~doc:
          "Demote a tracked metric that went degenerate while its baseline pin was \
           live from a failure to a warning (intentional environment changes, e.g. \
           re-pinning from a smaller machine).")

let files = Arg.(value & pos_all string [] & info [] ~docv:"BASELINE CURRENT")

let () =
  let cmd name doc term = Cmd.v (Cmd.info name ~doc) term in
  let info =
    Cmd.info "bench"
      ~doc:"Measure the LOCKSS simulator's cost: speedup, scale, overheads."
  in
  exit
    (Cmd.eval'
       (Cmd.group info
          [
            cmd "parallel" "Serial vs parallel wall-clock of the heavier sweeps."
              Term.(const run_parallel $ json_out $ require_parallel $ min_speedup);
            cmd "scale" "Per-event cost and resident memory from 100 to 10k peers."
              Term.(const run_scale $ json_out $ points);
            cmd "overhead"
              "Trace bus, run-report, online-auditor and Byzantine fault-mix overhead."
              Term.(const run_overhead $ json_out);
            cmd "diff-bench"
              "Diff BASELINE CURRENT artifact pairs; exit 1 on a tracked regression."
              Term.(const run_diff_bench $ threshold $ allow_degenerate $ files);
          ]))
