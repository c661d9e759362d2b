(* Tests for the observability layer: JSON round-trips, trace fan-out,
   the time-series writer, the periodic sampler, engine profiling stats
   and the hardened metric transitions. *)

module Duration = Repro_prelude.Duration
module Engine = Narses.Engine
module Json = Obs.Json
module Series = Obs.Series
open Lockss

(* -- Json --------------------------------------------------------------- *)

let test_json_round_trip () =
  let value =
    Json.Assoc
      [
        ("i", Json.Int 42);
        ("f", Json.Float 1.5);
        ("s", Json.String "with \"quotes\", commas\nand newlines");
        ("b", Json.Bool true);
        ("n", Json.Null);
        ("l", Json.List [ Json.Int 1; Json.Int (-2); Json.Float 0.25 ]);
        ("o", Json.Assoc [ ("nested", Json.Bool false) ]);
      ]
  in
  match Json.of_string (Json.to_string value) with
  | Ok parsed -> Alcotest.(check bool) "round trip" true (parsed = value)
  | Error msg -> Alcotest.failf "parse failed: %s" msg

let test_json_rejects_garbage () =
  let bad = [ "{"; "[1,]"; "{\"a\" 1}"; "nulll"; "1 2"; "\"unterminated" ] in
  List.iter
    (fun s ->
      match Json.of_string s with
      | Ok _ -> Alcotest.failf "accepted %S" s
      | Error _ -> ())
    bad

let test_json_numbers () =
  (match Json.of_string "-17" with
  | Ok (Json.Int -17) -> ()
  | _ -> Alcotest.fail "int literal");
  (match Json.of_string "2.5e3" with
  | Ok (Json.Float f) -> Alcotest.(check (float 1e-9)) "exp float" 2500. f
  | _ -> Alcotest.fail "float literal");
  match Json.of_string "604800" with
  | Ok v -> Alcotest.(check (float 0.)) "to_float widens" 604800. (Option.get (Json.to_float v))
  | Error msg -> Alcotest.failf "parse: %s" msg

let test_json_escapes () =
  let s = "tab\tnewline\ncr\rquote\"backslash\\ctrl\x01\x1f" in
  (match Json.of_string (Json.to_string (Json.String s)) with
  | Ok (Json.String s') -> Alcotest.(check string) "escaped string survives" s s'
  | _ -> Alcotest.fail "string round trip");
  (* Control characters must leave the line printable (escaped, not raw). *)
  String.iter
    (fun c ->
      if Char.code c < 0x20 then Alcotest.failf "raw control char %C in output" c)
    (Json.to_string (Json.String s))

let test_json_non_finite_floats () =
  List.iter
    (fun f ->
      Alcotest.(check string) "non-finite renders null" "null"
        (Json.to_string (Json.Float f)))
    [ nan; infinity; neg_infinity ];
  match Json.of_string (Json.to_string (Json.List [ Json.Float nan; Json.Int 1 ])) with
  | Ok (Json.List [ Json.Null; Json.Int 1 ]) -> ()
  | _ -> Alcotest.fail "nan inside a list becomes null"

let test_json_deep_nesting () =
  let rec build depth =
    if depth = 0 then Json.Int 7
    else Json.Assoc [ ("child", Json.List [ build (depth - 1); Json.String "x" ]) ]
  in
  let v = build 40 in
  match Json.of_string (Json.to_string v) with
  | Ok parsed -> Alcotest.(check bool) "deep structure" true (parsed = v)
  | Error msg -> Alcotest.failf "parse: %s" msg

(* Every finite double, negative zero included, must survive its
   literal bit for bit; non-finite values render as null. Bit patterns
   are drawn uniformly, from a band of exponents around 1 (where the
   fast decimal path renders), and from the edge cases. *)
let test_float_literal_round_trips =
  let open QCheck2.Gen in
  let near_one =
    map3
      (fun negative exponent mantissa ->
        Int64.(
          logor
            (shift_left (of_int (exponent + if negative then 2048 else 0)) 52)
            (logand mantissa 0xF_FFFF_FFFF_FFFFL)))
      bool (int_range (1023 - 110) (1023 + 110)) int64
  in
  let edges =
    oneofl
      [ 0L; Int64.min_int; 1L; 0x7FEF_FFFF_FFFF_FFFFL; Int64.bits_of_float infinity;
        Int64.bits_of_float nan; Int64.bits_of_float 2e16; Int64.bits_of_float 0.1 ]
  in
  QCheck2.Test.make ~name:"float literals round-trip every finite double" ~count:50_000
    ~print:(fun bits -> Printf.sprintf "%Ld (%h)" bits (Int64.float_of_bits bits))
    (frequency [ (3, int64); (3, near_one); (1, edges) ])
    (fun bits ->
      let f = Int64.float_of_bits bits in
      let literal = Json.float_literal f in
      if Float.is_finite f then Int64.equal (Int64.bits_of_float (Float.of_string literal)) bits
      else String.equal literal "null")

(* Trace sinks render floats on every Runner domain at once: literals
   rendered concurrently must match the serial ones. *)
let test_float_literal_domain_safe () =
  let rng = Repro_prelude.Rng.create 17 in
  let values =
    Array.init 50_000 (fun _ -> Repro_prelude.Rng.float rng 1e7 +. 1e-3)
  in
  let expected = Array.map Json.float_literal values in
  let render () = Array.map Json.float_literal values in
  let helpers = List.init 2 (fun _ -> Domain.spawn render) in
  let mine = render () in
  List.iteri
    (fun i got ->
      Alcotest.(check bool)
        (Printf.sprintf "domain %d renders as serial" i)
        true (got = expected))
    (mine :: List.map Domain.join helpers)

(* -- Trace taxonomy, round-trip, sinks ---------------------------------- *)

(* A fixed seeded sample over every kind (see trace_gen.ml). *)
let sample_events = List.map snd (Trace_gen.fixed_sample ~n:300)

let test_trace_jsonl_round_trip =
  (* Every event survives to_json -> to_string -> of_string -> of_json. *)
  QCheck2.Test.make ~name:"jsonl round trip (all kinds)" ~count:300
    ~print:Trace_gen.print_stream Trace_gen.stream (fun stream ->
      List.for_all
        (fun (time, event) ->
          let line = Json.to_string (Trace.to_json ~time event) in
          match Result.bind (Json.of_string line) Trace.of_json with
          | Ok (time', event') -> Float.equal time time' && event = event'
          | Error msg -> QCheck2.Test.fail_reportf "%s: %s" line msg)
        stream)

let test_trace_sink_fanout () =
  let trace = Trace.create () in
  let seen_a = ref 0 and seen_b = ref 0 in
  Trace.subscribe trace (fun ~time:_ _ -> incr seen_a);
  Trace.subscribe trace (fun ~time:_ _ -> incr seen_b);
  List.iter (fun e -> Trace.emit trace ~now:1. (fun () -> e)) sample_events;
  Alcotest.(check int) "first sink" (List.length sample_events) !seen_a;
  Alcotest.(check int) "second sink" (List.length sample_events) !seen_b

let test_trace_severity_order () =
  Alcotest.(check bool) "debug below info" true (Trace.Debug < Trace.Info);
  Alcotest.(check bool) "info below warn" true (Trace.Info < Trace.Warn);
  List.iter
    (fun s ->
      let name = Trace.severity_to_string s in
      Alcotest.(check bool) ("round trip " ^ name) true
        (Trace.severity_of_string name = Some s))
    [ Trace.Debug; Trace.Info; Trace.Warn ]

(* -- Series -------------------------------------------------------------- *)

let with_temp_file f =
  let path = Filename.temp_file "obs_test" ".out" in
  Fun.protect ~finally:(fun () -> Sys.remove path) (fun () -> f path)

let read_lines path =
  let ic = open_in path in
  let rec loop acc =
    match input_line ic with
    | line -> loop (line :: acc)
    | exception End_of_file ->
      close_in ic;
      List.rev acc
  in
  loop []

let test_series_csv () =
  with_temp_file (fun path ->
      let series =
        Series.create ~columns:[ "t"; "x"; "label" ] (Obs.Sink.open_file path)
      in
      Series.append series [ Json.Float 1.5; Json.Int 2; Json.String "plain" ];
      Series.append series [ Json.Float 2.5; Json.Int 3; Json.String "needs,\"quoting\"" ];
      Series.close series;
      match read_lines path with
      | [ header; row1; row2 ] ->
        Alcotest.(check string) "header" "t,x,label" header;
        Alcotest.(check string) "row" "1.5,2,plain" row1;
        Alcotest.(check string) "quoted row" "2.5,3,\"needs,\"\"quoting\"\"\"" row2
      | lines -> Alcotest.failf "expected 3 lines, got %d" (List.length lines))

(* -- Sampler ------------------------------------------------------------- *)

let test_sampler_tick_alignment () =
  let engine = Engine.create () in
  let metrics = Metrics.create ~replicas:10 ~start:0. in
  let times = ref [] in
  let sampler =
    Sampler.attach ~engine ~metrics ~interval:10. (fun s ->
        times := s.Metrics.time :: !times)
  in
  (* Samples at 10,20,...,100 all fire inside run_until ~limit:100. *)
  Engine.run_until engine ~limit:100.;
  Alcotest.(check int) "ticks" 10 (Sampler.ticks sampler);
  Alcotest.(check (list (float 1e-9))) "aligned times"
    (List.init 10 (fun i -> 10. *. float_of_int (i + 1)))
    (List.rev !times);
  (* A partial trailing interval produces no sample. *)
  Engine.run_until engine ~limit:105.;
  Alcotest.(check int) "no partial tick" 10 (Sampler.ticks sampler);
  Engine.run_until engine ~limit:110.;
  Alcotest.(check int) "next full tick" 11 (Sampler.ticks sampler);
  Sampler.stop sampler;
  Engine.run_until engine ~limit:200.;
  Alcotest.(check int) "stopped" 11 (Sampler.ticks sampler)

let test_sampler_sees_metric_changes () =
  let engine = Engine.create () in
  let metrics = Metrics.create ~replicas:10 ~start:0. in
  let damaged = ref [] in
  let _sampler =
    Sampler.attach ~engine ~metrics ~interval:10. (fun s ->
        damaged := s.Metrics.damaged_replicas :: !damaged)
  in
  ignore (Engine.schedule engine ~at:5. (fun () -> Metrics.on_replica_damaged metrics ~now:5.));
  ignore
    (Engine.schedule engine ~at:15. (fun () -> Metrics.on_replica_repaired metrics ~now:15.));
  Engine.run_until engine ~limit:20.;
  Alcotest.(check (list int)) "damage then repair visible" [ 1; 0 ] (List.rev !damaged)

let test_sampler_series_writer_deltas () =
  with_temp_file (fun path ->
      let series = Series.create ~columns:Sampler.columns (Obs.Sink.open_file path) in
      let writer = Sampler.series_writer ~seed:3 series in
      let metrics = Metrics.create ~replicas:10 ~start:0. in
      Metrics.on_invitation_considered metrics;
      Metrics.on_invitation_considered metrics;
      writer (Metrics.sample metrics ~now:Duration.day);
      Metrics.on_invitation_considered metrics;
      writer (Metrics.sample metrics ~now:(2. *. Duration.day));
      Series.close series;
      let header, rows =
        match List.map (String.split_on_char ',') (read_lines path) with
        | header :: rows -> (header, rows)
        | [] -> Alcotest.fail "no header row"
      in
      let column name row = int_of_string (List.assoc name (List.combine header row)) in
      (* Cumulative 2 then 3 -> per-interval deltas 2 then 1. *)
      Alcotest.(check (list int)) "deltas" [ 2; 1 ]
        (List.map (column "invitations_considered") rows);
      Alcotest.(check int) "seed column" 3 (column "seed" (List.hd rows)))

(* -- Engine stats -------------------------------------------------------- *)

let test_engine_stats () =
  let engine = Engine.create () in
  let ids = List.init 5 (fun i -> Engine.schedule engine ~at:(float_of_int (i + 1)) ignore) in
  Engine.cancel engine (List.nth ids 0);
  Engine.cancel engine (List.nth ids 1);
  Engine.cancel engine (List.nth ids 1);
  (* double cancel is a no-op *)
  Engine.run engine;
  let stats = Engine.stats engine in
  Alcotest.(check int) "scheduled" 5 stats.Engine.scheduled;
  Alcotest.(check int) "cancelled" 2 stats.Engine.cancelled;
  Alcotest.(check int) "executed" 3 stats.Engine.executed;
  Alcotest.(check int) "pending" 0 stats.Engine.pending;
  Alcotest.(check int) "heap high-water" 5 stats.Engine.max_heap_depth

(* -- Metrics hardening --------------------------------------------------- *)

let test_repair_underflow_clamps () =
  let metrics = Metrics.create ~replicas:4 ~start:0. in
  (* Repair with nothing damaged: must not abort, must be counted. *)
  Metrics.on_replica_repaired metrics ~now:1.;
  Metrics.on_replica_damaged metrics ~now:2.;
  Metrics.on_replica_repaired metrics ~now:3.;
  Metrics.on_replica_repaired metrics ~now:4.;
  let summary = Metrics.finalize metrics ~now:10. in
  Alcotest.(check int) "underflows counted" 2 summary.Metrics.repair_underflows;
  let sample = Metrics.sample metrics ~now:10. in
  Alcotest.(check int) "damage clamped at zero" 0 sample.Metrics.damaged_replicas

(* -- Duration parsing ---------------------------------------------------- *)

let test_duration_of_string () =
  let ok s expect =
    match Duration.of_string s with
    | Ok v -> Alcotest.(check (float 1e-6)) s expect v
    | Error msg -> Alcotest.failf "%s: %s" s msg
  in
  ok "7d" (Duration.of_days 7.);
  ok "12h" (12. *. Duration.hour);
  ok "90" 90.;
  ok "90s" 90.;
  ok "5m" (5. *. Duration.minute);
  ok "2w" (Duration.of_days 14.);
  ok "1mo" Duration.month;
  ok "0.5y" (Duration.of_years 0.5);
  ok " 3d " (Duration.of_days 3.);
  List.iter
    (fun s ->
      match Duration.of_string s with
      | Ok _ -> Alcotest.failf "accepted %S" s
      | Error _ -> ())
    [ "x"; "-5d"; "5q"; ""; "d"; "1.2.3h" ]

(* -- End to end: Scenario observability ---------------------------------- *)

let test_scenario_observability_end_to_end () =
  let seeds = [ 5; 6 ] in
  Trace_gen.with_report_dir (fun dir ->
      let run_dir seed = Filename.concat dir (Printf.sprintf "seed%d" seed) in
      let file seed name = Filename.concat (run_dir seed) name in
      let scale =
        {
          Experiments.Scenario.peers = 10;
          aus = 1;
          quorum = 3;
          max_disagree = 1;
          outer_circle = 3;
          reference_target = 6;
          years = 0.25;
          runs = 2;
          seed = 5;
        }
      in
      let cfg = Experiments.Scenario.config scale in
      let probes =
        {
          Experiments.Scenario.default_probes with
          Experiments.Scenario.report = Some dir;
          sample_interval = Duration.of_days 7.;
        }
      in
      (* Two runs; each writes its own trace and metrics file. *)
      ignore
        (Experiments.Scenario.sweep ~probes ~cfg scale
           Experiments.Scenario.No_attack);
      List.iter
        (fun seed ->
          (* Below Debug the report holds no spans and no ledger. *)
          Alcotest.(check (list string))
            (Printf.sprintf "files at info (seed %d)" seed)
            [ "metrics.csv"; "profile.json"; "trace.ntrace" ]
            (List.sort compare
               (Array.to_list (Sys.readdir (run_dir seed))));
          (* Trace file: every record parses back to a typed event. *)
          let records = ref 0 in
          ignore
            (Obs.Trace_file.iter (file seed "trace.ntrace") ~f:(fun ~line result ->
                 incr records;
                 match Result.bind result Trace.of_json with
                 | Ok _ -> ()
                 | Error msg -> Alcotest.failf "trace record %d: %s" line msg));
          Alcotest.(check bool)
            (Printf.sprintf "trace nonempty (seed %d)" seed)
            true (!records > 10);
          (* Metrics file: one header plus 13 weekly samples for this run. *)
          match read_lines (file seed "metrics.csv") with
          | [] -> Alcotest.failf "empty metrics file (seed %d)" seed
          | header :: rows ->
            Alcotest.(check string) "header" (String.concat "," Sampler.columns) header;
            (* 0.25 y = 91.25 days -> 13 full 7-day intervals. *)
            Alcotest.(check int) (Printf.sprintf "rows (seed %d)" seed) 13
              (List.length rows);
            let row_seeds =
              List.sort_uniq compare
                (List.map (fun row -> List.hd (String.split_on_char ',' row)) rows)
            in
            Alcotest.(check (list string))
              (Printf.sprintf "seed column (seed %d)" seed)
              [ string_of_int seed ] row_seeds)
        seeds)

(* -- Span reconstruction -------------------------------------------------- *)

(* The offline path: an event serialised to JSON, then projected back
   to the view the analyzers consume. *)
let json_view ~time event = Option.get (Obs.View.of_json (Trace.to_json ~time event))

let feed_events analyzer events =
  List.iter (fun (time, event) -> Obs.Analyze.feed_view analyzer (json_view ~time event)) events

(* One complete, healthy poll lifecycle for poll (1, 0, 42). *)
let poll_lifecycle_events =
  [
    (0., Trace.Poll_started { poller = 1; au = 0; poll_id = 42; inner_candidates = 5 });
    (10., Trace.Solicitation_sent { poller = 1; voter = 2; au = 0; poll_id = 42; attempt = 1 });
    (12., Trace.Solicitation_sent { poller = 1; voter = 3; au = 0; poll_id = 42; attempt = 1 });
    (20., Trace.Invitation_accepted { voter = 2; poller = 1; au = 0; poll_id = 42 });
    (22., Trace.Invitation_refused { voter = 3; poller = 1; au = 0; poll_id = 42 });
    ( 30.,
      Trace.Effort_charged
        {
          peer = 2;
          role = Trace.Loyal;
          phase = Trace.Voting;
          poller = Some 1;
          au = Some 0;
          poll_id = Some 42;
          seconds = 100.;
        } );
    (35., Trace.Vote_sent { voter = 2; poller = 1; au = 0; poll_id = 42 });
    (40., Trace.Evaluation_started { poller = 1; au = 0; poll_id = 42; votes = 1 });
    ( 41.,
      Trace.Effort_received
        { peer = 1; from_ = 2; phase = Trace.Voting; au = 0; poll_id = 42; seconds = 7. } );
    ( 45.,
      Trace.Repair_applied
        { poller = 1; au = 0; poll_id = 42; block = 0; version = 3; clean = false } );
    (50., Trace.Poll_concluded { poller = 1; au = 0; poll_id = 42; outcome = Metrics.Success });
  ]

let test_span_reconstruction () =
  let analyzer = Obs.Analyze.create () in
  feed_events analyzer poll_lifecycle_events;
  (* A vote crossing the conclusion in flight is informational, not an
     anomaly. *)
  feed_events analyzer [ (55., Trace.Vote_sent { voter = 3; poller = 1; au = 0; poll_id = 42 }) ];
  let builder = Obs.Analyze.span_builder analyzer in
  Alcotest.(check int) "no anomalies" 0 (Obs.Span.anomaly_count builder);
  Alcotest.(check int) "late vote is informational" 1 (Obs.Span.late_events builder);
  Alcotest.(check int) "no open spans" 0 (List.length (Obs.Span.open_spans builder));
  match Obs.Span.closed_spans builder with
  | [ s ] ->
    Alcotest.(check int) "poller" 1 s.Obs.Span.poller;
    Alcotest.(check int) "inner candidates" 5 s.Obs.Span.inner_candidates;
    Alcotest.(check int) "solicitations" 2 s.Obs.Span.solicitations;
    Alcotest.(check int) "accepted" 1 s.Obs.Span.invitations_accepted;
    Alcotest.(check int) "refused" 1 s.Obs.Span.invitations_refused;
    Alcotest.(check int) "votes before conclusion" 1 s.Obs.Span.votes;
    Alcotest.(check (option (float 1e-9))) "first vote at" (Some 35.) s.Obs.Span.first_vote_at;
    Alcotest.(check int) "votes at evaluation" 1 s.Obs.Span.votes_at_evaluation;
    Alcotest.(check int) "repairs" 1 s.Obs.Span.repairs;
    Alcotest.(check bool) "concluded successfully" true
      (s.Obs.Span.outcome = Some Obs.Span.Success);
    Alcotest.(check (float 1e-9)) "effort spent" 100. s.Obs.Span.effort_spent;
    Alcotest.(check (float 1e-9)) "effort received" 7. s.Obs.Span.effort_received;
    Alcotest.(check (option (float 1e-9))) "solicitation duration" (Some 40.)
      (Obs.Span.solicitation_duration s);
    Alcotest.(check (option (float 1e-9))) "evaluation duration" (Some 5.)
      (Obs.Span.evaluation_duration s);
    Alcotest.(check (option (float 1e-9))) "repair duration" (Some 5.)
      (Obs.Span.repair_duration s);
    Alcotest.(check (option (float 1e-9))) "total duration" (Some 50.)
      (Obs.Span.total_duration s)
  | spans -> Alcotest.failf "expected one closed span, got %d" (List.length spans)

let test_span_anomalies () =
  let builder = Obs.Span.create () in
  let feed time event = Obs.Span.feed_view builder (json_view ~time event) in
  (* Two events for a poll whose start was never seen: one anomaly per
     orphan key, both events counted. *)
  feed 1. (Trace.Vote_sent { voter = 9; poller = 8; au = 0; poll_id = 5 });
  feed 2. (Trace.Vote_sent { voter = 10; poller = 8; au = 0; poll_id = 5 });
  Alcotest.(check int) "orphan anomalies dedup per key" 1 (Obs.Span.anomaly_count builder);
  Alcotest.(check int) "orphan events all counted" 2 (Obs.Span.orphan_events builder);
  (* A second poll by the same (poller, au) abandons the first. *)
  feed 3. (Trace.Poll_started { poller = 1; au = 0; poll_id = 1; inner_candidates = 0 });
  feed 4. (Trace.Poll_started { poller = 1; au = 0; poll_id = 2; inner_candidates = 0 });
  feed 5. (Trace.Poll_concluded { poller = 1; au = 0; poll_id = 2; outcome = Metrics.Success });
  feed 6. (Trace.Poll_concluded { poller = 1; au = 0; poll_id = 2; outcome = Metrics.Success });
  (* Poller-side activity after its own conclusion is an anomaly. *)
  feed 7. (Trace.Evaluation_started { poller = 1; au = 0; poll_id = 2; votes = 0 });
  let kinds =
    List.map
      (function
        | Obs.Span.Orphan_event _ -> "orphan"
        | Obs.Span.Abandoned_poll _ -> "abandoned"
        | Obs.Span.Duplicate_conclusion _ -> "duplicate"
        | Obs.Span.Poller_event_after_conclusion _ -> "after-conclusion"
        | Obs.Span.Malformed_line _ -> "malformed")
      (Obs.Span.anomalies builder)
  in
  Alcotest.(check (list string)) "anomaly sequence"
    [ "orphan"; "abandoned"; "duplicate"; "after-conclusion" ]
    kinds;
  (* The abandoned span is closed without an outcome. *)
  let abandoned =
    List.filter (fun s -> s.Obs.Span.outcome = None) (Obs.Span.closed_spans builder)
  in
  Alcotest.(check int) "abandoned span closed outcome-less" 1 (List.length abandoned)

let test_truncated_trace_is_not_fatal () =
  (* A trace cut mid-poll (the writer died): the final line is half a
     JSON object and the poll never concludes. The analyzer must report
     a malformed line and keep the span open, not crash. *)
  let analyzer = Obs.Analyze.create () in
  let lines =
    List.map (fun (time, e) -> Json.to_string (Trace.to_json ~time e)) poll_lifecycle_events
  in
  let keep = List.length lines - 1 in
  let lines = List.filteri (fun i _ -> i < keep) lines in
  List.iteri
    (fun i line ->
      let line = if i = keep - 1 then String.sub line 0 (String.length line / 2) else line in
      Obs.Analyze.feed_record analyzer ~line:(i + 1) (Json.of_string line))
    lines;
  Alcotest.(check int) "one anomaly" 1 (Obs.Analyze.anomaly_count analyzer);
  (match Obs.Analyze.anomalies analyzer with
  | [ Obs.Span.Malformed_line { line; _ } ] ->
    Alcotest.(check int) "at the cut line" keep line
  | _ -> Alcotest.fail "expected a malformed-line anomaly");
  let builder = Obs.Analyze.span_builder analyzer in
  Alcotest.(check int) "poll left open" 1 (List.length (Obs.Span.open_spans builder));
  Alcotest.(check int) "nothing concluded" 0 (List.length (Obs.Span.closed_spans builder))

(* -- Ledger --------------------------------------------------------------- *)

let test_ledger_accumulates () =
  let ledger = Obs.Ledger.create () in
  let feed time event = Obs.Ledger.feed_view ledger (json_view ~time event) in
  let charge peer role phase seconds =
    Trace.Effort_charged
      { peer; role; phase; poller = Some 1; au = Some 0; poll_id = Some 1; seconds }
  in
  feed 1. (charge 1 Trace.Loyal Trace.Solicitation 50.);
  feed 2. (charge 2 Trace.Loyal Trace.Voting 30.);
  feed 3. (charge 2 Trace.Adversary Trace.Voting 20.);
  feed 4.
    (Trace.Effort_received
       { peer = 1; from_ = 2; phase = Trace.Voting; au = 0; poll_id = 1; seconds = 5. });
  feed 5. (Trace.Poll_started { poller = 1; au = 0; poll_id = 1; inner_candidates = 2 });
  feed 5.5
    (Trace.Invitation_admitted
       {
         voter = 2;
         claimed = 1;
         au = 0;
         poll_id = Some 1;
         path = Trace.Admitted_unknown;
       });
  feed 6. (Trace.Vote_sent { voter = 2; poller = 1; au = 0; poll_id = 1 });
  feed 7. (Trace.Poll_concluded { poller = 1; au = 0; poll_id = 1; outcome = Metrics.Success });
  let e2 = Option.get (Obs.Ledger.find ledger 2) in
  Alcotest.(check (float 1e-9)) "loyal and adversary kept apart (loyal)" 30.
    (Obs.Ledger.spent_loyal_total e2);
  Alcotest.(check (float 1e-9)) "loyal and adversary kept apart (adversary)" 20.
    (Obs.Ledger.spent_adversary_total e2);
  Alcotest.(check (float 1e-9)) "voting-phase bucket" 30.
    e2.Obs.Ledger.spent_loyal.(Obs.Ledger.phase_index Obs.Ledger.Voting);
  Alcotest.(check int) "votes credited to the voter" 1 e2.Obs.Ledger.votes_sent;
  let e1 = Option.get (Obs.Ledger.find ledger 1) in
  Alcotest.(check (float 1e-9)) "receipts credited to the poller" 5.
    (Obs.Ledger.received_total e1);
  Alcotest.(check int) "poll outcome credited to the poller" 1 e1.Obs.Ledger.polls_succeeded;
  let totals = Obs.Ledger.totals ledger in
  Alcotest.(check (float 1e-9)) "loyal total" 80. totals.Obs.Ledger.loyal_effort;
  Alcotest.(check (float 1e-9)) "friction numerator" 80.
    (Obs.Ledger.effort_per_successful_poll ledger);
  Alcotest.(check (float 1e-9)) "cost ratio" 0.25 (Obs.Ledger.cost_ratio ledger);
  let r =
    Obs.Ledger.reconcile ledger ~loyal_effort:80. ~adversary_effort:20. ~polls_succeeded:1
      ~polls_inquorate:0 ~polls_alarmed:0 ~votes_supplied:1 ~invitations_considered:1
  in
  Alcotest.(check bool) "reconciles against matching aggregates" true r.Obs.Ledger.ok;
  let bad =
    Obs.Ledger.reconcile ledger ~loyal_effort:81. ~adversary_effort:20. ~polls_succeeded:1
      ~polls_inquorate:0 ~polls_alarmed:0 ~votes_supplied:2 ~invitations_considered:1
  in
  Alcotest.(check bool) "detects a mismatch" false bad.Obs.Ledger.ok

(* Run a real simulation with a live analyzer attached and check the
   ledger reconstructed from trace events against the Metrics
   aggregates — the reconciliation-by-construction invariant. *)
let reconciled_run attack =
  let scale =
    {
      Experiments.Scenario.peers = 12;
      aus = 1;
      quorum = 3;
      max_disagree = 1;
      outer_circle = 3;
      reference_target = 6;
      years = 0.25;
      runs = 1;
      seed = 11;
    }
  in
  let cfg = Experiments.Scenario.config scale in
  let population = Experiments.Scenario.build ~cfg ~seed:11 attack in
  let analyzer = Obs.Analyze.create () in
  Trace.subscribe (Population.trace population) (fun ~time event ->
      Obs.Analyze.feed_view analyzer (json_view ~time event));
  Population.run population ~until:(Duration.of_years scale.Experiments.Scenario.years);
  (analyzer, Population.summary population)

let check_reconciles name analyzer (s : Metrics.summary) =
  let ledger = Obs.Analyze.ledger analyzer in
  let r =
    Obs.Ledger.reconcile ledger ~loyal_effort:s.Metrics.loyal_effort
      ~adversary_effort:s.Metrics.adversary_effort ~polls_succeeded:s.Metrics.polls_succeeded
      ~polls_inquorate:s.Metrics.polls_inquorate ~polls_alarmed:s.Metrics.polls_alarmed
      ~votes_supplied:s.Metrics.votes_supplied
      ~invitations_considered:s.Metrics.invitations_considered
  in
  if not r.Obs.Ledger.ok then
    Alcotest.failf "%s does not reconcile: %s" name
      (Format.asprintf "%a" Obs.Ledger.pp_reconciliation r);
  (* The derived defense metrics must agree too (same data, so up to
     float summation order). *)
  let close label expect actual =
    let ok =
      (Float.is_finite expect
      && Float.abs (actual -. expect) <= 1e-6 *. Float.max 1. (Float.abs expect))
      || (expect = infinity && actual = infinity)
    in
    if not ok then Alcotest.failf "%s %s: expected %g, got %g" name label expect actual
  in
  close "friction numerator" s.Metrics.effort_per_successful_poll
    (Obs.Ledger.effort_per_successful_poll ledger);
  if s.Metrics.loyal_effort > 0. then
    close "cost ratio"
      (s.Metrics.adversary_effort /. s.Metrics.loyal_effort)
      (Obs.Ledger.cost_ratio ledger)

let test_ledger_reconciles_baseline () =
  let analyzer, summary = reconciled_run Experiments.Scenario.No_attack in
  check_reconciles "baseline" analyzer summary;
  (* A fault-free baseline produces a causally clean trace. *)
  Alcotest.(check int) "no anomalies on the fault-free baseline" 0
    (Obs.Analyze.anomaly_count analyzer)

let test_ledger_reconciles_under_attack () =
  let analyzer, summary =
    reconciled_run
      (Experiments.Scenario.Brute_force
         { strategy = Adversary.Brute_force.Intro; rate = 3.; identities = 10 })
  in
  check_reconciles "brute force" analyzer summary;
  let totals = Obs.Ledger.totals (Obs.Analyze.ledger analyzer) in
  Alcotest.(check bool) "adversary effort visible in the ledger" true
    (totals.Obs.Ledger.adversary_effort > 0.)

let () =
  let quick name f = Alcotest.test_case name `Quick f in
  Alcotest.run "observability"
    [
      ( "json",
        [
          quick "round trip" test_json_round_trip;
          quick "rejects garbage" test_json_rejects_garbage;
          quick "numbers" test_json_numbers;
          quick "escape sequences" test_json_escapes;
          quick "non-finite floats" test_json_non_finite_floats;
          quick "deep nesting" test_json_deep_nesting;
          quick "float literals are domain-safe" test_float_literal_domain_safe;
          QCheck_alcotest.to_alcotest test_float_literal_round_trips;
        ] );
      ( "trace",
        [
          QCheck_alcotest.to_alcotest test_trace_jsonl_round_trip;
          quick "sink fan-out" test_trace_sink_fanout;
          quick "severity order" test_trace_severity_order;
        ] );
      ( "series",
        [
          quick "csv" test_series_csv;
        ] );
      ( "sampler",
        [
          quick "tick alignment with run_until" test_sampler_tick_alignment;
          quick "sees metric changes" test_sampler_sees_metric_changes;
          quick "series writer deltas" test_sampler_series_writer_deltas;
        ] );
      ( "engine",
        [ quick "profiling stats" test_engine_stats ] );
      ( "metrics",
        [ quick "repair underflow clamps" test_repair_underflow_clamps ] );
      ( "duration",
        [ quick "of_string" test_duration_of_string ] );
      ( "scenario",
        [ quick "end-to-end files" test_scenario_observability_end_to_end ] );
      ( "span",
        [
          quick "reconstruction from a healthy lifecycle" test_span_reconstruction;
          quick "anomaly taxonomy" test_span_anomalies;
          quick "truncated trace is not fatal" test_truncated_trace_is_not_fatal;
        ] );
      ( "ledger",
        [
          quick "accumulates and reconciles" test_ledger_accumulates;
          quick "reconciles a live baseline run" test_ledger_reconciles_baseline;
          quick "reconciles a live attack run" test_ledger_reconciles_under_attack;
        ] );
    ]
