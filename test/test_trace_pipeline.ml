(* Tests for the low-overhead trace pipeline: buffered sinks, the
   binary trace encoding, format detection, the typed view fast path,
   the schema-derived codecs and their pinned bytes, the typed reader,
   emit short-circuiting, the run profiler and the bench regression
   gate. *)

module Json = Obs.Json
module Sink = Obs.Sink
module Btrace = Obs.Btrace
module Trace_file = Obs.Trace_file
module View = Obs.View
module Trace = Lockss.Trace
module Scenario = Experiments.Scenario
module Duration = Repro_prelude.Duration

let with_temp_file f =
  let path = Filename.temp_file "trace_pipeline" ".tmp" in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () -> f path)

let read_all path = In_channel.with_open_bin path In_channel.input_all

(* A fixed seeded sample over every kind (see trace_gen.ml). *)
let sample = Trace_gen.fixed_sample ~n:200
let sample_jsons = List.map (fun (time, event) -> Trace.to_json ~time event) sample

(* -- Sink ---------------------------------------------------------------- *)

let test_sink_size_bound () =
  with_temp_file (fun path ->
      let sink = Sink.open_file ~buffer_bytes:16 path in
      Sink.write sink "0123456789";
      Alcotest.(check int) "pending" 10 (Sink.pending sink);
      Alcotest.(check int) "nothing handed over" 0 (Sink.written sink);
      (* Crossing the 16-byte threshold drains the buffer. *)
      Sink.write sink "0123456789";
      Alcotest.(check int) "drained" 20 (Sink.written sink);
      Alcotest.(check int) "empty buffer" 0 (Sink.pending sink);
      Sink.close sink;
      Alcotest.(check string) "file content" "01234567890123456789" (read_all path))

let test_sink_explicit_flush () =
  with_temp_file (fun path ->
      let sink = Sink.open_file path in
      Sink.write_line sink "hello";
      Alcotest.(check string) "buffered, not on disk" "" (read_all path);
      Sink.flush sink;
      Alcotest.(check string) "flush makes it durable" "hello\n" (read_all path);
      Sink.close sink)

let test_sink_time_bound () =
  with_temp_file (fun path ->
      let sink = Sink.open_file ~flush_interval:10. path in
      Sink.write sink ~now:0. "a";
      Sink.write sink ~now:5. "b";
      Alcotest.(check int) "within interval: buffered" 2 (Sink.pending sink);
      Sink.write sink ~now:11. "c";
      Alcotest.(check int) "interval elapsed: drained" 3 (Sink.written sink);
      (* The mark advances: the next drain needs another full interval. *)
      Sink.write sink ~now:15. "d";
      Alcotest.(check int) "new interval: buffered" 1 (Sink.pending sink);
      Sink.close sink)

let test_sink_close_semantics () =
  with_temp_file (fun path ->
      let sink = Sink.open_file path in
      Sink.write sink "x";
      Sink.close sink;
      Alcotest.(check bool) "closed" true (Sink.closed sink);
      Sink.close sink;
      (* idempotent *)
      Alcotest.(check string) "flushed on close" "x" (read_all path);
      Alcotest.check_raises "write after close"
        (Invalid_argument "Sink: write after close") (fun () -> Sink.write sink "y"))

let test_sink_flush_on_exception () =
  with_temp_file (fun path ->
      (try
         Sink.with_file path (fun sink ->
             Sink.write_line sink "before the crash";
             failwith "boom")
       with Failure _ -> ());
      Alcotest.(check string) "trace survives the crash" "before the crash\n"
        (read_all path))

let test_sink_append_reopen () =
  with_temp_file (fun path ->
      Sink.with_file path (fun sink -> Sink.write_line sink "first");
      Sink.with_file ~append:true path (fun sink -> Sink.write_line sink "second");
      Alcotest.(check string) "append keeps the first run" "first\nsecond\n"
        (read_all path);
      Sink.with_file path (fun sink -> Sink.write_line sink "fresh");
      Alcotest.(check string) "default truncates" "fresh\n" (read_all path))

(* -- Series over a sink -------------------------------------------------- *)

let test_series_buffers_rows () =
  with_temp_file (fun path ->
      let series =
        Obs.Series.create ~columns:[ "t"; "x" ] (Sink.open_file path)
      in
      Obs.Series.append series [ Json.Float 1.5; Json.Int 2 ];
      Obs.Series.append series [ Json.Float 2.5; Json.Int 3 ];
      (* The old writer flushed per row; the sink-backed one must not. *)
      Alcotest.(check string) "rows buffered until close" "" (read_all path);
      Obs.Series.close series;
      Alcotest.(check string) "identical output to the unbuffered format"
        "t,x\n1.5,2\n2.5,3\n" (read_all path))

(* -- Binary trace format ------------------------------------------------- *)

let write_binary path jsons =
  Sink.with_file path (fun sink ->
      let w = Btrace.writer sink in
      List.iter (fun json -> Btrace.write w json) jsons;
      Btrace.count w)

let read_binary path =
  let acc = ref [] in
  match
    Btrace.iter_records path ~f:(fun ~index:_ json -> acc := json :: !acc)
  with
  | Ok () -> Ok (List.rev !acc)
  | Error msg -> Error msg

let test_btrace_round_trip_taxonomy () =
  with_temp_file (fun path ->
      let n = write_binary path sample_jsons in
      Alcotest.(check int) "record count" (List.length sample_jsons) n;
      match read_binary path with
      | Error msg -> Alcotest.failf "decode failed: %s" msg
      | Ok decoded ->
        Alcotest.(check int) "all records decoded" (List.length sample_jsons)
          (List.length decoded);
        List.iter2
          (fun original back ->
            Alcotest.(check bool)
              (Json.to_string original ^ " survives binary round-trip")
              true (original = back))
          sample_jsons decoded)

let test_btrace_smaller_than_jsonl () =
  with_temp_file (fun bin_path ->
      with_temp_file (fun jsonl_path ->
          (* Interning should make the steady-state binary encoding
             clearly smaller than JSONL for a repetitive event stream. *)
          let jsons = List.concat (List.init 20 (fun _ -> sample_jsons)) in
          ignore (write_binary bin_path jsons);
          Sink.with_file jsonl_path (fun sink ->
              List.iter (fun j -> Sink.write_line sink (Json.to_string j)) jsons);
          let bin = String.length (read_all bin_path) in
          let jsonl = String.length (read_all jsonl_path) in
          if not (bin * 2 < jsonl) then
            Alcotest.failf "binary %d bytes not < half of JSONL %d bytes" bin jsonl))

(* Atoms are registered at module initialisation; the first writer
   freezes the registry, so writers on other domains only read it. *)
let test_btrace_late_atom_raises () =
  with_temp_file (fun path -> Sink.with_file path (fun sink -> ignore (Btrace.writer sink)));
  match Btrace.atom "registered after a writer" with
  | _ -> Alcotest.fail "Btrace.atom after the first writer must raise"
  | exception Invalid_argument _ -> ()

let test_btrace_truncation_detected () =
  with_temp_file (fun path ->
      ignore (write_binary path sample_jsons);
      let whole = read_all path in
      let truncated = String.sub whole 0 (String.length whole - 3) in
      Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc truncated);
      match read_binary path with
      | Ok _ -> Alcotest.fail "truncated file decoded cleanly"
      | Error _ -> ())

let write_raw path bytes =
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc bytes)

let test_btrace_bad_magic () =
  with_temp_file (fun path ->
      write_raw path "NOPE1\n\x01\x00";
      match read_binary path with
      | Ok _ -> Alcotest.fail "bad magic accepted"
      | Error msg ->
        Alcotest.(check bool) "mentions magic" true
          (String.length msg > 0))

let test_btrace_bad_intern_ref () =
  with_temp_file (fun path ->
      (* One record: tag 8 (string ref) to id 5 with an empty table. *)
      write_raw path (Btrace.magic ^ "\x02\x08\x05");
      match read_binary path with
      | Ok _ -> Alcotest.fail "dangling intern reference accepted"
      | Error _ -> ())

let test_btrace_trailing_bytes_in_record () =
  with_temp_file (fun path ->
      (* Record claims 2 bytes but null needs only 1: trailing garbage. *)
      write_raw path (Btrace.magic ^ "\x02\x00\x00");
      match read_binary path with
      | Ok _ -> Alcotest.fail "trailing bytes inside a record accepted"
      | Error _ -> ())

(* Random JSON round-trip battery. *)
let json_gen =
  let open QCheck2.Gen in
  let scalar =
    oneof
      [
        return Json.Null;
        map (fun b -> Json.Bool b) bool;
        map (fun i -> Json.Int i) int;
        (* Finite floats only: NaN breaks structural equality. *)
        map (fun f -> Json.Float f) (float_bound_inclusive 1e12);
        map (fun s -> Json.String s) (string_size ~gen:printable (int_bound 80));
      ]
  in
  let rec value depth =
    if depth = 0 then scalar
    else
      frequency
        [
          (3, scalar);
          (1, map (fun l -> Json.List l) (list_size (int_bound 5) (value (depth - 1))));
          ( 1,
            map
              (fun fields -> Json.Assoc fields)
              (list_size (int_bound 5)
                 (pair (string_size ~gen:printable (int_bound 20)) (value (depth - 1))))
          );
        ]
  in
  list_size (int_bound 10) (value 3)

let test_btrace_qcheck_round_trip =
  QCheck2.Test.make ~name:"binary encoding round-trips arbitrary JSON" ~count:100
    json_gen (fun jsons ->
      with_temp_file (fun path ->
          ignore (write_binary path jsons);
          match read_binary path with
          | Error msg -> QCheck2.Test.fail_reportf "decode failed: %s" msg
          | Ok decoded -> decoded = jsons))

(* -- Trace_file ---------------------------------------------------------- *)

let test_trace_file_detect () =
  with_temp_file (fun path ->
      ignore (write_binary path sample_jsons);
      Alcotest.(check bool) "binary sniffed" true (Trace_file.detect path = Trace_file.Binary);
      write_raw path "{\"kind\":\"poll_started\"}\n";
      Alcotest.(check bool) "jsonl sniffed" true (Trace_file.detect path = Trace_file.Jsonl);
      write_raw path "";
      Alcotest.(check bool) "empty file is jsonl" true
        (Trace_file.detect path = Trace_file.Jsonl));
  Alcotest.(check bool) "ntrace extension" true
    (Trace_file.format_of_path "out/run.NTRACE" = Trace_file.Binary);
  Alcotest.(check bool) "other extension" true
    (Trace_file.format_of_path "out/run.jsonl" = Trace_file.Jsonl)

let test_trace_file_iter_jsonl_tolerant () =
  with_temp_file (fun path ->
      write_raw path "{\"kind\":\"a\"}\nnot json\n\n{\"kind\":\"b\"}\n";
      let oks = ref [] and errs = ref [] in
      let format =
        Trace_file.iter path ~f:(fun ~line result ->
            match result with
            | Ok json -> oks := (line, json) :: !oks
            | Error _ -> errs := line :: !errs)
      in
      Alcotest.(check bool) "format" true (format = Trace_file.Jsonl);
      (* Blank line skipped but counted; iteration continues past errors. *)
      Alcotest.(check (list int)) "good lines" [ 1; 4 ] (List.rev_map fst !oks);
      Alcotest.(check (list int)) "bad lines" [ 2 ] !errs)

let test_trace_file_iter_binary_stops () =
  with_temp_file (fun path ->
      ignore (write_binary path sample_jsons);
      let whole = read_all path in
      write_raw path (String.sub whole 0 (String.length whole - 2));
      let oks = ref 0 and errs = ref [] in
      ignore
        (Trace_file.iter path ~f:(fun ~line result ->
             match result with
             | Ok _ -> incr oks
             | Error _ -> errs := line :: !errs));
      Alcotest.(check int) "prefix decoded" (List.length sample_jsons - 1) !oks;
      Alcotest.(check (list int)) "one terminal error" [ List.length sample_jsons ] !errs)

(* -- Schema-derived codecs ------------------------------------------------ *)

let qcheck ~name ?(count = 100) prop =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name ~count ~print:Trace_gen.print_stream Trace_gen.stream prop)

let test_view_agrees_with_json =
  qcheck ~name:"to_view agrees with of_json" (fun stream ->
      List.for_all
        (fun (time, event) ->
          View.of_json (Trace.to_json ~time event) = Some (Trace.to_view ~time event))
        stream)

let write_file path emit = Sink.with_file path (fun sink -> emit sink)

let test_binary_sink_byte_parity =
  (* The direct binary encoder emits exactly the bytes of the generic
     [Btrace.write (to_json ...)] path, intern ids included. *)
  qcheck ~name:"binary sink byte parity" ~count:50 (fun stream ->
      with_temp_file (fun direct ->
          with_temp_file (fun generic ->
              write_file direct (fun sink ->
                  let emit = Trace.binary_sink (Btrace.writer sink) in
                  List.iter (fun (time, e) -> emit ~time e) stream);
              write_file generic (fun sink ->
                  let w = Btrace.writer sink in
                  List.iter
                    (fun (time, e) -> Btrace.write w ~now:time (Trace.to_json ~time e))
                    stream);
              String.equal (read_all direct) (read_all generic))))

(* The one trace reader: every record through [Trace_file.iter], decoded
   by [Trace.of_json], whatever the encoding. *)
let read_decoded path ~f =
  Trace_file.iter path ~f:(fun ~line result -> f ~line (Result.map Trace.of_json result))

let read_events path =
  let acc = ref [] in
  let format =
    read_decoded path ~f:(fun ~line result ->
        match result with
        | Ok (Ok entry) -> acc := entry :: !acc
        | Ok (Error msg) | Error msg -> Alcotest.failf "%s:%d: %s" path line msg)
  in
  (format, List.rev !acc)

let test_typed_reader_round_trip =
  (* The binary sink's file and the JSONL encoding ({!Trace.to_json},
     one object per line) read back through the typed reader as the very
     events written. *)
  qcheck ~name:"typed reader round-trips both encodings" ~count:50 (fun stream ->
      with_temp_file (fun path ->
          let check sink_of expected_format =
            write_file path (fun sink ->
                let emit = sink_of sink in
                List.iter (fun (time, e) -> emit ~time e) stream);
            let format, events = read_events path in
            format = expected_format && events = stream
          in
          check (fun sink -> Trace.binary_sink (Btrace.writer sink)) Trace_file.Binary
          && check
               (fun sink ~time e -> Sink.write_line sink (Json.to_string (Trace.to_json ~time e)))
               Trace_file.Jsonl))

let test_typed_reader_any_key_order () =
  (* A binary record whose keys are not in schema order, or that spells
     an absent optional as null, decodes as [of_json] decodes it. *)
  let json =
    Json.Assoc
      [
        ("kind", Json.String "effort_charged");
        ("t", Json.Int 7);
        ("seconds", Json.Float 2.5);
        ("phase", Json.String "voting");
        ("role", Json.String "loyal");
        ("poll_id", Json.Null);
        ("peer", Json.Int 4);
      ]
  in
  with_temp_file (fun path ->
      ignore (write_binary path [ json; Json.Assoc [ ("kind", Json.String "nope") ] ]);
      let results = ref [] in
      ignore
        (read_decoded path ~f:(fun ~line:_ result -> results := result :: !results));
      match List.rev !results with
      | [ Ok first; Ok (Error _) ] ->
        Alcotest.(check bool) "decoded like of_json" true (first = Trace.of_json json)
      | _ -> Alcotest.fail "expected one event and one non-event record")

let test_kinds_covered () =
  Alcotest.(check (list string))
    "the generator covers every kind"
    (List.sort compare Trace.all_kinds)
    (List.sort_uniq compare (List.map (fun (_, e) -> Trace.kind e) sample))

(* [involves] and [au_of] are derived from the schema's field roles;
   check them against the keys the JSON encoding carries. *)
let identity_keys = [ "poller"; "voter"; "claimed"; "peer"; "from"; "src"; "dst"; "node" ]

let test_involves_and_au_of =
  qcheck ~name:"involves and au_of match the encoded fields" (fun stream ->
      List.for_all
        (fun (time, event) ->
          let json = Trace.to_json ~time event in
          let ids =
            List.filter_map (fun k -> Option.bind (Json.member k json) Json.to_int) identity_keys
            @ List.concat_map
                (fun k ->
                  match Json.member k json with
                  | Some (Json.List items) -> List.filter_map Json.to_int items
                  | _ -> [])
                [ "invited"; "reference" ]
          in
          Trace.au_of event = Option.bind (Json.member "au" json) Json.to_int
          && List.for_all
               (fun id -> Trace.involves event id = List.mem id ids)
               (List.init 42 Fun.id))
        stream)

(* -- Pinned encodings -------------------------------------------------- *)

(* MD5s of every encoding of a fixed seeded sample over all kinds,
   recorded from the hand-written codecs the schema replaced: the
   schema-derived codecs must reproduce them byte for byte. "jsonl" is
   the binary file's JSONL rendering, as [trace-convert] writes it. *)
let sample_digests () =
  let sample = Trace_gen.fixed_sample ~n:2000 in
  let lines f = String.concat "" (List.map f sample) in
  let digest s = Digest.to_hex (Digest.string s) in
  let binary, jsonl =
    with_temp_file (fun path ->
        Sink.with_file path (fun sink ->
            let emit = Trace.binary_sink (Btrace.writer sink) in
            List.iter (fun (time, e) -> emit ~time e) sample);
        (read_all path, Trace_gen.jsonl path))
  in
  [
    ("json", digest (lines (fun (time, e) -> Json.to_string (Trace.to_json ~time e) ^ "\n")));
    ("jsonl", digest jsonl);
    ("binary", digest binary);
    ("pretty", digest (lines (fun (_, e) -> Format.asprintf "%a\n" Trace.pp_event e)));
    ( "taxonomy",
      digest
        (lines (fun (_, e) ->
             Printf.sprintf "%s %s %s\n" (Trace.kind e)
               (Trace.severity_to_string (Trace.severity e))
               (match Trace.au_of e with Some a -> string_of_int a | None -> "-"))) );
  ]

let pinned_digests =
  [
    ("json", "2f01f348b5c6056d64ae818aae6a64b4");
    ("jsonl", "2f01f348b5c6056d64ae818aae6a64b4");
    ("binary", "83f3bc922be2dc0c03ec312fdfb343d5");
    ("pretty", "27f0d574ebea44f118af8b1c7074be3f");
    ("taxonomy", "a4c40060eddb7528bf6672516df883a8");
  ]

let test_pinned_encodings () =
  List.iter2
    (fun (name, expected) (_, actual) ->
      Alcotest.(check string) (name ^ " digest") expected actual)
    pinned_digests (sample_digests ())

let test_view_of_json_first_binding () =
  (* As with [Json.member], the first binding of a key wins, even when
     its value has the wrong type. *)
  let view =
    View.of_json
      (Json.Assoc
         [
           ("kind", Json.String "vote_sent");
           ("poller", Json.String "3");
           ("t", Json.Int 5);
           ("poller", Json.Int 3);
           ("kind", Json.String "poll_started");
           ("au", Json.Int 2);
         ])
  in
  match view with
  | Some v ->
    Alcotest.(check string) "first kind" "vote_sent" v.View.kind;
    Alcotest.(check (float 0.)) "int time widens" 5. v.View.time;
    Alcotest.(check (option int)) "mistyped first poller" None v.View.poller;
    Alcotest.(check (option int)) "au" (Some 2) v.View.au
  | None -> Alcotest.fail "no view"

let test_analyzer_parity_json_vs_view () =
  (* Feeding serialised JSON and feeding typed views must produce the
     same report: the live fast path cannot drift from the offline
     path. *)
  let via_json = Obs.Analyze.create () in
  let via_view = Obs.Analyze.create () in
  List.iter
    (fun (time, event) ->
      Obs.Analyze.feed via_json (Trace.to_json ~time event);
      Obs.Analyze.feed_view via_view (Trace.to_view ~time event))
    sample;
  Alcotest.(check string) "identical reports"
    (Json.to_string (Obs.Analyze.report_json via_json))
    (Json.to_string (Obs.Analyze.report_json via_view))

(* -- Emit short-circuiting ----------------------------------------------- *)

let test_emit_bound_skips_thunk () =
  let bus = Trace.create () in
  let delivered = ref 0 in
  Trace.subscribe ~interest:Trace.Warn bus (fun ~time:_ _ -> incr delivered);
  let built = ref 0 in
  let make () =
    incr built;
    Trace.Node_crashed { node = 1 }
  in
  Trace.emit ~bound:Trace.Debug bus ~now:0. make;
  Alcotest.(check int) "debug-bounded thunk skipped" 0 !built;
  Trace.emit ~bound:Trace.Warn bus ~now:0. make;
  Alcotest.(check int) "warn-bounded thunk runs" 1 !built;
  (* Interest only licenses skipping: delivery is not filtered. *)
  Alcotest.(check int) "delivered regardless of actual severity" 1 !delivered;
  (* A lower-interest subscriber reopens the bus. *)
  Trace.subscribe ~interest:Trace.Debug bus (fun ~time:_ _ -> ());
  Trace.emit ~bound:Trace.Debug bus ~now:0. make;
  Alcotest.(check int) "debug interest restores construction" 2 !built

let severity_rank = function Trace.Debug -> 0 | Trace.Info -> 1 | Trace.Warn -> 2

let tiny_scale =
  {
    Scenario.peers = 12;
    aus = 2;
    quorum = 3;
    max_disagree = 1;
    outer_circle = 3;
    reference_target = 6;
    years = 0.1;
    runs = 1;
    seed = 5;
  }

let capture_run ~interest =
  let cfg = Scenario.config tiny_scale in
  let population = Scenario.build ~cfg ~seed:5 Scenario.No_attack in
  let acc = ref [] in
  Lockss.Trace.subscribe ~interest
    (Lockss.Population.trace population)
    (fun ~time event ->
      if severity_rank (Trace.severity event) >= severity_rank interest then
        acc := Json.to_string (Trace.to_json ~time event) :: !acc);
  Lockss.Population.run population ~until:(Duration.of_days 36.);
  List.rev !acc

let test_emit_severity_parity () =
  (* The in-tree call sites' declared bounds must never skip an event an
     interested subscriber would have kept: a Warn-interest run has to
     see exactly the Warn-or-worse slice of the full Debug capture. *)
  let all = capture_run ~interest:Trace.Debug in
  let warn_only = capture_run ~interest:Trace.Warn in
  let expected =
    List.filter
      (fun line ->
        match Json.of_string line with
        | Ok json ->
          (match Trace.of_json json with
          | Ok (_, event) -> severity_rank (Trace.severity event) >= 2
          | Error _ -> false)
        | Error _ -> false)
      all
  in
  Alcotest.(check bool) "the debug capture is non-trivial" true (List.length all > 100);
  Alcotest.(check (list string)) "warn capture = filtered debug capture" expected
    warn_only

(* -- Scenario trace files: jsonl and binary agree ----------------------- *)

(* [report_trace ~scale ~seed ~years dir] runs a Debug report into [dir]
   and returns its trace, with the trace's JSONL rendering written next
   to it. *)
let report_trace ~scale ~seed ~years dir =
  let probes =
    { Scenario.default_probes with Scenario.report = Some dir; trace_level = Trace.Debug }
  in
  ignore (Scenario.run ~probes ~cfg:(Scenario.config scale) ~seed ~years Scenario.No_attack);
  let binary = Filename.concat dir (Printf.sprintf "seed%d/trace.ntrace" seed) in
  let jsonl = Filename.concat dir "trace.jsonl" in
  Out_channel.with_open_bin jsonl (fun oc ->
      Out_channel.output_string oc (Trace_gen.jsonl binary));
  (jsonl, binary)

let test_run_trace_encodings_agree () =
  Trace_gen.with_report_dir (fun dir ->
      let jsonl_file, binary_file = report_trace ~scale:tiny_scale ~seed:5 ~years:0.1 dir in
      Alcotest.(check bool) "the report's trace is binary" true
        (Trace_file.detect binary_file = Trace_file.Binary);
      (* The two encodings of the same run must analyze
         byte-identically. *)
      let report path =
        let analyzer = Obs.Analyze.create () in
        Obs.Analyze.read_file analyzer path;
        Json.to_string (Obs.Analyze.report_json analyzer)
      in
      Alcotest.(check string) "identical trace-report" (report jsonl_file)
        (report binary_file);
      (* And reading the JSONL back reproduces the stream. *)
      let records path =
        let acc = ref [] in
        ignore
          (Trace_file.iter path ~f:(fun ~line:_ result ->
               match result with
               | Ok json -> acc := json :: !acc
               | Error msg -> Alcotest.failf "%s record: %s" path msg));
        List.rev !acc
      in
      Alcotest.(check bool) "identical json streams" true
        (records jsonl_file = records binary_file))

(* -- Offline reports pinned ------------------------------------------------ *)

(* A seeded 0.3-year Debug run's report trace and its JSONL rendering,
   plus a copy of each cut mid-record, read by the offline analyzer and replayed
   through the auditor. The two digests pin both reports over all four
   files, so a change to how traces are read — or how malformed records
   are counted — shows up here. *)
let offline_report_digests () =
  Trace_gen.with_report_dir (fun dir ->
      let scale = { Scenario.bench with Scenario.years = 0.3 } in
      let jsonl, binary = report_trace ~scale ~seed:1 ~years:0.3 dir in
      let with_cut path =
        let whole = read_all path in
        let cut = Filename.concat dir ("cut" ^ Filename.extension path) in
        Out_channel.with_open_bin cut (fun oc ->
            Out_channel.output_string oc (String.sub whole 0 (String.length whole / 2)));
        [ path; cut ]
      in
      let paths = with_cut jsonl @ with_cut binary in
      let analysis path =
        let analyzer = Obs.Analyze.create () in
        Obs.Analyze.read_file analyzer path;
        Json.to_string (Obs.Analyze.report_json analyzer)
      in
      let audit path =
        let auditor = Check.Auditor.create () in
        ignore
          (Trace_file.iter path ~f:(fun ~line:_ result ->
               match result with
               | Ok json -> ignore (Check.Auditor.feed_decoded auditor (Trace.of_json json))
               | Error _ -> ()));
        Check.Auditor.finish auditor;
        Json.to_string (Check.Auditor.report_json auditor)
      in
      let digest report = Digest.to_hex (Digest.string (String.concat "\n" (List.map report paths))) in
      (digest analysis, digest audit))

let test_offline_reports_pinned () =
  let analysis, audit = offline_report_digests () in
  Alcotest.(check string) "analysis report digest" "bed39d23ff3ab1b9418b2a45194eab2e" analysis;
  Alcotest.(check string) "audit report digest" "14773ea837344144f680689cf8f122be" audit

(* -- Profiler ------------------------------------------------------------ *)

let test_profiler_phases () =
  let now = ref 0. in
  let prof = Obs.Profiler.create ~clock:(fun () -> !now) () in
  let result =
    Obs.Profiler.phase prof "setup" (fun () ->
        now := !now +. 1.5;
        42)
  in
  Alcotest.(check int) "phase returns the body's result" 42 result;
  Obs.Profiler.phase prof "setup" (fun () -> now := !now +. 0.5);
  Alcotest.(check (float 1e-9)) "accumulates across calls" 2.
    (Obs.Profiler.phase_seconds prof "setup");
  (try Obs.Profiler.phase prof "run" (fun () -> now := !now +. 3.; failwith "boom")
   with Failure _ -> ());
  Alcotest.(check (float 1e-9)) "exception-safe" 3.
    (Obs.Profiler.phase_seconds prof "run");
  Obs.Profiler.add_phase_time prof "run" 1.;
  Alcotest.(check (float 1e-9)) "external credit" 4.
    (Obs.Profiler.phase_seconds prof "run")

let test_profiler_domains_and_snapshot () =
  let prof = Obs.Profiler.create () in
  Obs.Profiler.note_domain prof ~domain:1 ~busy_s:2. ~tasks:3 ();
  Obs.Profiler.note_domain prof ~domain:0 ~busy_s:1. ~tasks:2 ();
  Obs.Profiler.note_domain prof ~domain:1 ~cpu_s:0.4 ~minor_words:1000.
    ~minor_collections:2 ~major_collections:1 ~busy_s:0.5 ~tasks:1 ();
  (match Obs.Profiler.domain_stats prof with
  | [ d0; d1 ] ->
    Alcotest.(check int) "sorted by id" 0 d0.Obs.Profiler.domain;
    Alcotest.(check (float 1e-9)) "domain 1 busy accumulates" 2.5
      d1.Obs.Profiler.busy_s;
    Alcotest.(check int) "domain 1 tasks accumulate" 4 d1.Obs.Profiler.tasks;
    Alcotest.(check (float 1e-9)) "domain 1 cpu accumulates" 0.4
      d1.Obs.Profiler.cpu_s;
    Alcotest.(check (float 1e-9)) "domain 1 minor words accumulate" 1000.
      d1.Obs.Profiler.minor_words;
    Alcotest.(check int) "domain 1 minor collections" 2
      d1.Obs.Profiler.minor_collections;
    Alcotest.(check int) "domain 1 major collections" 1
      d1.Obs.Profiler.major_collections
  | stats -> Alcotest.failf "expected 2 domains, got %d" (List.length stats));
  Obs.Profiler.sample_gc prof;
  let snapshot = Obs.Profiler.snapshot_json prof in
  List.iter
    (fun key ->
      Alcotest.(check bool) (key ^ " present") true (Json.member key snapshot <> None))
    [ "phases"; "domains"; "gc" ];
  Alcotest.(check bool) "no registry mirror" true (Json.member "registry" snapshot = None)

let test_profiler_gc_delta () =
  let prof = Obs.Profiler.create () in
  let allocated () =
    Obs.Profiler.sample_gc prof;
    match
      Option.bind (Json.member "gc" (Obs.Profiler.snapshot_json prof))
        (Json.member "allocated_words")
    with
    | Some (Json.Float words) -> words
    | _ -> Alcotest.fail "snapshot has no gc.allocated_words"
  in
  let before = allocated () in
  let keep = ref [] in
  for i = 1 to 10_000 do
    keep := string_of_int i :: !keep
  done;
  ignore (Sys.opaque_identity !keep);
  (* quick_stat omits words still in the live minor arena; empty it so
     the allocations above become visible in the counters. *)
  Gc.minor ();
  (* 10k list cells (3 words) and 10k short strings (2+ words). *)
  Alcotest.(check bool) "allocation observed" true (allocated () -. before >= 50_000.)

(* -- Bench gate ---------------------------------------------------------- *)

let obs_doc overhead_full =
  Json.Assoc
    [
      ("repeats", Json.Int 5);
      ( "variants",
        Json.List
          [
            Json.Assoc
              [
                ("variant", Json.String "tracing disabled");
                ("mean_s", Json.Float 0.1);
                ("overhead", Json.Float 1.0);
              ];
            Json.Assoc
              [
                ("variant", Json.String "full file sinks");
                ("mean_s", Json.Float (0.1 *. overhead_full));
                ("overhead", Json.Float overhead_full);
              ];
          ] );
    ]

let test_gate_flatten_keys_by_variant () =
  let paths = List.map fst (Obs.Bench_gate.flatten (obs_doc 2.0)) in
  Alcotest.(check bool) "variant-keyed path" true
    (List.mem "variants.full file sinks.overhead" paths)

let test_gate_passes_within_threshold () =
  let report =
    Obs.Bench_gate.compare_json ~baseline:(obs_doc 2.0) ~current:(obs_doc 2.3) ()
  in
  Alcotest.(check bool) "15% growth under the 25% threshold" true
    (Obs.Bench_gate.ok report)

let test_gate_fails_on_regression () =
  let report =
    Obs.Bench_gate.compare_json ~baseline:(obs_doc 2.0) ~current:(obs_doc 2.8) ()
  in
  Alcotest.(check bool) "40% growth regresses" false (Obs.Bench_gate.ok report);
  match Obs.Bench_gate.regressions report with
  | [ d ] ->
    Alcotest.(check string) "the overhead leaf" "variants.full file sinks.overhead"
      d.Obs.Bench_gate.path
  | ds -> Alcotest.failf "expected 1 regression, got %d" (List.length ds)

let test_gate_speedup_lower_is_worse () =
  let doc speedup =
    Json.Assoc
      [
        ( "targets",
          Json.List
            [
              Json.Assoc
                [
                  ("target", Json.String "stoppage sweep");
                  ("serial_s", Json.Float 10.);
                  ("speedup", Json.Float speedup);
                ];
            ] );
      ]
  in
  Alcotest.(check bool) "speedup gain passes" true
    (Obs.Bench_gate.ok (Obs.Bench_gate.compare_json ~baseline:(doc 2.) ~current:(doc 3.) ()));
  Alcotest.(check bool) "speedup collapse regresses" false
    (Obs.Bench_gate.ok (Obs.Bench_gate.compare_json ~baseline:(doc 2.) ~current:(doc 1.) ()))

let test_gate_missing_tracked_fails () =
  let report =
    Obs.Bench_gate.compare_json ~baseline:(obs_doc 2.0)
      ~current:(Json.Assoc [ ("repeats", Json.Int 5) ])
      ()
  in
  Alcotest.(check bool) "missing tracked metric fails" false (Obs.Bench_gate.ok report);
  Alcotest.(check bool) "reported as missing" true
    (List.mem "variants.full file sinks.overhead" report.Obs.Bench_gate.missing_tracked)

let test_gate_absolutes_informational () =
  (* Wall-clock absolutes may drift arbitrarily without failing. *)
  let base = obs_doc 2.0 in
  let current =
    Json.Assoc
      [
        ("repeats", Json.Int 5);
        ( "variants",
          Json.List
            [
              Json.Assoc
                [
                  ("variant", Json.String "tracing disabled");
                  ("mean_s", Json.Float 0.9);
                  ("overhead", Json.Float 1.0);
                ];
              Json.Assoc
                [
                  ("variant", Json.String "full file sinks");
                  ("mean_s", Json.Float 1.9);
                  ("overhead", Json.Float 2.1);
                ];
            ] );
      ]
  in
  Alcotest.(check bool) "9x slower wall-clock still passes" true
    (Obs.Bench_gate.ok (Obs.Bench_gate.compare_json ~baseline:base ~current ()))

let test_gate_neutral_slackens_lucky_baseline () =
  (* A chaos run can legitimately land below 1.0 overhead (faults drop
     messages). Drifting back to the neutral must not fail; moving past
     the neutral by the threshold must. *)
  let doc overhead = Json.Assoc [ ("overhead", Json.Float overhead) ] in
  Alcotest.(check bool) "0.69 -> 1.0 passes (return to neutral)" true
    (Obs.Bench_gate.ok
       (Obs.Bench_gate.compare_json ~baseline:(doc 0.69) ~current:(doc 1.0) ()));
  Alcotest.(check bool) "0.69 -> 1.2 passes (within threshold of neutral)" true
    (Obs.Bench_gate.ok
       (Obs.Bench_gate.compare_json ~baseline:(doc 0.69) ~current:(doc 1.2) ()));
  Alcotest.(check bool) "0.69 -> 1.3 regresses (past neutral + threshold)" false
    (Obs.Bench_gate.ok
       (Obs.Bench_gate.compare_json ~baseline:(doc 0.69) ~current:(doc 1.3) ()));
  (* A baseline already above neutral keeps gating against itself. *)
  Alcotest.(check bool) "2.0 -> 2.8 still regresses" false
    (Obs.Bench_gate.ok
       (Obs.Bench_gate.compare_json ~baseline:(doc 2.0) ~current:(doc 2.8) ()))

let test_gate_slowdown_tracked () =
  let doc v = Json.Assoc [ ("slowdown", Json.Float v) ] in
  Alcotest.(check bool) "slowdown growth past neutral regresses" false
    (Obs.Bench_gate.ok
       (Obs.Bench_gate.compare_json ~baseline:(doc 1.1) ~current:(doc 1.6) ()));
  Alcotest.(check bool) "slowdown shrink passes" true
    (Obs.Bench_gate.ok
       (Obs.Bench_gate.compare_json ~baseline:(doc 1.1) ~current:(doc 0.8) ()))

let test_gate_words_per_event_tracked () =
  (* Allocation per event is deterministic, so it gates with no neutral:
     growth past the threshold fails, shrinking never does. *)
  let doc v = Json.Assoc [ ("words_per_event", Json.Float v) ] in
  Alcotest.(check bool) "within threshold passes" true
    (Obs.Bench_gate.ok
       (Obs.Bench_gate.compare_json ~baseline:(doc 400.) ~current:(doc 450.) ()));
  Alcotest.(check bool) "allocation bloat regresses" false
    (Obs.Bench_gate.ok
       (Obs.Bench_gate.compare_json ~baseline:(doc 400.) ~current:(doc 600.) ()));
  Alcotest.(check bool) "allocation reduction passes" true
    (Obs.Bench_gate.ok
       (Obs.Bench_gate.compare_json ~baseline:(doc 400.) ~current:(doc 150.) ()))

let parallel_doc ~degenerate ~speedup =
  Json.Assoc
    ([ ("requested_jobs", Json.Int 4); ("effective_jobs", Json.Int 1) ]
    @ (if degenerate then [ ("degenerate", Json.Bool true) ] else [])
    @ [
        ( "targets",
          Json.List
            [
              Json.Assoc
                [
                  ("target", Json.String "stoppage sweep");
                  ("speedup", Json.Float speedup);
                ];
            ] );
      ])

let test_gate_degenerate_skips_tracked () =
  (* Current artifact degenerate while the baseline pin was live: the
     gate stopped measuring what it gates. That used to pass all-green;
     it is now a distinct failure with its own report bucket... *)
  let report =
    Obs.Bench_gate.compare_json
      ~baseline:(parallel_doc ~degenerate:false ~speedup:2.0)
      ~current:(parallel_doc ~degenerate:true ~speedup:1.0)
      ()
  in
  Alcotest.(check bool) "live pin gone degenerate fails the gate" false
    (Obs.Bench_gate.ok report);
  Alcotest.(check (list string))
    "degenerate_current names the path"
    [ "targets.stoppage sweep.speedup" ]
    report.Obs.Bench_gate.degenerate_current;
  Alcotest.(check bool) "not conflated with baseline-degenerate skips" true
    (report.Obs.Bench_gate.skipped = []);
  Alcotest.(check bool) "not conflated with value regressions" true
    (Obs.Bench_gate.regressions report = []);
  (* ... and the opt-out demotes it to a warning for intentional
     environment changes. *)
  let allowed =
    Obs.Bench_gate.compare_json ~allow_degenerate_current:true
      ~baseline:(parallel_doc ~degenerate:false ~speedup:2.0)
      ~current:(parallel_doc ~degenerate:true ~speedup:1.0)
      ()
  in
  Alcotest.(check bool) "--allow-degenerate passes" true
    (Obs.Bench_gate.ok allowed);
  Alcotest.(check (list string))
    "still surfaced when allowed"
    [ "targets.stoppage sweep.speedup" ]
    allowed.Obs.Bench_gate.degenerate_current;
  (* The degenerate subtree is enumerated (document root here, the
     [degenerate:true] member sits at top level) and named on the
     verdict line — a gate that measured nothing must say so. *)
  Alcotest.(check (list string))
    "degenerate subtree enumerated" [ "" ]
    report.Obs.Bench_gate.degenerate_subtrees;
  let rendered = Format.asprintf "%a" Obs.Bench_gate.pp_report report in
  Alcotest.(check bool) "verdict line names the skipped subtree" true
    (let needle = "1 degenerate subtree skipped: (root)" in
     let nlen = String.length needle in
     let rec has i =
       i + nlen <= String.length rendered
       && (String.sub rendered i nlen = needle || has (i + 1))
     in
     has 0);
  (* Degenerate baseline also skips, including the missing-tracked check. *)
  let report =
    Obs.Bench_gate.compare_json
      ~baseline:(parallel_doc ~degenerate:true ~speedup:1.0)
      ~current:(Json.Assoc [ ("requested_jobs", Json.Int 4) ])
      ()
  in
  Alcotest.(check bool) "degenerate baseline never demands the metric" true
    (Obs.Bench_gate.ok report);
  Alcotest.(check bool) "absent metric reported as skipped, not missing" true
    (List.mem "targets.stoppage sweep.speedup" report.Obs.Bench_gate.skipped);
  (* Neither side degenerate: the same collapse fails as before. *)
  Alcotest.(check bool) "non-degenerate collapse still regresses" false
    (Obs.Bench_gate.ok
       (Obs.Bench_gate.compare_json
          ~baseline:(parallel_doc ~degenerate:false ~speedup:2.0)
          ~current:(parallel_doc ~degenerate:false ~speedup:1.0)
          ()))

(* Generated gate docs: lists keyed by [variant], [target] and [name]
   whose entries carry tracked leaves, an informational [cpu_s] and
   sometimes a [degenerate] subtree. Each metric's expected bad
   direction and neutral are restated here, independently of
   [tracked_of_path]. *)
type gate_entry = {
  metrics : (string * float) list;
  cpu_s : float;
  degenerate : bool;
}

let gate_lists = [ ("variants", "variant"); ("targets", "target"); ("ratios", "name") ]

(* [`Higher of neutral] or [`Lower] (no neutral). *)
let gate_metric_rule = function
  | "overhead" | "slowdown" -> `Higher (Some 1.0)
  | "words_per_event" -> `Higher None
  | _ -> `Lower

let render_gate_doc ?(edit = fun _ _ _ v -> Some v) doc =
  Json.Assoc
    (("repeats", Json.Int 5)
    :: List.map2
         (fun (list, member) entries ->
           ( list,
             Json.List
               (List.mapi
                  (fun i e ->
                    Json.Assoc
                      (((member, Json.String (Printf.sprintf "e%d" i))
                       :: List.filter_map
                            (fun (m, v) ->
                              Option.map (fun v -> (m, Json.Float v)) (edit list i m v))
                            e.metrics)
                      @ [
                          ("cpu_s", Json.Float e.cpu_s);
                          ("degenerate", Json.Bool e.degenerate);
                        ]))
                  entries) ))
         gate_lists doc)

let gate_case_gen =
  let open QCheck2.Gen in
  let entry =
    let* metrics =
      list_size (int_range 1 4)
        (pair (oneofl [ "overhead"; "speedup"; "slowdown"; "words_per_event" ])
           (float_range 0.1 10.))
    in
    let metrics = List.sort_uniq (fun (a, _) (b, _) -> String.compare a b) metrics in
    let* cpu_s = float_range 0.001 1. in
    let* degenerate = frequency [ (3, return false); (1, return true) ] in
    return { metrics; cpu_s; degenerate }
  in
  let* doc = list_repeat (List.length gate_lists) (list_size (int_range 0 4) entry) in
  (* The leaf to move or drop, from an entry the baseline gates. *)
  let live =
    List.concat
      (List.map2
         (fun (list, _) entries ->
           List.concat
             (List.mapi
                (fun i e ->
                  if e.degenerate then []
                  else List.map (fun (m, v) -> (list, i, m, v)) e.metrics)
                entries))
         gate_lists doc)
  in
  let* leaf = if live = [] then return None else map Option.some (oneofl live) in
  let* threshold = float_range 1. 90. in
  let* within = float_range 0. 0.99 in
  let* upward = bool in
  let* past = float_range 0.01 0.9 in
  return (doc, leaf, threshold, within, upward, past)

let test_gate_qcheck_generated =
  QCheck2.Test.make ~name:"generated docs: self ok, moves gate by threshold, drops fail"
    ~count:300 gate_case_gen (fun (doc, leaf, threshold, within, upward, past) ->
      let baseline = render_gate_doc doc in
      let ok current =
        Obs.Bench_gate.ok
          (Obs.Bench_gate.compare_json ~threshold_pct:threshold ~baseline ~current ())
      in
      let self_ok = ok baseline in
      match leaf with
      | None -> self_ok
      | Some (list, i, metric, b) ->
        let set v =
          render_gate_doc doc ~edit:(fun l j m old ->
              if (l, j, m) = (list, i, metric) then v else Some old)
        in
        let frac = threshold /. 100. in
        let bad =
          match gate_metric_rule metric with
          | `Higher neutral ->
            Option.fold ~none:b ~some:(Float.max b) neutral *. (1. +. frac) *. (1. +. past)
          | `Lower -> b *. (1. -. frac) *. (1. -. past)
        in
        let near = b *. if upward then 1. +. (within *. frac) else 1. -. (within *. frac) in
        self_ok
        && (not (ok (set (Some bad))))
        && ok (set (Some near))
        && not (ok (set None)))

(* -- Suite --------------------------------------------------------------- *)

let () =
  let tc = Alcotest.test_case in
  Alcotest.run "trace_pipeline"
    [
      ( "sink",
        [
          tc "size bound" `Quick test_sink_size_bound;
          tc "explicit flush" `Quick test_sink_explicit_flush;
          tc "time bound on simulated time" `Quick test_sink_time_bound;
          tc "close semantics" `Quick test_sink_close_semantics;
          tc "flush on exception" `Quick test_sink_flush_on_exception;
          tc "append and reopen" `Quick test_sink_append_reopen;
          tc "series buffers rows" `Quick test_series_buffers_rows;
        ] );
      ( "binary trace",
        [
          tc "taxonomy round-trip" `Quick test_btrace_round_trip_taxonomy;
          tc "smaller than jsonl" `Quick test_btrace_smaller_than_jsonl;
          tc "truncation detected" `Quick test_btrace_truncation_detected;
          tc "late atom registration raises" `Quick test_btrace_late_atom_raises;
          tc "bad magic rejected" `Quick test_btrace_bad_magic;
          tc "dangling intern ref rejected" `Quick test_btrace_bad_intern_ref;
          tc "trailing record bytes rejected" `Quick test_btrace_trailing_bytes_in_record;
          QCheck_alcotest.to_alcotest test_btrace_qcheck_round_trip;
        ] );
      ( "trace files",
        [
          tc "format detection" `Quick test_trace_file_detect;
          tc "jsonl iteration is line-tolerant" `Quick test_trace_file_iter_jsonl_tolerant;
          tc "binary iteration stops at corruption" `Quick test_trace_file_iter_binary_stops;
          tc "run encodings agree" `Slow test_run_trace_encodings_agree;
          tc "offline reports pinned" `Quick test_offline_reports_pinned;
        ] );
      ( "view fast path",
        [
          test_view_agrees_with_json;
          test_binary_sink_byte_parity;
          tc "analyzer parity json vs view" `Quick test_analyzer_parity_json_vs_view;
          tc "of_json takes a key's first binding" `Quick test_view_of_json_first_binding;
        ] );
      ( "schema",
        [
          tc "generator covers every kind" `Quick test_kinds_covered;
          tc "encodings match pinned digests" `Quick test_pinned_encodings;
          test_involves_and_au_of;
          test_typed_reader_round_trip;
          tc "typed reader accepts any key order" `Quick test_typed_reader_any_key_order;
        ] );
      ( "emit short-circuit",
        [
          tc "bound below interest skips the thunk" `Quick test_emit_bound_skips_thunk;
          tc "call-site bounds lose no events" `Slow test_emit_severity_parity;
        ] );
      ( "profiler",
        [
          tc "phase accounting" `Quick test_profiler_phases;
          tc "domains and snapshot" `Quick test_profiler_domains_and_snapshot;
          tc "gc delta" `Quick test_profiler_gc_delta;
        ] );
      ( "bench gate",
        [
          tc "flatten keys lists by variant" `Quick test_gate_flatten_keys_by_variant;
          tc "within threshold passes" `Quick test_gate_passes_within_threshold;
          tc "regression fails" `Quick test_gate_fails_on_regression;
          tc "speedup is lower-is-worse" `Quick test_gate_speedup_lower_is_worse;
          tc "missing tracked metric fails" `Quick test_gate_missing_tracked_fails;
          tc "absolutes are informational" `Quick test_gate_absolutes_informational;
          tc "neutral slackens lucky baselines" `Quick
            test_gate_neutral_slackens_lucky_baseline;
          tc "slowdown is tracked" `Quick test_gate_slowdown_tracked;
          tc "words_per_event is tracked" `Quick test_gate_words_per_event_tracked;
          tc "degenerate prefixes skip the gate" `Quick
            test_gate_degenerate_skips_tracked;
          QCheck_alcotest.to_alcotest test_gate_qcheck_generated;
        ] );
    ]
