module Duration = Repro_prelude.Duration
module Stats = Repro_prelude.Stats

type t = {
  span_builder : Span.t;
  ledger : Ledger.t;
  mutable lines : int;
  mutable malformed : int;
}

let create () =
  { span_builder = Span.create (); ledger = Ledger.create (); lines = 0; malformed = 0 }

let span_builder t = t.span_builder
let ledger t = t.ledger

let feed_view t view =
  Span.feed_view t.span_builder view;
  Ledger.feed_view t.ledger view

let feed t json =
  match View.of_json json with None -> () | Some view -> feed_view t view

let feed_record t ~line result =
  t.lines <- t.lines + 1;
  match result with
  | Ok json -> feed t json
  | Error error ->
    t.malformed <- t.malformed + 1;
    Span.note_malformed t.span_builder ~line ~error

let read_file t path = ignore (Trace_file.iter path ~f:(feed_record t))

let lines t = t.lines
let anomalies t = Span.anomalies t.span_builder
let anomaly_count t = Span.anomaly_count t.span_builder

(* -- Latency distributions ---------------------------------------------- *)

type dist = {
  label : string;
  count : int;
  mean : float;
  p50 : float;
  p90 : float;
  max : float;
}

let dist_of label values =
  match values with
  | [] -> { label; count = 0; mean = nan; p50 = nan; p90 = nan; max = nan }
  | _ ->
    {
      label;
      count = List.length values;
      mean = Stats.mean values;
      p50 = Stats.percentile 50. values;
      p90 = Stats.percentile 90. values;
      max = List.fold_left Float.max neg_infinity values;
    }

let phase_extractors =
  [
    ("solicitation", Span.solicitation_duration);
    ("evaluation", Span.evaluation_duration);
    ("repair", Span.repair_duration);
    ( "first_vote",
      fun (s : Span.span) ->
        Option.map (fun at -> at -. s.Span.started_at) s.Span.first_vote_at );
    ("total", Span.total_duration);
  ]

let phase_latencies t =
  let spans = Span.spans t.span_builder in
  List.map
    (fun (label, extract) -> dist_of label (List.filter_map extract spans))
    phase_extractors

let histogram_buckets =
  [
    ("<1h", Duration.hour);
    ("1h-6h", 6. *. Duration.hour);
    ("6h-1d", Duration.of_days 1.);
    ("1d-3d", Duration.of_days 3.);
    ("3d-7d", Duration.of_days 7.);
    ("7d-14d", Duration.of_days 14.);
    ("14d-30d", Duration.of_days 30.);
  ]

let overflow_label = ">=30d"

let duration_histogram t =
  let durations = List.filter_map Span.total_duration (Span.spans t.span_builder) in
  let counts = Array.make (List.length histogram_buckets + 1) 0 in
  List.iter
    (fun d ->
      let rec place i = function
        | [] -> counts.(i) <- counts.(i) + 1
        | (_, bound) :: rest ->
          if d < bound then counts.(i) <- counts.(i) + 1 else place (i + 1) rest
      in
      place 0 histogram_buckets)
    durations;
  List.mapi (fun i (label, _) -> (label, counts.(i))) histogram_buckets
  @ [ (overflow_label, counts.(List.length histogram_buckets)) ]

(* -- Reports ------------------------------------------------------------ *)

type poll_counts = {
  total : int;
  concluded : int;
  success : int;
  inquorate : int;
  alarmed : int;
  abandoned : int;
  still_open : int;
}

let poll_counts t =
  let closed = Span.closed_spans t.span_builder in
  let still_open = List.length (Span.open_spans t.span_builder) in
  let count p = List.length (List.filter p closed) in
  let success = count (fun (s : Span.span) -> s.Span.outcome = Some Span.Success) in
  let inquorate = count (fun (s : Span.span) -> s.Span.outcome = Some Span.Inquorate) in
  let alarmed = count (fun (s : Span.span) -> s.Span.outcome = Some Span.Alarmed) in
  let abandoned =
    count (fun (s : Span.span) -> s.Span.outcome = None && s.Span.concluded_at = None)
  in
  {
    total = List.length closed + still_open;
    concluded = success + inquorate + alarmed;
    success;
    inquorate;
    alarmed;
    abandoned;
    still_open;
  }

let dist_to_json d =
  Json.Assoc
    [
      ("phase", Json.String d.label);
      ("count", Json.Int d.count);
      ("mean", Json.Float d.mean);
      ("p50", Json.Float d.p50);
      ("p90", Json.Float d.p90);
      ("max", Json.Float d.max);
    ]

let report_json t =
  let polls = poll_counts t in
  Json.Assoc
    [
      ("lines", Json.Int t.lines);
      ("events", Json.Int (Span.event_count t.span_builder));
      ("malformed_lines", Json.Int t.malformed);
      ( "polls",
        Json.Assoc
          [
            ("total", Json.Int polls.total);
            ("concluded", Json.Int polls.concluded);
            ("success", Json.Int polls.success);
            ("inquorate", Json.Int polls.inquorate);
            ("alarmed", Json.Int polls.alarmed);
            ("abandoned", Json.Int polls.abandoned);
            ("open", Json.Int polls.still_open);
          ] );
      ("phase_latency", Json.List (List.map dist_to_json (phase_latencies t)));
      ( "duration_histogram",
        Json.List
          (List.map
             (fun (label, count) ->
               Json.Assoc [ ("bucket", Json.String label); ("count", Json.Int count) ])
             (duration_histogram t)) );
      ("ledger", Ledger.to_json t.ledger);
      ("anomalies", Json.List (List.map Span.anomaly_to_json (anomalies t)));
      ( "informational",
        Json.Assoc
          [
            ("late_voter_events", Json.Int (Span.late_events t.span_builder));
            ("orphan_events", Json.Int (Span.orphan_events t.span_builder));
            ("open_spans", Json.Int polls.still_open);
          ] );
    ]

let max_printed_anomalies = 50

let pp_duration_cell ppf v =
  if Float.is_nan v then Format.pp_print_string ppf "-" else Duration.pp ppf v

let pp_report ppf t =
  let polls = poll_counts t in
  Format.fprintf ppf "@[<v>";
  Format.fprintf ppf "trace: %d lines, %d events, %d malformed@," t.lines
    (Span.event_count t.span_builder)
    t.malformed;
  Format.fprintf ppf
    "polls: %d spans — %d concluded (%d success, %d inquorate, %d alarmed), %d \
     abandoned, %d still open at end of trace@,"
    polls.total polls.concluded polls.success polls.inquorate polls.alarmed
    polls.abandoned polls.still_open;
  Format.fprintf ppf "@,per-phase latency:@,";
  Format.fprintf ppf "  %-13s %6s %10s %10s %10s %10s@," "phase" "n" "mean" "p50" "p90"
    "max";
  List.iter
    (fun d ->
      Format.fprintf ppf "  %-13s %6d %10s %10s %10s %10s@," d.label d.count
        (Format.asprintf "%a" pp_duration_cell d.mean)
        (Format.asprintf "%a" pp_duration_cell d.p50)
        (Format.asprintf "%a" pp_duration_cell d.p90)
        (Format.asprintf "%a" pp_duration_cell d.max))
    (phase_latencies t);
  let histogram = duration_histogram t in
  let peak = List.fold_left (fun acc (_, n) -> max acc n) 1 histogram in
  Format.fprintf ppf "@,poll duration histogram:@,";
  List.iter
    (fun (label, count) ->
      let bar = String.make (count * 40 / peak) '#' in
      Format.fprintf ppf "  %-8s %6d %s@," label count bar)
    histogram;
  Format.fprintf ppf "@,effort ledger:@,%a@," Ledger.pp t.ledger;
  Format.fprintf ppf
    "@,informational: %d late voter-side events, %d orphaned events, %d open spans@,"
    (Span.late_events t.span_builder)
    (Span.orphan_events t.span_builder)
    polls.still_open;
  (match anomalies t with
  | [] -> Format.fprintf ppf "anomalies: none@,"
  | list ->
    Format.fprintf ppf "anomalies: %d@," (List.length list);
    List.iteri
      (fun i a ->
        if i < max_printed_anomalies then Format.fprintf ppf "  %a@," Span.pp_anomaly a)
      list;
    let rest = List.length list - max_printed_anomalies in
    if rest > 0 then Format.fprintf ppf "  ... and %d more@," rest);
  Format.fprintf ppf "@]"
