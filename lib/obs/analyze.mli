(** Offline (and live) trace analysis: poll spans, per-peer effort
    ledger, per-phase latency distributions and anomaly detection, from
    a stream of trace events in JSON form.

    Feed events one of three ways:
    - {!feed} with already-parsed JSON values — this is how the live
      builders attach: bridge the trace bus through the trace
      serialiser into [feed];
    - {!feed_record} with one record as {!Trace_file.iter} delivers it
      (malformed records become anomalies, never exceptions);
    - {!read_file} for a whole trace file.

    The report distinguishes {e anomalies} (shapes a healthy fault-free
    run never produces — the fault-free smoke asserts there are none)
    from {e informational} observations (open spans at end of trace,
    voter-side events crossing a conclusion in flight). *)

type t

val create : unit -> t
val span_builder : t -> Span.t
val ledger : t -> Ledger.t

(** [feed t json] routes one trace event to the span builder and the
    ledger. *)
val feed : t -> Json.t -> unit

(** [feed_view t v] is {!feed} on a pre-projected event — the zero-JSON
    path the live bridges use. *)
val feed_view : t -> View.t -> unit

(** [feed_record t ~line result] counts one trace record and feeds it;
    an [Error] (a JSONL line that does not parse, a binary record that
    does not frame) is recorded as a {!Span.Malformed_line} anomaly at
    [line]. *)
val feed_record : t -> line:int -> (Json.t, string) result -> unit

(** [read_file t path] is {!feed_record} over {!Trace_file.iter} of
    [path], in either encoding. *)
val read_file : t -> string -> unit

(** Records seen by {!feed_record}: non-blank JSONL lines or binary
    records (0 when fed live). *)
val lines : t -> int

val anomalies : t -> Span.anomaly list
val anomaly_count : t -> int

(** {2 Latency distributions} *)

type dist = {
  label : string;
  count : int;
  mean : float;
  p50 : float;
  p90 : float;
  max : float;
}

(** [phase_latencies t] summarises, over all spans that reached the
    phase: solicitation (start to evaluation), evaluation (to first
    repair or conclusion), repair (to conclusion), first_vote (start to
    first vote) and total (start to conclusion). *)
val phase_latencies : t -> dist list

(** [duration_histogram t] buckets total poll durations into
    human-scale ranges ([<1h] … [>=30d]); returns [(label, count)]. *)
val duration_histogram : t -> (string * int) list

(** {2 Reports} *)

val report_json : t -> Json.t
val pp_report : Format.formatter -> t -> unit
