(** Offline (and live) trace analysis: poll spans, per-peer effort
    ledger, per-phase latency distributions and anomaly detection, from
    a stream of trace events.

    Feed events one of three ways:
    - {!feed_view} with events projected to a {!View.t} — this is how
      the live builders attach to the trace bus;
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

(** [feed_view t v] routes one trace event to the span builder and the
    ledger. *)
val feed_view : t -> View.t -> unit

(** [feed_record t ~line result] counts one trace record and feeds it;
    an [Error] (a JSONL line that does not parse, a binary record that
    does not frame) is recorded as a {!Span.Malformed_line} anomaly at
    [line]. *)
val feed_record : t -> line:int -> (Json.t, string) result -> unit

(** [read_file t path] feeds a whole trace file, in either encoding,
    through {!Trace_file.iter_views}: the counts and anomalies of
    {!feed_record} over {!Trace_file.iter}, without building the JSON
    tree of a binary trace. *)
val read_file : t -> string -> unit

(** Records seen by {!feed_record}: non-blank JSONL lines or binary
    records (0 when fed live). *)
val lines : t -> int

val anomalies : t -> Span.anomaly list
val anomaly_count : t -> int

(** {2 Reports} *)

val report_json : t -> Json.t
val pp_report : Format.formatter -> t -> unit
