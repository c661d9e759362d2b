(** Flat, analyzer-facing projection of one trace event.

    The live span builder and effort ledger used to consume events by
    serialising them to JSON on the bus and re-dissecting the JSON with
    linear [member] lookups — the dominant cost of live analysis. A
    view is the same information as a flat record of options, cheap to
    build directly from a typed event ([Lockss.Trace.to_view]) and
    cheap to read. [of_json] recovers a view from a serialised event so
    offline and live paths share one feeding code path.

    Only the fields the analyzers consult are represented; events carry
    more (attempt counters, content versions, fault descriptors) that
    the span builder and ledger ignore. *)

type t = {
  kind : string;
  time : float;
  poller : int option;
  voter : int option;
  claimed : int option;  (** claimed poller id on [invitation_dropped] *)
  peer : int option;
  from_ : int option;  (** sender on [effort_received] *)
  au : int option;
  poll_id : int option;
  inner_candidates : int option;
  votes : int option;
  seconds : float option;
  role : string option;
  phase : string option;
  outcome : string option;
}

(** [of_json json] projects a serialised trace event; [None] when
    [json] has no ["kind"] string member. Missing ["t"] defaults to
    [0.], matching the JSON analyzers. *)
val of_json : Json.t -> t option
