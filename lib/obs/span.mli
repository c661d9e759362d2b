(** Causal poll spans, reconstructed from trace events.

    A span is one poll's lifecycle, keyed by the [(poller, au, poll_id)]
    correlation triple every poll-scoped trace event carries: started,
    solicited, voted on, evaluated, repaired, concluded. The builder
    consumes trace events in JSON form (either live, by bridging the
    trace bus through the event serialiser, or offline from a trace
    file) and maintains open and closed spans plus an anomaly
    list.

    Anomalies are trace shapes a healthy, fault-free run never
    produces: malformed lines, events for polls whose start was never
    seen (orphans — brute-force attack traffic produces these by
    design, since adversary pollers never announce their polls), polls
    superseded before concluding, duplicate conclusions, and
    poller-side events after the poll concluded.

    Voter-side events arriving after a conclusion are {e not}
    anomalies: conclusion is an event at the poller, and votes or
    receipts legitimately cross it in flight. They are counted as
    informational "late" events instead. *)

type outcome = Success | Inquorate | Alarmed

val outcome_to_string : outcome -> string
val outcome_of_string : string -> outcome option

type span = {
  poller : int;
  au : int;
  poll_id : int;
  started_at : float;
  inner_candidates : int;
  mutable solicitations : int;
  mutable invitations_accepted : int;
  mutable invitations_refused : int;
  mutable invitations_dropped : int;
  mutable votes : int;
  mutable first_vote_at : float option;
  mutable evaluation_at : float option;
  mutable votes_at_evaluation : int;
  mutable repairs : int;
  mutable first_repair_at : float option;
  mutable concluded_at : float option;
  mutable outcome : outcome option;  (** [None] also for abandoned spans *)
  mutable effort_spent : float;  (** charges correlated with this poll, any peer *)
  mutable effort_received : float;  (** receipts correlated with this poll *)
  mutable late_events : int;  (** voter-side events after the conclusion *)
}

(** {2 Phase durations} — [None] when the span never reached the phase. *)

(** Poll start to evaluation start. *)
val solicitation_duration : span -> float option

(** Evaluation start to first repair, or to conclusion if none. *)
val evaluation_duration : span -> float option

(** First repair to conclusion. *)
val repair_duration : span -> float option

(** Poll start to conclusion. *)
val total_duration : span -> float option

type anomaly =
  | Malformed_line of { line : int; error : string }
  | Orphan_event of { kind : string; poller : int; au : int; poll_id : int; time : float }
  | Abandoned_poll of { poller : int; au : int; poll_id : int; started_at : float }
  | Duplicate_conclusion of { poller : int; au : int; poll_id : int; time : float }
  | Poller_event_after_conclusion of {
      kind : string;
      poller : int;
      au : int;
      poll_id : int;
      time : float;
    }

val pp_anomaly : Format.formatter -> anomaly -> unit
val anomaly_to_json : anomaly -> Json.t

type t

val create : unit -> t

(** [feed t json] consumes one trace event (timestamp read from its
    ["t"] field). Events without poll correlation are ignored. *)
val feed : t -> Json.t -> unit

(** [feed_view t v] is {!feed} without the JSON detour — the live
    analyzers build a {!View.t} straight from the typed event. [feed]
    is [of_json] composed with this, so both paths stay in lockstep. *)
val feed_view : t -> View.t -> unit

(** [note_malformed t ~line ~error] records a {!Malformed_line} anomaly
    — called by the offline reader for lines that fail to parse. *)
val note_malformed : t -> line:int -> error:string -> unit

(** Concluded (and abandoned) spans, in order of closing. *)
val closed_spans : t -> span list

(** Spans still open when the trace ended — informational, the natural
    state of polls in flight at shutdown. *)
val open_spans : t -> span list

(** All spans, sorted by start time. *)
val spans : t -> span list

(** Anomalies in discovery order. One {!Orphan_event} is recorded per
    orphan poll key; {!orphan_events} counts every orphaned event. *)
val anomalies : t -> anomaly list

val anomaly_count : t -> int
val orphan_events : t -> int
val late_events : t -> int
val event_count : t -> int
val span_to_json : span -> Json.t
