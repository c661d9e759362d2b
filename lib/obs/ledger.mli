(** Per-peer provable-effort ledger, reconstructed from trace events.

    The ledger consumes trace events as {!View.t} projections and
    accumulates, per peer, the provable effort it {e spent} and the
    effort other peers {e proved to it}, split by protocol phase. It
    also counts the poll/vote/invitation outcomes each peer was
    responsible for.

    Because every effort charge in the simulator is routed through the
    tracing helpers that also update the global metrics, summing the
    ledger over all peers reconstructs the [Metrics] aggregates exactly
    (up to float addition order); {!reconcile} checks that invariant.

    This module deliberately speaks only views: it lives below the
    protocol library so it can be reused offline on trace files without
    linking the simulator. *)

type phase = Admission | Solicitation | Voting | Evaluation | Repair

val phase_index : phase -> int

type entry = {
  peer : int;
  spent_loyal : float array;  (** effort spent in loyal roles, by {!phase_index} *)
  spent_adversary : float array;  (** effort spent doing adversary work *)
  received : float array;  (** effort proved to this peer by others *)
  mutable polls_started : int;
  mutable polls_succeeded : int;
  mutable polls_inquorate : int;
  mutable polls_alarmed : int;
  mutable votes_sent : int;
  mutable invitations_admitted : int;
      (** invitations past the admission filter (considered) *)
  mutable invitations_accepted : int;
  mutable invitations_refused : int;
  mutable invitations_dropped : int;
  mutable repairs : int;
}

val spent_loyal_total : entry -> float
val spent_adversary_total : entry -> float
val received_total : entry -> float

type t

val create : unit -> t

(** [feed_view t v] consumes one trace event. Events that carry no
    ledger information (faults, crashes) are ignored. *)
val feed_view : t -> View.t -> unit

(** [entries t] is every peer seen so far, sorted by peer id. *)
val entries : t -> entry list

val find : t -> int -> entry option

type totals = {
  loyal_effort : float;
  adversary_effort : float;
  received_effort : float;
  total_polls_started : int;
  total_polls_succeeded : int;
  total_polls_inquorate : int;
  total_polls_alarmed : int;
  total_votes_sent : int;
  total_invitations_admitted : int;
  peer_count : int;
}

val totals : t -> totals

(** [cost_ratio t] is adversary effort over loyal effort — the ledger's
    reconstruction of the cost-ratio defense metric. [infinity] when no
    loyal effort was recorded. *)
val cost_ratio : t -> float

(** [effort_per_successful_poll t] is total loyal effort divided by
    successful polls — the ledger's reconstruction of the friction
    numerator. [infinity] when no poll succeeded. *)
val effort_per_successful_poll : t -> float

type reconciliation = {
  loyal_delta : float;  (** relative error vs the metrics aggregate *)
  adversary_delta : float;
  polls_succeeded_delta : int;
  polls_inquorate_delta : int;
  polls_alarmed_delta : int;
  votes_delta : int;
  invitations_delta : int;
      (** admitted invitations vs the metrics' considered count *)
  ok : bool;
}

(** [reconcile t ~loyal_effort ...] compares the ledger totals with the
    corresponding [Metrics] aggregates (passed as plain numbers so this
    module needs no simulator dependency). Float fields compare by
    relative error with tolerance [1e-6]; counters must match exactly. *)
val reconcile :
  t ->
  loyal_effort:float ->
  adversary_effort:float ->
  polls_succeeded:int ->
  polls_inquorate:int ->
  polls_alarmed:int ->
  votes_supplied:int ->
  invitations_considered:int ->
  reconciliation

val pp_reconciliation : Format.formatter -> reconciliation -> unit
val reconciliation_to_json : reconciliation -> Json.t

val to_json : t -> Json.t

(** [pp] renders the per-peer table (efforts as humanised durations). *)
val pp : Format.formatter -> t -> unit
