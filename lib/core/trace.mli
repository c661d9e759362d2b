(** Structured protocol event tracing.

    A lightweight observer registry the protocol code emits typed events
    into. With no subscribers the cost is one list check per event, so
    production runs pay nothing; tools subscribe to watch poll
    lifecycles, admission decisions and repairs as they happen (see
    [examples/poll_timeline.ml] and [examples/observability_demo.ml]).

    Every poll-lifecycle event carries the full causal correlation key
    [(poller, au, poll_id)] (the dropped-invitation event carries the
    {e claimed} poller), so a poll can be followed from solicitation
    through evaluation to repair and conclusion — live via {!subscribe}
    or offline from a trace file ({!Obs.Span}, {!Obs.Analyze}).

    Beyond raw subscription, this module provides an event taxonomy
    ({!kind}, {!severity}), a {{!sinks} binary sink} and a lossless JSON
    round-trip ({!to_json} / {!of_json}). Each kind's fields are
    described once, as a typed field list, and every encoding and
    decoding is derived from that description, so the encodings cannot
    disagree about a kind. *)

(** {2 Effort taxonomy}

    Provable-effort accounting events classify work by who spends it and
    in which protocol phase, mirroring the paper's effort-balancing
    argument: charges are binned by the {e spender's} activity, receipts
    by the phase whose work generated the proof. *)

(** Whether the charge was booked against the loyal population or the
    adversary (mirrors [Metrics.charge_loyal] / [charge_adversary]). *)
type effort_role = Loyal | Adversary

(** The protocol phase an effort charge belongs to:
    - [Admission]: a voter's consideration and introductory-proof
      verification cost (including garbage invitations);
    - [Solicitation]: a poller's session setup and introductory /
      remaining proof generation;
    - [Voting]: a voter's remaining-proof verification and vote
      computation;
    - [Evaluation]: a poller's vote-proof verification and AU hashing;
    - [Repair]: block hashing on either side of a repair. *)
type effort_phase = Admission | Solicitation | Voting | Evaluation | Repair

(** All effort phases, in declaration order. *)
val all_effort_phases : effort_phase list

(** {2 Admission paths}

    Which filter branch admitted an invitation: via a consumed
    introduction, as an anonymous unknown, or as a known peer with its
    effective (decayed) grade at admission time. *)
type admission_path =
  | Admitted_introduced
  | Admitted_unknown
  | Admitted_known of Grade.t

(** [admission_path_of_decision d] converts the payload of
    [Admission.Admitted d] to its trace representation. *)
val admission_path_of_decision :
  [ `Known of Grade.t | `Unknown | `Introduced ] -> admission_path

val admission_path_to_string : admission_path -> string

(** {2 Reject reasons}

    Why a protocol handler refused to act on a delivered message.
    Hardened handlers (PR 7) validate sender, session, poll id, phase
    and field ranges before acting; anything that fails validation is
    dropped with a [message_rejected] event instead of raising or
    corrupting state:
    - [Bad_au]: the AU index is out of range for the receiving peer;
    - [Not_held]: the peer does not preserve the referenced AU;
    - [Unknown_poll]: no current poll matches the message's poll id;
    - [Uninvited]: the sender was never invited into the poll;
    - [Wrong_state]: the candidate/session exists but is not in a state
      that accepts this message (e.g. a duplicate or late reply);
    - [Wrong_phase]: the poll is not in the phase the message belongs to;
    - [Unknown_session]: no voter session matches the message;
    - [Stale_closed]: the session existed but recently closed;
    - [Bad_block]: the block index is out of range. *)
type reject_reason =
  | Bad_au
  | Not_held
  | Unknown_poll
  | Uninvited
  | Wrong_state
  | Wrong_phase
  | Unknown_session
  | Stale_closed
  | Bad_block

val reject_reason_to_string : reject_reason -> string

(** All reject reasons, in declaration order. *)
val all_reject_reasons : reject_reason list

type event =
  | Poll_started of { poller : Ids.Identity.t; au : Ids.Au_id.t; poll_id : int; inner_candidates : int }
  | Solicitation_sent of {
      poller : Ids.Identity.t;
      voter : Ids.Identity.t;
      au : Ids.Au_id.t;
      poll_id : int;
      attempt : int;
    }
  | Invitation_dropped of {
      voter : Ids.Identity.t;
      claimed : Ids.Identity.t;  (** alleged poller; unauthenticated *)
      au : Ids.Au_id.t;
      poll_id : int;
      reason : Admission.drop_reason;
    }
  | Invitation_admitted of {
      voter : Ids.Identity.t;
      claimed : Ids.Identity.t;  (** alleged poller; unauthenticated *)
      au : Ids.Au_id.t;
      poll_id : int option;  (** [None] for unsolicited (garbage) invitations *)
      path : admission_path;
    }
      (** the admission filter let an invitation through — the checkable
          complement of [Invitation_dropped], consumed by the refractory
          self-clocking invariant *)
  | Invitation_refused of {
      voter : Ids.Identity.t;
      poller : Ids.Identity.t;
      au : Ids.Au_id.t;
      poll_id : int;
    }
      (** admitted but refused: schedule or adaptive-acceptance pushback *)
  | Invitation_accepted of {
      voter : Ids.Identity.t;
      poller : Ids.Identity.t;
      au : Ids.Au_id.t;
      poll_id : int;
    }
  | Vote_sent of { voter : Ids.Identity.t; poller : Ids.Identity.t; au : Ids.Au_id.t; poll_id : int }
  | Poll_sampled of {
      poller : Ids.Identity.t;
      au : Ids.Au_id.t;
      poll_id : int;
      invited : Ids.Identity.t list;  (** the sampled inner circle *)
      reference : Ids.Identity.t list;  (** reference list at sampling time *)
    }
      (** the inner-circle sample a poll drew from its reference list,
          consumed by the sampling and quorum invariants *)
  | Evaluation_started of { poller : Ids.Identity.t; au : Ids.Au_id.t; poll_id : int; votes : int }
  | Repair_applied of {
      poller : Ids.Identity.t;
      au : Ids.Au_id.t;
      poll_id : int;  (** the poll whose evaluation triggered the repair *)
      block : int;
      version : int;
      clean : bool;  (** replica fully clean after this repair *)
    }
  | Poll_concluded of {
      poller : Ids.Identity.t;
      au : Ids.Au_id.t;
      poll_id : int;
      outcome : Metrics.poll_outcome;
    }
  | Effort_charged of {
      peer : Ids.Identity.t;  (** who spent the effort *)
      role : effort_role;
      phase : effort_phase;
      poller : Ids.Identity.t option;  (** poll owner, when known *)
      au : Ids.Au_id.t option;
      poll_id : int option;
      seconds : float;
    }
      (** provable effort spent; emitted at every [Peer.charge] /
          [charge_and_delay] / [charge_adversary] call, so summing these
          reconstructs the [Metrics] effort aggregates exactly *)
  | Effort_received of {
      peer : Ids.Identity.t;  (** the verifier *)
      from_ : Ids.Identity.t;  (** the prover *)
      phase : effort_phase;  (** phase whose work generated the proof *)
      au : Ids.Au_id.t;
      poll_id : int;
      seconds : float;  (** the proven effort *)
    }
      (** a provable-effort proof verified successfully; emitted only
          when effort balancing is enabled *)
  | Message_rejected of {
      peer : Ids.Identity.t;  (** the receiver that refused to act *)
      from_ : Ids.Identity.t;  (** claimed sender identity; unauthenticated *)
      au : Ids.Au_id.t;  (** claimed AU — may itself be corrupt *)
      poll_id : int option;  (** claimed poll id, when the payload has one *)
      msg_kind : string;  (** payload constructor, [Message.kind_string] *)
      reason : reject_reason;
    }
      (** a delivered message failed handler validation and was dropped
          without touching protocol state — the hardened complement of
          raising or silently corrupting tallies *)
  | Fault_dropped of { src : Ids.Identity.t; dst : Ids.Identity.t }
      (** injected message loss (or a copy lost to a crashed endpoint) *)
  | Fault_duplicated of { src : Ids.Identity.t; dst : Ids.Identity.t }
  | Fault_delayed of { src : Ids.Identity.t; dst : Ids.Identity.t; extra : float }
  | Partition_dropped of { src : Ids.Identity.t; dst : Ids.Identity.t }
      (** a send suppressed by a pipe-stoppage partition — previously
          conflated with [Fault_dropped] in the network counters *)
  | Fault_corrupted of { src : Ids.Identity.t; dst : Ids.Identity.t }
      (** one field of a delivered copy was mutated in flight *)
  | Fault_replayed of { src : Ids.Identity.t; dst : Ids.Identity.t; extra : float }
      (** a previously delivered message was re-injected *)
  | Fault_stale of { src : Ids.Identity.t; dst : Ids.Identity.t; extra : float }
      (** a previously delivered message was re-injected after a long
          extra delay, typically after its session closed *)
  | Fault_stray of { src : Ids.Identity.t; dst : Ids.Identity.t }
      (** an unsolicited in-protocol message was forged from a
          never-invited identity *)
  | Node_crashed of { node : Ids.Identity.t }  (** churn took the node down *)
  | Node_restarted of { node : Ids.Identity.t }
  | Invariant_violated of {
      invariant : string;  (** the [Check.Invariant] id that fired *)
      peer : Ids.Identity.t option;
      au : Ids.Au_id.t option;
      poll_id : int option;
      detail : string;
    }
      (** a protocol invariant failed; emitted by a live [Check.Auditor]
          attached to this bus (auditors never react to these, so
          re-emission cannot loop) *)

(** Event severity, ordered [Debug < Info < Warn]. [Debug] is the
    per-message chatter of healthy polls (including effort accounting);
    [Info] marks poll lifecycle milestones, admission drops and repairs;
    [Warn] marks outcomes that indicate trouble (inquorate or alarmed
    polls, invariant violations). *)
type severity = Debug | Info | Warn

type t

val create : unit -> t

(** [subscribe ?interest t f] adds an observer called synchronously on
    every event with the current simulated time. [interest] (default
    [Debug], i.e. everything) declares the minimum severity [f] cares
    about: when {e every} subscriber's interest is above an emit's
    {e bound}, the event is never even constructed. The bus does not
    filter delivery — a subscriber that declares [Warn] interest must
    still filter the events it receives (the severity sinks do) —
    interest only licenses skipping. *)
val subscribe : ?interest:severity -> t -> (time:float -> event -> unit) -> unit

(** [emit ?bound t ~now event] notifies subscribers; free when there are
    none. The [event] is a thunk so construction is also skipped
    unobserved. [bound] is the {e highest} severity the thunk's event
    could have — when it is below every subscriber's interest, the thunk
    is not run and nothing is allocated. The default [Warn] never skips;
    hot call sites that emit statically-[Debug] chatter pass
    [~bound:Debug]. Declaring a bound lower than the event's actual
    severity would silently drop it for interested subscribers — the
    severity-parity test in [test/test_trace_pipeline.ml] guards the
    in-tree call sites. *)
val emit : ?bound:severity -> t -> now:float -> (unit -> event) -> unit

val pp_event : Format.formatter -> event -> unit

(** {2 Taxonomy} *)

val severity : event -> severity
val severity_to_string : severity -> string
val severity_of_string : string -> severity option

(** [kind e] is the snake_case taxonomy name of the constructor, e.g.
    ["poll_started"]. *)
val kind : event -> string

(** All kind names, in declaration order. *)
val all_kinds : string list

(** {2:sinks Sinks} *)

(** A sink is just an observer; every sink can be passed to
    {!subscribe}. *)
type sink = time:float -> event -> unit

(** [binary_sink ?min_severity w] writes events in the compact binary
    trace format ({!Obs.Btrace}); decoding yields exactly the
    {!to_json} value, so binary and JSONL traces analyze identically. *)
val binary_sink : ?min_severity:severity -> Obs.Btrace.writer -> sink

(** {2 JSON round-trip} *)

(** [to_json ~time e] is a flat object: ["t"] (seconds), ["severity"],
    ["kind"], then the constructor's fields. Optional correlation fields
    of {!event.Effort_charged} are omitted when absent. *)
val to_json : time:float -> event -> Obs.Json.t

(** [of_json j] inverts {!to_json}. Absent or [null] optional
    correlation fields decode to [None]. *)
val of_json : Obs.Json.t -> (float * event, string) result

(** [to_view ~time e] is the analyzer projection of [e] — agrees with
    [Obs.View.of_json (to_json ~time e)] by construction, without
    building JSON. The live span/ledger bridges feed this to
    [Obs.Analyze.feed_view]. *)
val to_view : time:float -> event -> Obs.View.t
