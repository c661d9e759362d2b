(** Peer state and the simulation context shared by the protocol logic.

    A peer plays both protocol roles: {e poller} (state in {!poll}, logic
    in {!Poller}) and {e voter} (state in {!voter_session}, logic in
    {!Voter}). This module owns all mutable state so the role modules stay
    cycle-free; it contains no protocol decisions of its own. *)

type candidate_status =
  | Not_invited  (** solicitation not yet attempted *)
  | Awaiting_ack of Narses.Engine.event_id  (** Poll sent; id is the timeout *)
  | Awaiting_vote of Narses.Engine.event_id  (** accepted; id is the timeout *)
  | Voted
  | Failed  (** refused/unresponsive beyond the retry budget *)

type candidate = {
  cand_identity : Ids.Identity.t;
  inner : bool;  (** inner-circle (outcome-determining) vs outer (discovery) *)
  mutable attempts : int;
  mutable status : candidate_status;
  mutable cand_nonce : int64;  (** nonce sent in PollProof, echoed by the vote *)
}

type poll_phase = Soliciting | Repairing | Concluded

type poll = {
  poll_id : int;
  poll_au : Ids.Au_id.t;
  started_at : float;
  inner_deadline : float;  (** end of the inner solicitation window *)
  outer_deadline : float;  (** end of the outer window; evaluation begins *)
  mutable candidates : candidate list;
  mutable votes : (candidate * Vote.t) list;  (** all received votes *)
  mutable nominations : Ids.Identity.t list;  (** discovery pool *)
  mutable phase : poll_phase;
  mutable pending_repairs : (int * Ids.Identity.t list) list;
      (** blocks awaiting repair and their candidate suppliers *)
  mutable repair_timer : Narses.Engine.event_id option;
  mutable repair_attempts : int;
  mutable alarmed : bool;
}

type voter_state =
  | Awaiting_proof of Narses.Engine.event_id  (** accepted; id is the timeout *)
  | Computing
  | Voted_waiting_receipt of Narses.Engine.event_id
  | Closed

type voter_session = {
  vs_poller : Ids.Identity.t;
  vs_poller_node : Narses.Topology.node;
  vs_au : Ids.Au_id.t;
  vs_poll_id : int;
  mutable vs_reservation : Effort.Task_schedule.reservation option;
  mutable vs_finish : float;  (** quoted completion time of the vote work *)
  mutable vs_nonce : int64;
  mutable vs_vote : Vote.t option;  (** kept for the expected receipt *)
  mutable vs_state : voter_state;
}

(** Voter-session tables, keyed by (poller identity, AU, poll id): a
    {!Repro_prelude.Keyed_tbl.Int3}, so lookups compare keys with int
    equality while iterating in the same order a generic [Hashtbl]
    would. *)
module Session_tbl = Repro_prelude.Keyed_tbl.Int3

type au_state = {
  au : Ids.Au_id.t;
  held : bool;  (** whether this peer preserves the AU (collection diversity) *)
  replica : Replica.t;
  known : Known_peers.t;
  admission : Admission.t;
  reference : Reference_list.t;
  mutable current_poll : poll option;
}

type t = {
  node : Narses.Topology.node;
  identity : Ids.Identity.t;
  friends : Ids.Identity.t list;
  schedule : Effort.Task_schedule.t;
  rng : Repro_prelude.Rng.t;
  aus : au_state array;
  mutable poll_counter : int;
  voter_sessions : voter_session Session_tbl.t;
  closed_sessions : unit Session_tbl.t;
      (** recently closed voter-session keys, so duplicate deliveries of
          an already-handled Poll are dropped instead of opening a ghost
          session (bounded by [closed_ring]) *)
  closed_ring : (Ids.Identity.t * Ids.Au_id.t * int) option array;
  mutable closed_next : int;
  mutable active : bool;
      (** dormant peers (churn experiments) ignore all traffic and call no
          polls until activated; fault-injected crashes also clear it *)
}

type ctx = {
  engine : Narses.Engine.t;
  net : Message.t Narses.Net.t;
  cfg : Config.t;
  metrics : Metrics.t;
  trace : Trace.t;  (** structured protocol event stream *)
  peers : t array;  (** loyal peers; index = node = identity *)
  identity_nodes : Narses.Topology.node Repro_prelude.Keyed_tbl.Int.t;
      (** where to route replies for non-loyal (adversary) identities *)
}

(** [au_state peer au] is the peer's state for that AU. *)
val au_state : t -> Ids.Au_id.t -> au_state

(** [node_of_identity ctx identity] resolves an identity to the node
    replies are sent to; loyal identities are their own node. *)
val node_of_identity : ctx -> Ids.Identity.t -> Narses.Topology.node

(** [register_identity ctx identity node] routes an adversary identity. *)
val register_identity : ctx -> Ids.Identity.t -> Narses.Topology.node -> unit

(** [fresh_poll_id peer] increments and returns the poll counter. *)
val fresh_poll_id : t -> int

(** [send ctx ~from ~to_node msg] transmits over the simulated network,
    computing the wire size from the config. *)
val send : ctx -> from:t -> to_node:Narses.Topology.node -> Message.t -> unit

(** [charge ctx ~who ~phase ?poller ?au ?poll_id ~work] records loyal
    effort that is too small to displace the schedule (verifications,
    considerations), attributed to the spender [who], the protocol
    [phase] and — when known — the [(poller, au, poll_id)] correlation
    key; every charge also emits a [Trace.Effort_charged] event so
    trace-derived ledgers reconcile with the {!Metrics} aggregates. *)
val charge :
  ctx ->
  who:Ids.Identity.t ->
  phase:Trace.effort_phase ->
  ?poller:Ids.Identity.t ->
  ?au:Ids.Au_id.t ->
  ?poll_id:int ->
  float ->
  unit

(** [charge_and_delay ctx peer ~phase ~au ~poll_id ~work] books [work]
    reference-seconds on the peer's schedule, charges it as loyal effort
    (attributed as {!charge} with [peer] as both spender and poller),
    and returns the completion time at which dependent actions should
    run. Only pollers displace their schedule, so the correlation key is
    always fully known here. *)
val charge_and_delay :
  ctx -> t -> phase:Trace.effort_phase -> au:Ids.Au_id.t -> poll_id:int -> work:float -> float

(** [charge_adversary ctx ~who ~phase ?poller ?au ?poll_id ~work] is
    {!charge} booked against the adversary's budget instead of the loyal
    population's. *)
val charge_adversary :
  ctx ->
  who:Ids.Identity.t ->
  phase:Trace.effort_phase ->
  ?poller:Ids.Identity.t ->
  ?au:Ids.Au_id.t ->
  ?poll_id:int ->
  float ->
  unit

(** [note_effort_received ctx ~peer ~from_ ~phase ~au ~poll_id ~seconds]
    emits a [Trace.Effort_received] event: [peer] verified a
    provable-effort proof worth [seconds] supplied by [from_]. Call it
    only after the proof actually verified (and only when effort
    balancing is enabled, so receipts mirror real proven work). *)
val note_effort_received :
  ctx ->
  peer:Ids.Identity.t ->
  from_:Ids.Identity.t ->
  phase:Trace.effort_phase ->
  au:Ids.Au_id.t ->
  poll_id:int ->
  seconds:float ->
  unit

(** {2 Protocol timer classes}

    Every protocol timer is scheduled under one of these {!Narses.Engine}
    event classes so the engine's per-class live counters can be
    cross-checked against owner state by the end-of-run leak audit
    ([Check.Leak]). *)

val cls_ack_timeout : Narses.Engine.cls
val cls_vote_timeout : Narses.Engine.cls
val cls_proof_timeout : Narses.Engine.cls
val cls_receipt_timeout : Narses.Engine.cls
val cls_repair_timeout : Narses.Engine.cls

(** [reject_message ctx peer ~from_ ~au ?poll_id ~msg_kind reason] emits
    a [Trace.Message_rejected] event: [peer] received a message claiming
    sender [from_] that failed handler validation and was dropped
    without touching protocol state. RNG- and charge-free, so rejecting
    never perturbs determinism. *)
val reject_message :
  ctx ->
  t ->
  from_:Ids.Identity.t ->
  au:Ids.Au_id.t ->
  ?poll_id:int ->
  msg_kind:string ->
  Trace.reject_reason ->
  unit

(** [session_key session] is the key the voter-session table uses. *)
val session_key : voter_session -> Ids.Identity.t * Ids.Au_id.t * int

(** Capacity of the recently-closed session memory (per peer). *)
val closed_session_capacity : int

(** [note_session_closed peer key] remembers that the voter session [key]
    has been handled to completion; the memory holds the most recent
    {!closed_session_capacity} keys. *)
val note_session_closed : t -> Ids.Identity.t * Ids.Au_id.t * int -> unit

(** [session_recently_closed peer key] is [true] when a duplicate Poll
    for [key] should be ignored rather than admitted as a new session. *)
val session_recently_closed : t -> Ids.Identity.t * Ids.Au_id.t * int -> bool

(** [fallback_identities peer au_state] lists peers suitable for topping
    up the reference list: non-debt known peers plus friends, minus
    self. *)
val fallback_identities : t -> au_state -> now:float -> Ids.Identity.t list
