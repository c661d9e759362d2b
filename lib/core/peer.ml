type candidate_status =
  | Not_invited
  | Awaiting_ack of Narses.Engine.event_id
  | Awaiting_vote of Narses.Engine.event_id
  | Voted
  | Failed

type candidate = {
  cand_identity : Ids.Identity.t;
  inner : bool;
  mutable attempts : int;
  mutable status : candidate_status;
  mutable cand_nonce : int64;
}

type poll_phase = Soliciting | Repairing | Concluded

type poll = {
  poll_id : int;
  poll_au : Ids.Au_id.t;
  started_at : float;
  inner_deadline : float;
  outer_deadline : float;
  mutable candidates : candidate list;
  mutable votes : (candidate * Vote.t) list;
  mutable nominations : Ids.Identity.t list;
  mutable phase : poll_phase;
  mutable pending_repairs : (int * Ids.Identity.t list) list;
  mutable repair_timer : Narses.Engine.event_id option;
  mutable repair_attempts : int;
  mutable alarmed : bool;
}

type voter_state =
  | Awaiting_proof of Narses.Engine.event_id
  | Computing
  | Voted_waiting_receipt of Narses.Engine.event_id
  | Closed

type voter_session = {
  vs_poller : Ids.Identity.t;
  vs_poller_node : Narses.Topology.node;
  vs_au : Ids.Au_id.t;
  vs_poll_id : int;
  mutable vs_reservation : Effort.Task_schedule.reservation option;
  mutable vs_finish : float;
  mutable vs_nonce : int64;
  mutable vs_vote : Vote.t option;
  mutable vs_state : voter_state;
}

module Session_tbl = Repro_prelude.Keyed_tbl.Int3

type au_state = {
  au : Ids.Au_id.t;
  held : bool;
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
  closed_ring : (Ids.Identity.t * Ids.Au_id.t * int) option array;
  mutable closed_next : int;
  mutable active : bool;
}

type ctx = {
  engine : Narses.Engine.t;
  net : Message.t Narses.Net.t;
  cfg : Config.t;
  metrics : Metrics.t;
  trace : Trace.t;
  peers : t array;
  identity_nodes : Narses.Topology.node Repro_prelude.Keyed_tbl.Int.t;
}

let au_state peer au = peer.aus.(au)

let node_of_identity ctx identity =
  if identity >= 0 && identity < Array.length ctx.peers then identity
  else begin
    match Repro_prelude.Keyed_tbl.Int.find_opt ctx.identity_nodes identity with
    | Some node -> node
    | None -> invalid_arg "Peer.node_of_identity: unknown identity"
  end

let register_identity ctx identity node =
  Repro_prelude.Keyed_tbl.Int.replace ctx.identity_nodes identity node

let fresh_poll_id peer =
  peer.poll_counter <- peer.poll_counter + 1;
  peer.poll_counter

let send ctx ~from ~to_node msg =
  let bytes = Message.wire_bytes ctx.cfg msg in
  Narses.Net.send ctx.net ~src:from.node ~dst:to_node ~bytes msg

let emit_charged ctx ~who ~role ~phase ?poller ?au ?poll_id work =
  Trace.emit ~bound:Trace.Debug ctx.trace
    ~now:(Narses.Engine.now ctx.engine)
    (fun () ->
      Trace.Effort_charged
        { peer = who; role; phase; poller; au; poll_id; seconds = work })

let charge ctx ~who ~phase ?poller ?au ?poll_id work =
  Metrics.charge_loyal ctx.metrics work;
  emit_charged ctx ~who ~role:Trace.Loyal ~phase ?poller ?au ?poll_id work

let charge_and_delay ctx peer ~phase ~au ~poll_id ~work =
  charge ctx ~who:peer.identity ~phase ~poller:peer.identity ~au ~poll_id work;
  let now = Narses.Engine.now ctx.engine in
  let _, finish = Effort.Task_schedule.reserve_unchecked peer.schedule ~now ~work in
  finish

let charge_adversary ctx ~who ~phase ?poller ?au ?poll_id work =
  Metrics.charge_adversary ctx.metrics work;
  emit_charged ctx ~who ~role:Trace.Adversary ~phase ?poller ?au ?poll_id work

let note_effort_received ctx ~peer ~from_ ~phase ~au ~poll_id ~seconds =
  Trace.emit ~bound:Trace.Debug ctx.trace
    ~now:(Narses.Engine.now ctx.engine)
    (fun () -> Trace.Effort_received { peer; from_; phase; au; poll_id; seconds })

(* Engine event classes for every protocol timer, so the end-of-run leak
   audit can cross-check live timer counts against owner state. *)
let cls_ack_timeout = Narses.Engine.register_class "ack_timeout"
let cls_vote_timeout = Narses.Engine.register_class "vote_timeout"
let cls_proof_timeout = Narses.Engine.register_class "proof_timeout"
let cls_receipt_timeout = Narses.Engine.register_class "receipt_timeout"
let cls_repair_timeout = Narses.Engine.register_class "repair_timeout"

let reject_message ctx peer ~from_ ~au ?poll_id ~msg_kind reason =
  Trace.emit ~bound:Trace.Debug ctx.trace
    ~now:(Narses.Engine.now ctx.engine)
    (fun () ->
      Trace.Message_rejected { peer = peer.identity; from_; au; poll_id; msg_kind; reason })

let session_key session = (session.vs_poller, session.vs_au, session.vs_poll_id)

let closed_session_capacity = 512

let note_session_closed peer key =
  if not (Session_tbl.mem peer.closed_sessions key) then begin
    (match peer.closed_ring.(peer.closed_next) with
    | Some evicted -> Session_tbl.remove peer.closed_sessions evicted
    | None -> ());
    peer.closed_ring.(peer.closed_next) <- Some key;
    peer.closed_next <- (peer.closed_next + 1) mod Array.length peer.closed_ring;
    Session_tbl.replace peer.closed_sessions key ()
  end

let session_recently_closed peer key = Session_tbl.mem peer.closed_sessions key

let fallback_identities peer st ~now =
  (* Friends come from the per-AU reference list, which was filtered to
     holders of the AU at bootstrap. Both inputs arrive ascending and
     duplicate-free, so the union is a linear sorted merge instead of a
     sort over a freshly concatenated list. *)
  let known_good = Known_peers.good_ids st.known ~now ~excluding:peer.identity in
  Reference_list.merged_with_friends st.reference known_good
