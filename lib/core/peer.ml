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
  mutable vs_receipt : (int64 * int64) option;
  mutable vs_state : voter_state;
}

module Session_tbl = Repro_prelude.Keyed_tbl.Int3

module Closed_set = struct
  (* [ring] holds the keys in insertion order. While the set is filling,
     they sit at [0, length) and [next] stays 0; once [capacity] keys are
     held, [ring] has exactly [capacity] slots and [next] indexes the
     oldest key, which the next new key overwrites. *)
  type t = {
    keys : unit Session_tbl.t;
    mutable ring : Session_tbl.key array;
    mutable next : int;
    capacity : int;
  }

  (* First ring size; later growth doubles, up to [capacity]. *)
  let initial_slots = 8

  let create ~capacity =
    if capacity < 1 then invalid_arg "Peer.Closed_set.create: capacity < 1";
    { keys = Session_tbl.create 1; ring = [||]; next = 0; capacity }

  let mem t key = Session_tbl.mem t.keys key
  let length t = Session_tbl.length t.keys

  let add t key =
    if not (Session_tbl.mem t.keys key) then begin
      let n = Session_tbl.length t.keys in
      if n < t.capacity then begin
        if n = Array.length t.ring then begin
          let grown = Array.make (min t.capacity (max initial_slots (2 * n))) key in
          Array.blit t.ring 0 grown 0 n;
          t.ring <- grown
        end;
        t.ring.(n) <- key
      end
      else begin
        Session_tbl.remove t.keys t.ring.(t.next);
        t.ring.(t.next) <- key;
        t.next <- (t.next + 1) mod t.capacity
      end;
      Session_tbl.replace t.keys key ()
    end
end

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
  closed_sessions : Closed_set.t;
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
  if Trace.enabled ctx.trace ~bound:Trace.Debug then
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
  if Trace.enabled ctx.trace ~bound:Trace.Debug then
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
  if Trace.enabled ctx.trace ~bound:Trace.Debug then
    Trace.emit ~bound:Trace.Debug ctx.trace
      ~now:(Narses.Engine.now ctx.engine)
      (fun () ->
        Trace.Message_rejected { peer = peer.identity; from_; au; poll_id; msg_kind; reason })

let session_key session = (session.vs_poller, session.vs_au, session.vs_poll_id)

let closed_session_capacity = 512

let note_session_closed peer key = Closed_set.add peer.closed_sessions key
let session_recently_closed peer key = Closed_set.mem peer.closed_sessions key

let fallback_identities peer st ~now =
  (* Friends come from the per-AU reference list, which was filtered to
     holders of the AU at bootstrap. Both inputs arrive ascending and
     duplicate-free, so the union is a linear sorted merge instead of a
     sort over a freshly concatenated list. *)
  let known_good = Known_peers.good_ids st.known ~now ~excluding:peer.identity in
  Reference_list.merged_with_friends st.reference known_good
