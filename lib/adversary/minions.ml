module Engine = Narses.Engine
module Rng = Repro_prelude.Rng
module Proof = Effort.Proof
module Cost_model = Effort.Cost_model

type node = Narses.Topology.node

let sample_fraction rng fraction xs =
  let count = max 1 (int_of_float (Float.round (fraction *. float_of_int (List.length xs)))) in
  Rng.sample rng count xs

let send (ctx : Lockss.Peer.ctx) ~src ~dst ~identity ~au payload =
  let msg = { Lockss.Message.identity; au; payload } in
  Narses.Net.send ctx.Lockss.Peer.net ~src ~dst
    ~bytes:(Lockss.Message.wire_bytes ctx.Lockss.Peer.cfg msg)
    msg

let lanes ?(until = infinity) population rng ~period targets shot =
  let engine = Lockss.Population.engine population in
  let aus = (Lockss.Population.ctx population).Lockss.Peer.cfg.Lockss.Config.aus in
  List.iter
    (fun target ->
      for au = 0 to aus - 1 do
        let rec fire () =
          if Engine.now engine < until then begin
            shot target au;
            let delay = Rng.uniform rng ~lo:(0.5 *. period) ~hi:(1.5 *. period) in
            ignore (Engine.schedule_in engine ~after:delay fire)
          end
        in
        let start = Rng.uniform rng ~lo:0. ~hi:period in
        ignore (Engine.schedule_in engine ~after:start fire)
      done)
    targets

(* -- The compromised voter role ------------------------------------------ *)

let corrupt_version = 0xBAD
let target_block = 0

type session = {
  poller : Lockss.Ids.Identity.t;
  poller_node : node;
  au : Lockss.Ids.Au_id.t;
  poll_id : int;
  mutable nonce : int64;
  mutable corrupt : bool;
  (* Set when the minion crashes: the session is gone, and a vote it
     scheduled never goes out, even if the peer is back by then. *)
  mutable dropped : bool;
}

type voter = {
  population : Lockss.Population.t;
  rng : Rng.t;
  minions : node array;
  vote_delay : float;
  corrupt : (invited:int -> bool) option;
  is_minion : (node, unit) Hashtbl.t;
  (* (poller, au, poll_id) -> how many minions were invited; the shared
     state "total information awareness" grants. Kept by corrupt roles
     only. *)
  invitations : (Lockss.Ids.Identity.t * Lockss.Ids.Au_id.t * int, int) Hashtbl.t;
  sessions :
    (node * Lockss.Ids.Identity.t * Lockss.Ids.Au_id.t * int, session) Hashtbl.t;
  mutable votes : int;
  mutable corrupt_votes : int;
  mutable corrupt_repairs : int;
}

let is_minion v node = Hashtbl.mem v.is_minion node
let votes v = v.votes
let corrupt_votes v = v.corrupt_votes
let corrupt_repairs v = v.corrupt_repairs

let invited v ~poller ~au ~poll_id =
  Option.value ~default:0 (Hashtbl.find_opt v.invitations (poller, au, poll_id))

(* Replies go to the node the request came from, as an honest voter's
   do: a forged or corrupted claimed identity may name no routable node. *)
let reply v ~minion ~dst ~au payload =
  let ctx = Lockss.Population.ctx v.population in
  send ctx ~src:minion ~dst ~identity:ctx.Lockss.Peer.peers.(minion).Lockss.Peer.identity
    ~au payload

let send_vote v ~minion (session : session) () =
  let ctx = Lockss.Population.ctx v.population in
  let cfg = ctx.Lockss.Peer.cfg in
  let peer = ctx.Lockss.Peer.peers.(minion) in
  let corrupt =
    match v.corrupt with
    | None -> false
    | Some decide ->
      (* Never attack a fellow minion's poll: corrupting each other's
         replicas only raises the alarm statistics for free. *)
      (not (is_minion v session.poller))
      && decide
           ~invited:(invited v ~poller:session.poller ~au:session.au ~poll_id:session.poll_id)
  in
  session.corrupt <- corrupt;
  if corrupt then v.corrupt_votes <- v.corrupt_votes + 1;
  (* Do the honest amount of work: the vote must survive effort
     verification and the receipt exchange to keep the minion's grades. *)
  Lockss.Peer.charge_adversary ctx ~who:peer.Lockss.Peer.identity ~phase:Lockss.Trace.Voting
    ~poller:session.poller ~au:session.au ~poll_id:session.poll_id
    (Lockss.Config.vote_work cfg);
  v.votes <- v.votes + 1;
  let proof = Proof.generate ~rng:v.rng ~cost:(Lockss.Config.vote_proof_cost cfg) in
  let snapshot =
    if corrupt then [ (target_block, corrupt_version) ]
    else Lockss.Replica.snapshot (Lockss.Peer.au_state peer session.au).Lockss.Peer.replica
  in
  (* Nominations push fellow minions into the victim's discovery. *)
  let nominations =
    Array.to_list v.minions
    |> List.filter (fun node -> node <> minion)
    |> Rng.sample v.rng cfg.Lockss.Config.nominations_per_vote
  in
  let vote =
    {
      Lockss.Vote.voter = peer.Lockss.Peer.identity;
      nonce = session.nonce;
      proof;
      snapshot;
      nominations;
      bogus = false;
    }
  in
  reply v ~minion ~dst:session.poller_node ~au:session.au
    (Lockss.Message.Vote_msg { poll_id = session.poll_id; vote })

(* A crash loses the role's sessions, as {!Lockss.Population.crash_peer}
   loses an honest voter's. *)
let crash v minion =
  Hashtbl.filter_map_inplace
    (fun (node, _, _, _) session ->
      if node = minion then begin
        session.dropped <- true;
        None
      end
      else Some session)
    v.sessions

let handle v ~poller minion ~src (msg : Lockss.Message.t) =
  let ctx = Lockss.Population.ctx v.population in
  let cfg = ctx.Lockss.Peer.cfg in
  let identity = msg.Lockss.Message.identity and au = msg.Lockss.Message.au in
  let peer = ctx.Lockss.Peer.peers.(minion) in
  match msg.Lockss.Message.payload with
  | (Lockss.Message.Poll _ | Lockss.Message.Poll_proof _ | Lockss.Message.Repair_request _
    | Lockss.Message.Evaluation_receipt _)
    when (not peer.Lockss.Peer.active) || au < 0 || au >= Array.length peer.Lockss.Peer.aus ->
    (* What the peer's own dispatch does with it: nothing while the peer
       is down, a rejection for an AU it does not hold. *)
    Lockss.Population.default_handler v.population minion ~src msg
  | Lockss.Message.Poll { poll_id; intro = _ } ->
    (* Minions skip admission control and always accept: they want into
       every poll they can reach. *)
    if Option.is_some v.corrupt then
      Hashtbl.replace v.invitations (identity, au, poll_id)
        (1 + invited v ~poller:identity ~au ~poll_id);
    Hashtbl.replace v.sessions
      (minion, identity, au, poll_id)
      {
        poller = identity;
        poller_node = src;
        au;
        poll_id;
        nonce = 0L;
        corrupt = false;
        dropped = false;
      };
    reply v ~minion ~dst:src ~au
      (Lockss.Message.Poll_ack { poll_id; accepted = true })
  | Lockss.Message.Poll_proof { poll_id; remaining = _; nonce } ->
    (match Hashtbl.find_opt v.sessions (minion, identity, au, poll_id) with
    | None -> ()
    | Some session ->
      session.nonce <- nonce;
      ignore
        (Engine.schedule_in ctx.Lockss.Peer.engine ~after:v.vote_delay (fun () ->
             if not session.dropped then send_vote v ~minion session ())))
  | Lockss.Message.Repair_request { poll_id; block } ->
    (match Hashtbl.find_opt v.sessions (minion, identity, au, poll_id) with
    | None -> ()
    | Some session ->
      Lockss.Peer.charge_adversary ctx ~who:peer.Lockss.Peer.identity
        ~phase:Lockss.Trace.Repair ~poller:identity ~au ~poll_id
        (Cost_model.hash_seconds cfg.Lockss.Config.cost ~bytes:cfg.Lockss.Config.block_bytes);
      let version =
        if session.corrupt && block = target_block then begin
          v.corrupt_repairs <- v.corrupt_repairs + 1;
          corrupt_version
        end
        else Lockss.Replica.version (Lockss.Peer.au_state peer au).Lockss.Peer.replica block
      in
      reply v ~minion ~dst:src ~au
        (Lockss.Message.Repair { poll_id; block; version }))
  | Lockss.Message.Evaluation_receipt { poll_id; receipt = _ } ->
    Hashtbl.remove v.sessions (minion, identity, au, poll_id)
  | Lockss.Message.Poll_ack _ | Lockss.Message.Vote_msg _ | Lockss.Message.Repair _ ->
    (* The compromised peer keeps its honest poller role: it calls polls,
       repairs its replica and earns reputation like anyone else. *)
    poller minion ~src msg
  | Lockss.Message.Garbage _ -> ()

let voter ?corrupt population rng minions ~vote_delay ~poller =
  let v =
    {
      population;
      rng;
      minions;
      vote_delay;
      corrupt;
      is_minion = Hashtbl.create 16;
      invitations = Hashtbl.create 256;
      sessions = Hashtbl.create 256;
      votes = 0;
      corrupt_votes = 0;
      corrupt_repairs = 0;
    }
  in
  let net = (Lockss.Population.ctx population).Lockss.Peer.net in
  Array.iter
    (fun minion ->
      Hashtbl.replace v.is_minion minion ();
      Narses.Net.register net minion (handle v ~poller minion))
    minions;
  Lockss.Population.on_crash population (fun node -> if is_minion v node then crash v node);
  v
