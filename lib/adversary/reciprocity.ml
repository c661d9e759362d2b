module Engine = Narses.Engine
module Rng = Repro_prelude.Rng
module Duration = Repro_prelude.Duration
module Proof = Effort.Proof

(* Defecting polls use ids in their own range so a minion's handler can
   tell replies to them apart from replies to the peer's own honest
   polls, which are delegated to the normal protocol logic. *)
let defect_poll_id_base = 1_000_000

(* A defecting poll's lane: (minion, victim, au). *)
type lane = Narses.Topology.node * Narses.Topology.node * Lockss.Ids.Au_id.t

(* The defecting poller role's state. Each lane has at most one open
   defect poll: [open_polls] maps the open poll's id to its lane and
   [busy_lanes] holds exactly those lanes. *)
type defector = {
  population : Lockss.Population.t;
  rng : Rng.t;
  minions : Narses.Topology.node array;
  open_polls : (int, lane) Hashtbl.t;
  busy_lanes : (lane, unit) Hashtbl.t;
  mutable next_poll_id : int;
  mutable defections : int;
}

type t = { defector : defector; voter : Minions.voter }

let ctx d = Lockss.Population.ctx d.population
let identity d node = (ctx d).Lockss.Peer.peers.(node).Lockss.Peer.identity

let send d ~minion ~victim ~au payload =
  Minions.send (ctx d) ~src:minion ~dst:victim ~identity:(identity d minion) ~au payload

(* The insider oracle: does the victim currently grade this minion even or
   credit on the AU, with a free known-peer admission slot and room in its
   schedule? *)
let oracle_would_admit d ~minion ~victim ~au =
  let ctx = ctx d in
  let cfg = ctx.Lockss.Peer.cfg in
  let victim_peer = ctx.Lockss.Peer.peers.(victim) in
  let st = Lockss.Peer.au_state victim_peer au in
  let now = Engine.now ctx.Lockss.Peer.engine in
  (match Lockss.Known_peers.grade st.Lockss.Peer.known ~now (identity d minion) with
  | Some (Lockss.Grade.Even | Lockss.Grade.Credit) -> true
  | Some Lockss.Grade.Debt | None -> false)
  && Effort.Task_schedule.can_accept victim_peer.Lockss.Peer.schedule ~now
       ~work:(Lockss.Config.vote_work cfg)
       ~deadline:(now +. cfg.Lockss.Config.vote_allowance)

let close d poll_id lane =
  Hashtbl.remove d.open_polls poll_id;
  Hashtbl.remove d.busy_lanes lane

let defect d (minion, victim) au =
  let lane = (minion, victim, au) in
  if (not (Hashtbl.mem d.busy_lanes lane)) && oracle_would_admit d ~minion ~victim ~au then begin
    let cfg = (ctx d).Lockss.Peer.cfg in
    let poll_id = d.next_poll_id in
    d.next_poll_id <- poll_id + 1;
    Hashtbl.replace d.busy_lanes lane ();
    Hashtbl.replace d.open_polls poll_id lane;
    (* Abandon the poll if the exchange stalls for any reason. A poll that
       completed has closed already, and its lane may belong to a newer
       poll by now. *)
    ignore
      (Engine.schedule_in (ctx d).Lockss.Peer.engine ~after:(Duration.of_days 10.)
         (fun () -> if Hashtbl.mem d.open_polls poll_id then close d poll_id lane));
    let intro_cost = Lockss.Config.intro_effort cfg in
    let sender = identity d minion in
    Lockss.Peer.charge_adversary (ctx d) ~who:sender ~phase:Lockss.Trace.Solicitation
      ~poller:sender ~au ~poll_id
      (intro_cost +. cfg.Lockss.Config.cost.Effort.Cost_model.session_setup_seconds);
    let intro = Proof.generate ~rng:d.rng ~cost:intro_cost in
    send d ~minion ~victim ~au (Lockss.Message.Poll { poll_id; intro })
  end

(* A reply to an open defect poll, on whichever minion it lands: the poll's
   own lane names who continues it. *)
let on_defect_reply d (msg : Lockss.Message.t) =
  match msg.Lockss.Message.payload with
  | Lockss.Message.Poll_ack { poll_id; accepted } ->
    (match Hashtbl.find_opt d.open_polls poll_id with
    | None -> ()
    | Some lane ->
      if not accepted then close d poll_id lane
      else begin
        let minion, victim, au = lane in
        let remaining_cost = Lockss.Config.remaining_effort (ctx d).Lockss.Peer.cfg in
        let sender = identity d minion in
        Lockss.Peer.charge_adversary (ctx d) ~who:sender ~phase:Lockss.Trace.Solicitation
          ~poller:sender ~au ~poll_id remaining_cost;
        let remaining = Proof.generate ~rng:d.rng ~cost:remaining_cost in
        let nonce = Rng.bits64 d.rng in
        send d ~minion ~victim ~au (Lockss.Message.Poll_proof { poll_id; remaining; nonce })
      end)
  | Lockss.Message.Vote_msg { poll_id; vote = _ } ->
    (match Hashtbl.find_opt d.open_polls poll_id with
    | None -> ()
    | Some lane ->
      (* The point of the attack: the victim's whole vote, discarded
         unevaluated, no receipt — burning the grade that admitted us. *)
      d.defections <- d.defections + 1;
      close d poll_id lane)
  | Lockss.Message.Poll _ | Lockss.Message.Poll_proof _ | Lockss.Message.Repair_request _
  | Lockss.Message.Repair _ | Lockss.Message.Evaluation_receipt _
  | Lockss.Message.Garbage _ ->
    ()

(* The minion's poller role: replies to its defect polls are the attack's,
   replies to the peer's own honest polls go to the normal protocol. *)
let poller d minion ~src (msg : Lockss.Message.t) =
  match msg.Lockss.Message.payload with
  | Lockss.Message.Poll_ack { poll_id; _ } | Lockss.Message.Vote_msg { poll_id; _ }
    when poll_id >= defect_poll_id_base ->
    on_defect_reply d msg
  | _ -> Lockss.Population.default_handler d.population minion ~src msg

let attach population ~fraction ~attempts_per_victim_au_per_day =
  if fraction <= 0. || fraction >= 1. then
    invalid_arg "Reciprocity.attach: fraction must be in (0,1)";
  if attempts_per_victim_au_per_day <= 0. then
    invalid_arg "Reciprocity.attach: rate must be positive";
  let loyal = Lockss.Population.loyal_nodes population in
  let rng = Lockss.Population.split_rng population in
  let minions = Array.of_list (Minions.sample_fraction rng fraction loyal) in
  let d =
    {
      population;
      rng;
      minions;
      open_polls = Hashtbl.create 256;
      busy_lanes = Hashtbl.create 256;
      next_poll_id = defect_poll_id_base;
      defections = 0;
    }
  in
  let cfg = (ctx d).Lockss.Peer.cfg in
  (* The voter role plays scrupulously honest, voting as soon as the work
     is done. *)
  let voter =
    Minions.voter population rng minions
      ~vote_delay:(Lockss.Config.vote_work cfg /. cfg.Lockss.Config.capacity)
      ~poller:(poller d)
  in
  let victims = List.filter (fun node -> not (Minions.is_minion voter node)) loyal in
  Minions.lanes population rng
    ~period:(Duration.day /. attempts_per_victim_au_per_day)
    (List.concat_map (fun minion -> List.map (fun victim -> (minion, victim)) victims)
       (Array.to_list minions))
    (defect d);
  { defector = d; voter }

let minion_count t = Array.length t.defector.minions
let defections t = t.defector.defections
let honest_votes t = Minions.votes t.voter
