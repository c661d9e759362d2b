module Engine = Narses.Engine
module Rng = Repro_prelude.Rng
module Duration = Repro_prelude.Duration
module Proof = Effort.Proof
module Cost_model = Effort.Cost_model
module Session_tbl = Repro_prelude.Keyed_tbl.Int2

type strategy = Intro | Remaining | Full

let pp_strategy ppf s =
  Format.pp_print_string ppf
    (match s with Intro -> "INTRO" | Remaining -> "REMAINING" | Full -> "NONE")

(* Distinct from the admission-flood identity space; each instance gets
   its own block (numbered per population) so combined attacks cannot
   collide at the victims. *)
let identity_space = 2_000_000

type session = { victim : Narses.Topology.node; identity : Lockss.Ids.Identity.t }

type t = {
  population : Lockss.Population.t;
  rng : Rng.t;
  minions : Narses.Topology.node array;
  strategy : strategy;
  identities : Lockss.Ids.Identity.t array;
  period : float;
  mutable next_identity_index : int;
  mutable next_poll_id : int;
  sessions : session Session_tbl.t;  (* (au, poll id) -> invitation *)
  mutable sent : int;
  mutable admissions : int;
  mutable votes_received : int;
}

let ctx t = Lockss.Population.ctx t.population
let cfg t = (ctx t).Lockss.Peer.cfg

let next_identity t =
  let id = t.identities.(t.next_identity_index mod Array.length t.identities) in
  t.next_identity_index <- t.next_identity_index + 1;
  id

let send t ~minion ~identity ~dst ~au payload =
  Minions.send (ctx t) ~src:minion ~dst ~identity ~au payload;
  t.sent <- t.sent + 1

(* The insider-information oracle: would the victim even consider this
   invitation right now? Spares the adversary introductory efforts that a
   scheduling conflict or an active refractory period would waste. *)
let oracle_accepts t ~victim ~au =
  let ctx = ctx t in
  let cfg = cfg t in
  let peer = ctx.Lockss.Peer.peers.(victim) in
  let now = Engine.now ctx.Lockss.Peer.engine in
  let st = Lockss.Peer.au_state peer au in
  (not (Lockss.Admission.in_refractory st.Lockss.Peer.admission ~now))
  && Effort.Task_schedule.can_accept peer.Lockss.Peer.schedule ~now
       ~work:(Lockss.Config.vote_work cfg)
       ~deadline:(now +. cfg.Lockss.Config.vote_allowance)

let shot t victim au =
  if oracle_accepts t ~victim ~au then begin
    let cfg = cfg t in
    let identity = next_identity t in
    let minion = Rng.pick t.rng t.minions in
    let poll_id = t.next_poll_id in
    t.next_poll_id <- poll_id + 1;
    Session_tbl.replace t.sessions (au, poll_id) { victim; identity };
    let intro_cost = Lockss.Config.intro_effort cfg in
    (* All adversary work is booked through [Peer.charge_adversary] so the
       trace-derived effort ledger attributes it to the spending identity
       and the poll it targets. *)
    let charge work =
      Lockss.Peer.charge_adversary (ctx t) ~who:identity ~phase:Lockss.Trace.Solicitation
        ~poller:identity ~au ~poll_id work
    in
    (* If the defenders ablated effort balancing away, nobody verifies
       proofs — the adversary ships free forgeries instead of paying. *)
    let intro =
      if cfg.Lockss.Config.effort_balancing_enabled then begin
        charge intro_cost;
        Proof.generate ~rng:t.rng ~cost:intro_cost
      end
      else Proof.forged ~claimed_cost:intro_cost
    in
    charge cfg.Lockss.Config.cost.Effort.Cost_model.session_setup_seconds;
    send t ~minion ~identity ~dst:victim ~au (Lockss.Message.Poll { poll_id; intro })
  end

let on_poll_ack t ~minion ~au ~poll_id ~accepted =
  match Session_tbl.find_opt t.sessions (au, poll_id) with
  | None -> ()
  | Some session ->
    if not accepted then Session_tbl.remove t.sessions (au, poll_id)
    else begin
      t.admissions <- t.admissions + 1;
      match t.strategy with
      | Intro ->
        (* Reservation attack: desert after the accepted Poll. *)
        Session_tbl.remove t.sessions (au, poll_id)
      | Remaining | Full ->
        let cfg = cfg t in
        let remaining_cost = Lockss.Config.remaining_effort cfg in
        let remaining =
          if cfg.Lockss.Config.effort_balancing_enabled then begin
            Lockss.Peer.charge_adversary (ctx t) ~who:session.identity
              ~phase:Lockss.Trace.Solicitation ~poller:session.identity ~au ~poll_id
              remaining_cost;
            Proof.generate ~rng:t.rng ~cost:remaining_cost
          end
          else Proof.forged ~claimed_cost:remaining_cost
        in
        let nonce = Rng.bits64 t.rng in
        send t ~minion ~identity:session.identity ~dst:session.victim ~au
          (Lockss.Message.Poll_proof { poll_id; remaining; nonce })
    end

let on_vote t ~minion ~au ~poll_id ~(vote : Lockss.Vote.t) =
  match Session_tbl.find_opt t.sessions (au, poll_id) with
  | None -> ()
  | Some session ->
    t.votes_received <- t.votes_received + 1;
    (match t.strategy with
    | Intro | Remaining ->
      (* Wasteful attack: discard the vote unevaluated, no receipt. *)
      ()
    | Full ->
      (* Validate the vote's effort proof: that verification work is what
         reproduces the 160-bit byproduct the receipt must echo. Content
         comparison is free to this adversary — its replica is magically
         incorruptible, and any disagreeing blocks are the victim's own
         damage, not its problem. *)
      let cfg = cfg t in
      let eval_cost =
        Cost_model.mbf_verify_seconds cfg.Lockss.Config.cost
          ~generation_cost:(Lockss.Config.vote_proof_cost cfg)
      in
      Lockss.Peer.charge_adversary (ctx t) ~who:session.identity
        ~phase:Lockss.Trace.Evaluation ~poller:session.identity ~au ~poll_id eval_cost;
      send t ~minion ~identity:session.identity ~dst:session.victim ~au
        (Lockss.Message.Evaluation_receipt
           { poll_id; receipt = Lockss.Vote.expected_receipt vote }));
    Session_tbl.remove t.sessions (au, poll_id)

let minion_handler t minion ~src:_ (msg : Lockss.Message.t) =
  let au = msg.Lockss.Message.au in
  match msg.Lockss.Message.payload with
  | Lockss.Message.Poll_ack { poll_id; accepted } ->
    on_poll_ack t ~minion ~au ~poll_id ~accepted
  | Lockss.Message.Vote_msg { poll_id; vote } -> on_vote t ~minion ~au ~poll_id ~vote
  | Lockss.Message.Poll _ | Lockss.Message.Poll_proof _ | Lockss.Message.Repair_request _
  | Lockss.Message.Repair _ | Lockss.Message.Evaluation_receipt _
  | Lockss.Message.Garbage _ ->
    ()

let attach population ~minions ~strategy ~identities ~attempts_per_victim_au_per_day =
  if minions = [] then invalid_arg "Brute_force.attach: needs at least one minion";
  if identities <= 0 then invalid_arg "Brute_force.attach: identities must be positive";
  if attempts_per_victim_au_per_day <= 0. then
    invalid_arg "Brute_force.attach: rate must be positive";
  let instance = Lockss.Population.next_adversary_instance population in
  let ids = Array.init identities (fun i -> identity_space + (100_000 * instance) + i) in
  let t =
    {
      population;
      rng = Lockss.Population.split_rng population;
      minions = Array.of_list minions;
      strategy;
      identities = ids;
      period = Duration.day /. attempts_per_victim_au_per_day;
      next_identity_index = 0;
      next_poll_id = 1;
      sessions = Session_tbl.create 256;
      sent = 0;
      admissions = 0;
      votes_received = 0;
    }
  in
  let ctx' = ctx t in
  (* Replies to any adversary identity route to a minion node; total
     information awareness makes every minion interchangeable. *)
  Array.iteri
    (fun i id ->
      Lockss.Peer.register_identity ctx' id t.minions.(i mod Array.length t.minions))
    ids;
  Lockss.Population.seed_debt_identities population (Array.to_list ids);
  List.iter
    (fun minion ->
      Narses.Net.register ctx'.Lockss.Peer.net minion (minion_handler t minion))
    minions;
  Minions.lanes population t.rng ~period:t.period
    (Lockss.Population.loyal_nodes population)
    (shot t);
  t

let invitations_sent t = t.sent
let admissions t = t.admissions
let votes_received t = t.votes_received
