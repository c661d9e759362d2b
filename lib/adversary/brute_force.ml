module Engine = Narses.Engine
module Rng = Repro_prelude.Rng
module Duration = Repro_prelude.Duration
module Proof = Effort.Proof
module Cost_model = Effort.Cost_model

type strategy = Intro | Remaining | Full

let pp_strategy ppf s =
  Format.pp_print_string ppf
    (match s with Intro -> "INTRO" | Remaining -> "REMAINING" | Full -> "NONE")

(* Distinct from the admission-flood identity space; each instance gets
   its own block (numbered per population) so combined attacks cannot
   collide at the victims. *)
let identity_space = 2_000_000

module Invitations = struct
  (* Cell [poll_id - 1] of the paged byte store holds invitation
     [poll_id]'s [victim * aus + au], little-endian in [cell_bytes]
     bytes, or [closed]. Pages are created uninitialised and never
     copied: every cell below [issued] has been written. *)
  type t = {
    victims : int;
    aus : int;
    cell_bytes : int;
    closed : int;
    mutable pages : Bytes.t array;
    mutable issued : int;
  }

  let page_bits = 16
  let page_cells = 1 lsl page_bits

  let create ~victims ~aus =
    if victims < 1 || aus < 1 then
      invalid_arg "Brute_force.Invitations.create: needs a victim and an AU";
    let codes = victims * aus in
    (* Codes run [0, codes); the all-ones cell above them marks [closed]. *)
    let cell_bytes, closed =
      if codes <= 0xFFFF then (2, 0xFFFF)
      else if codes <= 0xFFFF_FFFF then (4, 0xFFFF_FFFF)
      else invalid_arg "Brute_force.Invitations.create: too many victim-AU pairs"
    in
    { victims; aus; cell_bytes; closed; pages = [||]; issued = 0 }

  let cell_bytes t = t.cell_bytes

  let get t i =
    let page = t.pages.(i lsr page_bits) in
    let at = (i land (page_cells - 1)) * t.cell_bytes in
    if t.cell_bytes = 2 then Bytes.get_uint16_le page at
    else Int32.to_int (Bytes.get_int32_le page at) land 0xFFFF_FFFF

  let set t i cell =
    let page = t.pages.(i lsr page_bits) in
    let at = (i land (page_cells - 1)) * t.cell_bytes in
    if t.cell_bytes = 2 then Bytes.set_uint16_le page at cell
    else Bytes.set_int32_le page at (Int32.of_int cell)

  let open_invitation t ~victim ~au =
    if victim < 0 || victim >= t.victims || au < 0 || au >= t.aus then
      invalid_arg "Brute_force.Invitations.open_invitation: victim or AU out of range";
    let i = t.issued in
    if i lsr page_bits = Array.length t.pages then
      t.pages <- Array.append t.pages [| Bytes.create (t.cell_bytes * page_cells) |];
    set t i ((victim * t.aus) + au);
    t.issued <- i + 1;
    i + 1

  let find_victim t ~au ~poll_id =
    if poll_id < 1 || poll_id > t.issued then None
    else begin
      let cell = get t (poll_id - 1) in
      if cell = t.closed || cell mod t.aus <> au then None else Some (cell / t.aus)
    end

  let close t ~poll_id =
    if poll_id >= 1 && poll_id <= t.issued then set t (poll_id - 1) t.closed
end

type t = {
  population : Lockss.Population.t;
  rng : Rng.t;
  minions : Narses.Topology.node array;
  strategy : strategy;
  identities : Lockss.Ids.Identity.t array;
  period : float;
  (* Most invitations are dropped at admission and never answered, so
     each one keeps its cell here for the rest of the run. *)
  invitations : Invitations.t;
  mutable sent : int;
  mutable admissions : int;
  mutable votes_received : int;
}

let ctx t = Lockss.Population.ctx t.population
let cfg t = (ctx t).Lockss.Peer.cfg

(* Poll ids are issued from 1, one per invitation, and each invitation
   takes the next identity round-robin, so an invitation's identity is
   its poll id's, not something to store. *)
let identity_of t poll_id = t.identities.((poll_id - 1) mod Array.length t.identities)

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
    let minion = Rng.pick t.rng t.minions in
    let poll_id = Invitations.open_invitation t.invitations ~victim ~au in
    let identity = identity_of t poll_id in
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
  match Invitations.find_victim t.invitations ~au ~poll_id with
  | None -> ()
  | Some victim ->
    if not accepted then Invitations.close t.invitations ~poll_id
    else begin
      t.admissions <- t.admissions + 1;
      match t.strategy with
      | Intro ->
        (* Reservation attack: desert after the accepted Poll. *)
        Invitations.close t.invitations ~poll_id
      | Remaining | Full ->
        let cfg = cfg t in
        let identity = identity_of t poll_id in
        let remaining_cost = Lockss.Config.remaining_effort cfg in
        let remaining =
          if cfg.Lockss.Config.effort_balancing_enabled then begin
            Lockss.Peer.charge_adversary (ctx t) ~who:identity
              ~phase:Lockss.Trace.Solicitation ~poller:identity ~au ~poll_id remaining_cost;
            Proof.generate ~rng:t.rng ~cost:remaining_cost
          end
          else Proof.forged ~claimed_cost:remaining_cost
        in
        let nonce = Rng.bits64 t.rng in
        send t ~minion ~identity ~dst:victim ~au
          (Lockss.Message.Poll_proof { poll_id; remaining; nonce })
    end

let on_vote t ~minion ~au ~poll_id ~(vote : Lockss.Vote.t) =
  match Invitations.find_victim t.invitations ~au ~poll_id with
  | None -> ()
  | Some victim ->
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
      let identity = identity_of t poll_id in
      let eval_cost =
        Cost_model.mbf_verify_seconds cfg.Lockss.Config.cost
          ~generation_cost:(Lockss.Config.vote_proof_cost cfg)
      in
      Lockss.Peer.charge_adversary (ctx t) ~who:identity ~phase:Lockss.Trace.Evaluation
        ~poller:identity ~au ~poll_id eval_cost;
      send t ~minion ~identity ~dst:victim ~au
        (Lockss.Message.Evaluation_receipt
           { poll_id; receipt = Lockss.Vote.expected_receipt vote }));
    Invitations.close t.invitations ~poll_id

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
  let ctx' = Lockss.Population.ctx population in
  let ids = Array.init identities (fun i -> identity_space + (100_000 * instance) + i) in
  let t =
    {
      population;
      rng = Lockss.Population.split_rng population;
      minions = Array.of_list minions;
      strategy;
      identities = ids;
      period = Duration.day /. attempts_per_victim_au_per_day;
      invitations =
        Invitations.create ~victims:(Array.length ctx'.Lockss.Peer.peers)
          ~aus:ctx'.Lockss.Peer.cfg.Lockss.Config.aus;
      sent = 0;
      admissions = 0;
      votes_received = 0;
    }
  in
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
