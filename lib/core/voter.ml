module Engine = Narses.Engine
module Task_schedule = Effort.Task_schedule
module Proof = Effort.Proof
module Cost_model = Effort.Cost_model
module Rng = Repro_prelude.Rng

let find_session peer ~identity ~au ~poll_id =
  Peer.Session_tbl.find_opt peer.Peer.voter_sessions (identity, au, poll_id)

let close_session (peer : Peer.t) (session : Peer.voter_session) =
  session.Peer.vs_state <- Peer.Closed;
  let key = Peer.session_key session in
  Peer.Session_tbl.remove peer.Peer.voter_sessions key;
  (* Remember the key so a duplicate delivery of the original Poll cannot
     reopen a ghost session after the fact. *)
  Peer.note_session_closed peer key

(* Cost, to this peer, of admitting one invitation for consideration:
   session establishment plus schedule lookup and bookkeeping. *)
let consideration_cost (cfg : Config.t) =
  cfg.Config.cost.Effort.Cost_model.consideration_seconds
  +. cfg.Config.cost.Effort.Cost_model.session_setup_seconds

let intro_verify_cost (cfg : Config.t) =
  Cost_model.mbf_verify_seconds cfg.Config.cost ~generation_cost:(Config.intro_effort cfg)

let remaining_verify_cost (cfg : Config.t) =
  Cost_model.mbf_verify_seconds cfg.Config.cost
    ~generation_cost:(Config.remaining_effort cfg)

let reply ctx (peer : Peer.t) ~to_node ~au payload =
  Peer.send ctx ~from:peer ~to_node
    { Message.identity = peer.Peer.identity; au; payload }

let on_proof_timeout ctx (peer : Peer.t) (session : Peer.voter_session) () =
  match session.Peer.vs_state with
  | Peer.Awaiting_proof _ ->
    (* Reservation attack or a stopped pipe: release the slot and hold the
       poller's desertion against it. *)
    let now = Engine.now ctx.Peer.engine in
    (match session.Peer.vs_reservation with
    | Some r -> Task_schedule.cancel peer.Peer.schedule ~now r
    | None -> ());
    let st = Peer.au_state peer session.Peer.vs_au in
    Known_peers.punish st.Peer.known ~now session.Peer.vs_poller;
    close_session peer session
  | Peer.Computing | Peer.Voted_waiting_receipt _ | Peer.Closed -> ()

let on_receipt_timeout ctx (peer : Peer.t) (session : Peer.voter_session) () =
  match session.Peer.vs_state with
  | Peer.Voted_waiting_receipt _ ->
    let now = Engine.now ctx.Peer.engine in
    let st = Peer.au_state peer session.Peer.vs_au in
    Known_peers.punish st.Peer.known ~now session.Peer.vs_poller;
    close_session peer session
  | Peer.Awaiting_proof _ | Peer.Computing | Peer.Closed -> ()

let on_poll ctx (peer : Peer.t) ~src ~identity ~au ~poll_id ~intro =
  let cfg = ctx.Peer.cfg in
  let st = Peer.au_state peer au in
  let now = Engine.now ctx.Peer.engine in
  let reject = Peer.reject_message ctx peer ~from_:identity ~au ~poll_id ~msg_kind:"poll" in
  if not st.Peer.held then reject Trace.Not_held  (* we do not preserve this AU *)
  else
  match
    Admission.consider st.Peer.admission ~rng:peer.Peer.rng ~now ~known:st.Peer.known
      ~identity
  with
  | Admission.Dropped reason ->
    Metrics.on_invitation_dropped ctx.Peer.metrics;
    Trace.emit ~bound:Trace.Info ctx.Peer.trace ~now (fun () ->
        Trace.Invitation_dropped
          { voter = peer.Peer.identity; claimed = identity; au; poll_id; reason })
  | Admission.Admitted path ->
    Metrics.on_invitation_considered ctx.Peer.metrics;
    Trace.emit ~bound:Trace.Debug ctx.Peer.trace ~now (fun () ->
        Trace.Invitation_admitted
          {
            voter = peer.Peer.identity;
            claimed = identity;
            au;
            poll_id = Some poll_id;
            path = Trace.admission_path_of_decision path;
          });
    Peer.charge ctx ~who:peer.Peer.identity ~phase:Trace.Admission ~poller:identity ~au
      ~poll_id (consideration_cost cfg);
    let effort_ok =
      if not cfg.Config.effort_balancing_enabled then true
      else begin
        Peer.charge ctx ~who:peer.Peer.identity ~phase:Trace.Admission ~poller:identity
          ~au ~poll_id (intro_verify_cost cfg);
        let ok = Proof.meets intro ~required:(Config.intro_effort cfg) in
        if ok then
          Peer.note_effort_received ctx ~peer:peer.Peer.identity ~from_:identity
            ~phase:Trace.Solicitation ~au ~poll_id
            ~seconds:(Config.intro_effort cfg);
        ok
      end
    in
    if not effort_ok then Known_peers.punish st.Peer.known ~now identity
    else begin
      match Peer.Session_tbl.find_opt peer.Peer.voter_sessions (identity, au, poll_id) with
      | Some { Peer.vs_state = Peer.Awaiting_proof _; _ } ->
        (* Duplicate invitation for a session still awaiting its proof:
           our ack may have been lost, so repeat it instead of leaving the
           poller to retry into silence. *)
        reply ctx peer ~to_node:src ~au (Message.Poll_ack { poll_id; accepted = true })
      | Some _ ->
        (* Duplicate invitation for a live session past acceptance: ignore. *)
        ()
      | None ->
        if Peer.session_recently_closed peer (identity, au, poll_id) then
          (* Stale duplicate of an invitation already handled to completion:
             admitting it would open a ghost session whose receipt timeout
             unfairly punishes the poller. *)
          reject Trace.Stale_closed
        else if
      (* Section 9 extension (off by default): the busier the peer already
         is, the less likely it accepts — so an attacker must spend ever
         more effort for each additional unit of the victim's time. *)
      cfg.Config.adaptive_acceptance
      &&
      let recent = Task_schedule.recent_work peer.Peer.schedule ~now in
      (* Busyness = the decayed work accepted recently versus one day of
         this peer's compute. *)
      let day_capacity = 86_400. *. cfg.Config.capacity in
      let load = Float.min 1. (recent /. day_capacity) in
      Rng.bernoulli peer.Peer.rng load
    then begin
      Trace.emit ~bound:Trace.Debug ctx.Peer.trace ~now (fun () ->
          Trace.Invitation_refused
            { voter = peer.Peer.identity; poller = identity; au; poll_id });
      reply ctx peer ~to_node:src ~au (Message.Poll_ack { poll_id; accepted = false })
    end
    else begin
      let work = Config.vote_work cfg in
      let deadline =
        if cfg.Config.desynchronized then now +. cfg.Config.vote_allowance
        else
          (* Ablation: the pre-desynchronization protocol [28] needed the
             quorum computed in lock-step, so a voter can only accept if it
             is free to start right away — queued work means refusal. *)
          now +. (1.05 *. work /. cfg.Config.capacity)
      in
      match Task_schedule.reserve peer.Peer.schedule ~now ~work ~deadline with
      | None ->
        Trace.emit ~bound:Trace.Debug ctx.Peer.trace ~now (fun () ->
            Trace.Invitation_refused
              { voter = peer.Peer.identity; poller = identity; au; poll_id });
        reply ctx peer ~to_node:src ~au (Message.Poll_ack { poll_id; accepted = false })
      | Some (reservation, finish) ->
        let session =
          {
            Peer.vs_poller = identity;
            vs_poller_node = src;
            vs_au = au;
            vs_poll_id = poll_id;
            vs_reservation = Some reservation;
            vs_finish = finish;
            vs_nonce = 0L;
            vs_vote = None;
            vs_state = Peer.Closed (* replaced below *);
          }
        in
        let timeout =
          Engine.schedule_in ctx.Peer.engine ~cls:Peer.cls_proof_timeout
            ~after:cfg.Config.proof_timeout
            (on_proof_timeout ctx peer session)
        in
        session.Peer.vs_state <- Peer.Awaiting_proof timeout;
        Peer.Session_tbl.replace peer.Peer.voter_sessions (identity, au, poll_id) session;
        Trace.emit ~bound:Trace.Debug ctx.Peer.trace ~now (fun () ->
            Trace.Invitation_accepted
              { voter = peer.Peer.identity; poller = identity; au; poll_id });
        reply ctx peer ~to_node:src ~au (Message.Poll_ack { poll_id; accepted = true })
    end
    end

let deliver_vote ctx (peer : Peer.t) (session : Peer.voter_session) () =
  match session.Peer.vs_state with
  | Peer.Computing ->
    let cfg = ctx.Peer.cfg in
    let st = Peer.au_state peer session.Peer.vs_au in
    let now = Engine.now ctx.Peer.engine in
    Peer.charge ctx ~who:peer.Peer.identity ~phase:Trace.Voting
      ~poller:session.Peer.vs_poller ~au:session.Peer.vs_au
      ~poll_id:session.Peer.vs_poll_id (Config.vote_work cfg);
    Metrics.on_vote_supplied ctx.Peer.metrics;
    session.Peer.vs_reservation <- None;
    let proof = Proof.generate ~rng:peer.Peer.rng ~cost:(Config.vote_proof_cost cfg) in
    let nominations =
      Reference_list.nominate st.Peer.reference ~rng:peer.Peer.rng
        ~count:cfg.Config.nominations_per_vote
      |> List.filter (fun id -> not (Ids.Identity.equal id session.Peer.vs_poller))
    in
    let vote =
      {
        Vote.voter = peer.Peer.identity;
        nonce = session.Peer.vs_nonce;
        proof;
        snapshot = Replica.snapshot st.Peer.replica;
        nominations;
        bogus = false;
      }
    in
    session.Peer.vs_vote <- Some vote;
    (* The vote balance changes the moment we supply the vote: the poller
       has now consumed one, so its standing drops a step toward debt. A
       valid receipt later merely settles the exchange; a missing or bad
       one costs the poller its entry entirely. *)
    Known_peers.lower st.Peer.known ~now session.Peer.vs_poller;
    (* The receipt arrives after the poller's evaluation phase, up to a
       full poll duration away. *)
    let timeout =
      Engine.schedule_in ctx.Peer.engine ~cls:Peer.cls_receipt_timeout
        ~after:cfg.Config.inter_poll_interval
        (on_receipt_timeout ctx peer session)
    in
    session.Peer.vs_state <- Peer.Voted_waiting_receipt timeout;
    Trace.emit ~bound:Trace.Debug ctx.Peer.trace ~now (fun () ->
        Trace.Vote_sent
          {
            voter = peer.Peer.identity;
            poller = session.Peer.vs_poller;
            au = session.Peer.vs_au;
            poll_id = session.Peer.vs_poll_id;
          });
    reply ctx peer ~to_node:session.Peer.vs_poller_node ~au:session.Peer.vs_au
      (Message.Vote_msg { poll_id = session.Peer.vs_poll_id; vote })
  | Peer.Awaiting_proof _ | Peer.Voted_waiting_receipt _ | Peer.Closed -> ()

let on_poll_proof ctx (peer : Peer.t) ~identity ~au ~poll_id ~remaining ~nonce =
  let reject =
    Peer.reject_message ctx peer ~from_:identity ~au ~poll_id ~msg_kind:"poll_proof"
  in
  match find_session peer ~identity ~au ~poll_id with
  | None -> reject Trace.Unknown_session
  | Some session ->
    (match session.Peer.vs_state with
    | Peer.Awaiting_proof timeout ->
      let cfg = ctx.Peer.cfg in
      let now = Engine.now ctx.Peer.engine in
      Engine.cancel ctx.Peer.engine timeout;
      let effort_ok =
        if not cfg.Config.effort_balancing_enabled then true
        else begin
          Peer.charge ctx ~who:peer.Peer.identity ~phase:Trace.Voting ~poller:identity
            ~au ~poll_id (remaining_verify_cost cfg);
          let ok = Proof.meets remaining ~required:(Config.remaining_effort cfg) in
          if ok then
            Peer.note_effort_received ctx ~peer:peer.Peer.identity ~from_:identity
              ~phase:Trace.Solicitation ~au ~poll_id
              ~seconds:(Config.remaining_effort cfg);
          ok
        end
      in
      if not effort_ok then begin
        let st = Peer.au_state peer au in
        (match session.Peer.vs_reservation with
        | Some r -> Task_schedule.cancel peer.Peer.schedule ~now r
        | None -> ());
        Known_peers.punish st.Peer.known ~now identity;
        close_session peer session
      end
      else begin
        session.Peer.vs_nonce <- nonce;
        session.Peer.vs_state <- Peer.Computing;
        let at = Float.max session.Peer.vs_finish now in
        ignore (Engine.schedule ctx.Peer.engine ~at (deliver_vote ctx peer session))
      end
    | Peer.Computing | Peer.Voted_waiting_receipt _ | Peer.Closed ->
      reject Trace.Wrong_state)

let on_repair_request ctx (peer : Peer.t) ~identity ~au ~poll_id ~block =
  let reject =
    Peer.reject_message ctx peer ~from_:identity ~au ~poll_id ~msg_kind:"repair_request"
  in
  match find_session peer ~identity ~au ~poll_id with
  | None -> reject Trace.Unknown_session
  | Some session ->
    (match session.Peer.vs_state with
    | Peer.Voted_waiting_receipt _ | Peer.Computing ->
      let cfg = ctx.Peer.cfg in
      let st = Peer.au_state peer au in
      if block < 0 || block >= Replica.block_count st.Peer.replica then
        (* A corrupted block index would blow up Replica.version below. *)
        reject Trace.Bad_block
      else begin
        (* Serving a repair: fetch and hash one block. *)
        Peer.charge ctx ~who:peer.Peer.identity ~phase:Trace.Repair ~poller:identity ~au
          ~poll_id
          (Cost_model.hash_seconds cfg.Config.cost ~bytes:cfg.Config.block_bytes);
        let version = Replica.version st.Peer.replica block in
        reply ctx peer ~to_node:session.Peer.vs_poller_node ~au
          (Message.Repair { poll_id; block; version })
      end
    | Peer.Awaiting_proof _ | Peer.Closed -> reject Trace.Wrong_state)

let on_receipt ctx (peer : Peer.t) ~identity ~au ~poll_id ~receipt =
  let reject =
    Peer.reject_message ctx peer ~from_:identity ~au ~poll_id
      ~msg_kind:"evaluation_receipt"
  in
  match find_session peer ~identity ~au ~poll_id with
  | None -> reject Trace.Unknown_session
  | Some session ->
    (match session.Peer.vs_state with
    | Peer.Voted_waiting_receipt timeout ->
      Engine.cancel ctx.Peer.engine timeout;
      let now = Engine.now ctx.Peer.engine in
      let st = Peer.au_state peer au in
      let valid =
        match session.Peer.vs_vote with
        | None -> false
        | Some vote -> Proof.receipt_matches vote.Vote.proof ~receipt
      in
      if not valid then Known_peers.punish st.Peer.known ~now identity;
      close_session peer session
    | Peer.Awaiting_proof _ | Peer.Computing | Peer.Closed ->
      reject Trace.Wrong_state)

let on_garbage ctx (peer : Peer.t) ~identity ~au =
  let cfg = ctx.Peer.cfg in
  let st = Peer.au_state peer au in
  let now = Engine.now ctx.Peer.engine in
  match
    Admission.consider st.Peer.admission ~rng:peer.Peer.rng ~now ~known:st.Peer.known
      ~identity
  with
  | Admission.Dropped _ -> Metrics.on_invitation_dropped ctx.Peer.metrics
  | Admission.Admitted path ->
    (* The garbage got through the cheap filters; rejecting it costs one
       consideration plus one (failing) introductory-effort check. *)
    Metrics.on_invitation_considered ctx.Peer.metrics;
    Trace.emit ~bound:Trace.Debug ctx.Peer.trace ~now (fun () ->
        Trace.Invitation_admitted
          {
            voter = peer.Peer.identity;
            claimed = identity;
            au;
            poll_id = None;
            path = Trace.admission_path_of_decision path;
          });
    Peer.charge ctx ~who:peer.Peer.identity ~phase:Trace.Admission ~poller:identity ~au
      (consideration_cost cfg);
    if cfg.Config.effort_balancing_enabled then
      Peer.charge ctx ~who:peer.Peer.identity ~phase:Trace.Admission ~poller:identity
        ~au (intro_verify_cost cfg);
    (* Do not learn fresh garbage identities: an entry would carry a debt
       grade, which is treated more leniently than "unknown" — and the
       adversary has unlimited identities, so remembering them would only
       grow the table without bound. *)
    if Known_peers.known st.Peer.known identity then
      Known_peers.punish st.Peer.known ~now identity
