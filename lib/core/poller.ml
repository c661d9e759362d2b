module Engine = Narses.Engine
module Proof = Effort.Proof
module Cost_model = Effort.Cost_model
module Rng = Repro_prelude.Rng

let current_poll (st : Peer.au_state) ~poll_id =
  match st.Peer.current_poll with
  | Some poll when poll.Peer.poll_id = poll_id && poll.Peer.phase <> Peer.Concluded ->
    Some poll
  | Some _ | None -> None

let find_candidate (poll : Peer.poll) identity =
  List.find_opt
    (fun (c : Peer.candidate) -> Ids.Identity.equal c.Peer.cand_identity identity)
    poll.Peer.candidates

let send_to ctx (peer : Peer.t) ~identity ~au payload =
  let to_node = Peer.node_of_identity ctx identity in
  Peer.send ctx ~from:peer ~to_node { Message.identity = peer.Peer.identity; au; payload }

let hash_au_cost (cfg : Config.t) =
  Cost_model.hash_seconds cfg.Config.cost ~bytes:(Config.au_bytes cfg)

let block_hash_cost (cfg : Config.t) =
  Cost_model.hash_seconds cfg.Config.cost ~bytes:cfg.Config.block_bytes

let vote_verify_cost (cfg : Config.t) =
  Cost_model.mbf_verify_seconds cfg.Config.cost
    ~generation_cost:(Config.vote_proof_cost cfg)

(* -- Solicitation ---------------------------------------------------- *)

let rec attempt_solicitation ctx (peer : Peer.t) (st : Peer.au_state) (poll : Peer.poll)
    (cand : Peer.candidate) =
  let cfg = ctx.Peer.cfg in
  match (poll.Peer.phase, cand.Peer.status) with
  | Peer.Soliciting, Peer.Not_invited ->
    cand.Peer.attempts <- cand.Peer.attempts + 1;
    (* Establish the session and generate the introductory effort; the
       Poll message leaves when the proof is ready. *)
    Peer.charge ctx ~who:peer.Peer.identity ~phase:Trace.Solicitation
      ~poller:peer.Peer.identity ~au:st.Peer.au ~poll_id:poll.Peer.poll_id
      cfg.Config.cost.Effort.Cost_model.session_setup_seconds;
    let intro_cost = Config.intro_effort cfg in
    let finish =
      Peer.charge_and_delay ctx peer ~phase:Trace.Solicitation ~au:st.Peer.au
        ~poll_id:poll.Peer.poll_id ~work:intro_cost
    in
    let send_invitation () =
      match (poll.Peer.phase, cand.Peer.status) with
      | Peer.Soliciting, Peer.Not_invited ->
        let intro = Proof.generate ~rng:peer.Peer.rng ~cost:intro_cost in
        if Trace.enabled ctx.Peer.trace ~bound:Trace.Debug then
          Trace.emit ~bound:Trace.Debug ctx.Peer.trace ~now:(Engine.now ctx.Peer.engine)
            (fun () ->
              Trace.Solicitation_sent
                {
                  poller = peer.Peer.identity;
                  voter = cand.Peer.cand_identity;
                  au = st.Peer.au;
                  poll_id = poll.Peer.poll_id;
                  attempt = cand.Peer.attempts;
                });
        send_to ctx peer ~identity:cand.Peer.cand_identity ~au:st.Peer.au
          (Message.Poll { poll_id = poll.Peer.poll_id; intro });
        let timeout =
          Engine.schedule_in ctx.Peer.engine ~cls:Peer.cls_ack_timeout
            ~after:cfg.Config.ack_timeout (fun () ->
              on_ack_timeout ctx peer st poll cand)
        in
        cand.Peer.status <- Peer.Awaiting_ack timeout
      | (Peer.Soliciting | Peer.Repairing | Peer.Concluded), _ -> ()
    in
    ignore (Engine.schedule ctx.Peer.engine ~at:finish send_invitation)
  | (Peer.Soliciting | Peer.Repairing | Peer.Concluded), _ -> ()

and retry_or_fail ctx (peer : Peer.t) (st : Peer.au_state) (poll : Peer.poll)
    (cand : Peer.candidate) =
  let cfg = ctx.Peer.cfg in
  let now = Engine.now ctx.Peer.engine in
  let window_end = if cand.Peer.inner then poll.Peer.inner_deadline else poll.Peer.outer_deadline in
  cand.Peer.status <- Peer.Not_invited;
  if
    cand.Peer.attempts >= cfg.Config.max_solicit_attempts
    || now +. Repro_prelude.Duration.hour >= window_end
    || poll.Peer.phase <> Peer.Soliciting
  then cand.Peer.status <- Peer.Failed
  else begin
    (* Re-try the reluctant peer later in the same solicitation phase —
       soon enough that the retry budget fits in the window, jittered so
       retries stay desynchronized. *)
    let horizon = Float.min window_end (now +. Repro_prelude.Duration.of_days 3.) in
    let at =
      if cfg.Config.desynchronized && horizon > now then
        Rng.uniform peer.Peer.rng ~lo:now ~hi:horizon
      else now
    in
    ignore
      (Engine.schedule ctx.Peer.engine ~at (fun () ->
           attempt_solicitation ctx peer st poll cand))
  end

and on_ack_timeout ctx peer st poll cand =
  match cand.Peer.status with
  | Peer.Awaiting_ack _ -> retry_or_fail ctx peer st poll cand
  | Peer.Not_invited | Peer.Awaiting_vote _ | Peer.Voted | Peer.Failed -> ()

let schedule_solicitations ctx (peer : Peer.t) (st : Peer.au_state) (poll : Peer.poll)
    candidates ~window_start ~window_end =
  let cfg = ctx.Peer.cfg in
  let now = Engine.now ctx.Peer.engine in
  let lo = Float.max now window_start in
  List.iter
    (fun cand ->
      let at =
        if cfg.Config.desynchronized && window_end > lo then
          Rng.uniform peer.Peer.rng ~lo ~hi:window_end
        else lo
      in
      ignore
        (Engine.schedule ctx.Peer.engine ~at (fun () ->
             attempt_solicitation ctx peer st poll cand)))
    candidates

(* -- Evaluation and repair ------------------------------------------- *)

let valid_votes ctx (peer : Peer.t) (st : Peer.au_state) (poll : Peer.poll) =
  let cfg = ctx.Peer.cfg in
  let now = Engine.now ctx.Peer.engine in
  let charge_eval work =
    Peer.charge ctx ~who:peer.Peer.identity ~phase:Trace.Evaluation
      ~poller:peer.Peer.identity ~au:st.Peer.au ~poll_id:poll.Peer.poll_id work
  in
  List.filter
    (fun ((cand : Peer.candidate), (vote : Vote.t)) ->
      if cfg.Config.effort_balancing_enabled then charge_eval (vote_verify_cost cfg);
      let genuine =
        ((not cfg.Config.effort_balancing_enabled)
        || Proof.meets vote.Vote.proof ~required:(Config.vote_proof_cost cfg))
        && Int64.equal vote.Vote.nonce cand.Peer.cand_nonce
      in
      let bogus = vote.Vote.bogus in
      if bogus then
        (* Garbage hashes are detected at the cost of hashing one block. *)
        charge_eval (block_hash_cost cfg);
      if genuine && (not bogus) && cfg.Config.effort_balancing_enabled then
        Peer.note_effort_received ctx ~peer:peer.Peer.identity
          ~from_:cand.Peer.cand_identity ~phase:Trace.Voting ~au:st.Peer.au
          ~poll_id:poll.Peer.poll_id
          ~seconds:(Config.vote_proof_cost cfg);
      if (not genuine) || bogus then begin
        Known_peers.punish st.Peer.known ~now cand.Peer.cand_identity;
        false
      end
      else true)
    poll.Peer.votes

let send_receipt ctx peer ~au ~poll_id ((cand : Peer.candidate), (vote : Vote.t)) =
  send_to ctx peer ~identity:cand.Peer.cand_identity ~au
    (Message.Evaluation_receipt { poll_id; receipt = Vote.expected_receipt vote })

(* An inconclusive poll is "an alarm that requires attention from a human
   operator": if the deployment models one, the operator audits the AU
   against the publisher out-of-band and restores the replica. *)
let summon_operator ctx (st : Peer.au_state) =
  let cfg = ctx.Peer.cfg in
  if cfg.Config.operator_response_time > 0. then
    ignore
      (Engine.schedule_in ctx.Peer.engine ~after:cfg.Config.operator_response_time
         (fun () ->
           let was_damaged = Replica.is_damaged st.Peer.replica in
           List.iter
             (fun (block, _version) -> ignore (Replica.write st.Peer.replica ~block ~version:0))
             (Replica.damaged_blocks st.Peer.replica);
           if was_damaged then
             Metrics.on_replica_repaired ctx.Peer.metrics
               ~now:(Engine.now ctx.Peer.engine)))

let conclude ctx (peer : Peer.t) (st : Peer.au_state) (poll : Peer.poll) ~votes outcome =
  let now = Engine.now ctx.Peer.engine in
  poll.Peer.phase <- Peer.Concluded;
  (match poll.Peer.repair_timer with
  | Some timer -> Engine.cancel ctx.Peer.engine timer
  | None -> ());
  (* Receipts and reputation settlement for everyone whose vote was
     evaluated, regardless of poll outcome. *)
  List.iter
    (fun ((cand : Peer.candidate), _vote) ->
      Known_peers.raise_grade st.Peer.known ~now cand.Peer.cand_identity)
    votes;
  List.iter (send_receipt ctx peer ~au:st.Peer.au ~poll_id:poll.Peer.poll_id) votes;
  (match outcome with
  | Metrics.Success ->
    let voted_inner =
      List.filter_map
        (fun ((cand : Peer.candidate), _) ->
          if cand.Peer.inner then Some cand.Peer.cand_identity else None)
        votes
    in
    let agreeing_outer =
      List.filter_map
        (fun ((cand : Peer.candidate), vote) ->
          if
            (not cand.Peer.inner)
            && Tally.agrees_overall ~votes:[ vote ] ~poller:st.Peer.replica ~max_disagree:0
          then Some cand.Peer.cand_identity
          else None)
        votes
    in
    Reference_list.update st.Peer.reference ~rng:peer.Peer.rng ~voted:voted_inner
      ~agreeing_outer
      ~fallback:(Peer.fallback_identities peer st ~now);
    (* Voters that left the reference list can no longer vouch for
       others. *)
    List.iter
      (fun voter -> Introductions.forget_introducer (Admission.introductions st.Peer.admission) voter)
      voted_inner
  | Metrics.Inquorate -> ()
  | Metrics.Alarmed -> summon_operator ctx st);
  st.Peer.current_poll <- None;
  (* A successful conclusion is Info, anything else Warn: the bound is
     the event's exact severity, known from [outcome] before building it. *)
  let conclusion_bound =
    match outcome with Metrics.Success -> Trace.Info | _ -> Trace.Warn
  in
  if Trace.enabled ctx.Peer.trace ~bound:conclusion_bound then
    Trace.emit ~bound:conclusion_bound ctx.Peer.trace ~now (fun () ->
        Trace.Poll_concluded
          { poller = peer.Peer.identity; au = st.Peer.au; poll_id = poll.Peer.poll_id; outcome });
  Metrics.on_poll_concluded ctx.Peer.metrics ~peer:peer.Peer.identity ~au:st.Peer.au ~now
    outcome

let classify_block (cfg : Config.t) (st : Peer.au_state) inner_votes block =
  Tally.classify ~votes:inner_votes ~block
    ~poller_version:(Replica.version st.Peer.replica block)
    ~max_disagree:cfg.Config.max_disagree

let rec issue_next_repair ctx (peer : Peer.t) (st : Peer.au_state) (poll : Peer.poll)
    ~votes ~inner_votes =
  let cfg = ctx.Peer.cfg in
  match poll.Peer.pending_repairs with
  | [] ->
    if poll.Peer.alarmed then conclude ctx peer st poll ~votes Metrics.Alarmed
    else conclude ctx peer st poll ~votes Metrics.Success
  | (block, suppliers) :: rest ->
    (match suppliers with
    | [] ->
      (* Nobody reachable can supply this block: the poll cannot complete
         its repairs and fails; the fixed-rate clock will try again. *)
      conclude ctx peer st poll ~votes Metrics.Inquorate
    | supplier :: others ->
      poll.Peer.pending_repairs <- (block, others) :: rest;
      send_to ctx peer ~identity:supplier ~au:st.Peer.au
        (Message.Repair_request { poll_id = poll.Peer.poll_id; block });
      let timer =
        Engine.schedule_in ctx.Peer.engine ~cls:Peer.cls_repair_timeout
          ~after:cfg.Config.repair_timeout (fun () ->
            match poll.Peer.phase with
            | Peer.Repairing ->
              poll.Peer.repair_timer <- None;
              issue_next_repair ctx peer st poll ~votes ~inner_votes
            | Peer.Soliciting | Peer.Concluded -> ())
      in
      poll.Peer.repair_timer <- Some timer)

let start_repair_phase ctx (peer : Peer.t) (st : Peer.au_state) (poll : Peer.poll) ~votes
    ~inner_votes =
  let cfg = ctx.Peer.cfg in
  poll.Peer.phase <- Peer.Repairing;
  let blocks =
    Tally.blocks_to_inspect
      ~poller_damage:(Replica.damaged_blocks st.Peer.replica)
      ~votes:inner_votes
  in
  let pending =
    List.filter_map
      (fun block ->
        match classify_block cfg st inner_votes block with
        | Tally.Landslide_agree -> None
        | Tally.Landslide_disagree dissenters ->
          Some (block, Rng.sample peer.Peer.rng (List.length dissenters) dissenters)
        | Tally.Inconclusive ->
          poll.Peer.alarmed <- true;
          None)
      blocks
  in
  (* Frivolous repair: exercise a random voter's repair path even when no
     block needs it, to make targeted repair-refusal free-riding
     detectable. *)
  let pending =
    if
      Rng.bernoulli peer.Peer.rng cfg.Config.frivolous_repair_prob
      && inner_votes <> [] && pending = []
    then begin
      let block = Rng.int peer.Peer.rng cfg.Config.au_blocks in
      let voter = (Rng.pick_list peer.Peer.rng inner_votes).Vote.voter in
      [ (block, [ voter ]) ]
    end
    else pending
  in
  poll.Peer.pending_repairs <- pending;
  if poll.Peer.alarmed then conclude ctx peer st poll ~votes Metrics.Alarmed
  else issue_next_repair ctx peer st poll ~votes ~inner_votes

let begin_evaluation ctx (peer : Peer.t) (st : Peer.au_state) (poll : Peer.poll) =
  let cfg = ctx.Peer.cfg in
  (* Freeze solicitation: unresolved candidates have failed. *)
  List.iter
    (fun (cand : Peer.candidate) ->
      match cand.Peer.status with
      | Peer.Awaiting_ack timeout | Peer.Awaiting_vote timeout ->
        Engine.cancel ctx.Peer.engine timeout;
        cand.Peer.status <- Peer.Failed
      | Peer.Not_invited -> cand.Peer.status <- Peer.Failed
      | Peer.Voted | Peer.Failed -> ())
    poll.Peer.candidates;
  let votes = valid_votes ctx peer st poll in
  poll.Peer.votes <- votes;
  let inner_votes =
    List.filter_map
      (fun ((cand : Peer.candidate), vote) -> if cand.Peer.inner then Some vote else None)
      votes
  in
  if Trace.enabled ctx.Peer.trace ~bound:Trace.Debug then
    Trace.emit ~bound:Trace.Debug ctx.Peer.trace ~now:(Engine.now ctx.Peer.engine)
      (fun () ->
        Trace.Evaluation_started
          {
            poller = peer.Peer.identity;
            au = st.Peer.au;
            poll_id = poll.Peer.poll_id;
            votes = List.length votes;
          });
  if votes = [] then conclude ctx peer st poll ~votes Metrics.Inquorate
  else begin
    (* One pass over the local replica computes, in parallel, every hash
       each voter should have produced. *)
    let finish =
      Peer.charge_and_delay ctx peer ~phase:Trace.Evaluation ~au:st.Peer.au
        ~poll_id:poll.Peer.poll_id ~work:(hash_au_cost cfg)
    in
    ignore
      (Engine.schedule ctx.Peer.engine ~at:finish (fun () ->
           if List.length inner_votes < cfg.Config.quorum then
             conclude ctx peer st poll ~votes Metrics.Inquorate
           else start_repair_phase ctx peer st poll ~votes ~inner_votes))
  end

let start_outer_phase ctx (peer : Peer.t) (st : Peer.au_state) (poll : Peer.poll) =
  let cfg = ctx.Peer.cfg in
  match poll.Peer.phase with
  | Peer.Soliciting ->
    let existing =
      peer.Peer.identity
      :: List.map (fun (c : Peer.candidate) -> c.Peer.cand_identity) poll.Peer.candidates
    in
    let pool =
      List.sort_uniq Ids.Identity.compare poll.Peer.nominations
      |> List.filter (fun id -> not (List.exists (Ids.Identity.equal id) existing))
    in
    let chosen = Rng.sample peer.Peer.rng cfg.Config.outer_circle_size pool in
    let outer =
      List.map
        (fun id ->
          {
            Peer.cand_identity = id;
            inner = false;
            attempts = 0;
            status = Peer.Not_invited;
            cand_nonce = 0L;
          })
        chosen
    in
    poll.Peer.candidates <- poll.Peer.candidates @ outer;
    schedule_solicitations ctx peer st poll outer
      ~window_start:(Engine.now ctx.Peer.engine)
      ~window_end:poll.Peer.outer_deadline
  | Peer.Repairing | Peer.Concluded -> ()

(* -- Entry points ------------------------------------------------------ *)

let rec start_poll ctx (peer : Peer.t) (st : Peer.au_state) =
  let cfg = ctx.Peer.cfg in
  let now = Engine.now ctx.Peer.engine in
  (* Fixed-rate clock: the next poll starts one interval from now, no
     matter what happens to this one. *)
  ignore
    (Engine.schedule_in ctx.Peer.engine ~after:cfg.Config.inter_poll_interval (fun () ->
         start_poll ctx peer st));
  if not peer.Peer.active then ()  (* crashed: keep the clock, skip the tick *)
  else
  match st.Peer.current_poll with
  | Some _ -> ()  (* previous poll overran; skip this tick *)
  | None ->
    let interval = cfg.Config.inter_poll_interval in
    let poll =
      {
        Peer.poll_id = Peer.fresh_poll_id peer;
        poll_au = st.Peer.au;
        started_at = now;
        inner_deadline = now +. (cfg.Config.inner_window_fraction *. interval);
        outer_deadline = now +. (cfg.Config.outer_window_fraction *. interval);
        candidates = [];
        votes = [];
        nominations = [];
        phase = Peer.Soliciting;
        pending_repairs = [];
        repair_timer = None;
        repair_attempts = 0;
        alarmed = false;
      }
    in
    st.Peer.current_poll <- Some poll;
    let sample_size = cfg.Config.inner_circle_factor * cfg.Config.quorum in
    let inner_ids =
      Reference_list.sample st.Peer.reference ~rng:peer.Peer.rng ~count:sample_size
        ~excluding:[ peer.Peer.identity ]
    in
    let inner =
      List.map
        (fun id ->
          {
            Peer.cand_identity = id;
            inner = true;
            attempts = 0;
            status = Peer.Not_invited;
            cand_nonce = 0L;
          })
        inner_ids
    in
    poll.Peer.candidates <- inner;
    if Trace.enabled ctx.Peer.trace ~bound:Trace.Info then
      Trace.emit ~bound:Trace.Info ctx.Peer.trace ~now (fun () ->
          Trace.Poll_started
            {
              poller = peer.Peer.identity;
              au = st.Peer.au;
              poll_id = poll.Peer.poll_id;
              inner_candidates = List.length inner;
            });
    if Trace.enabled ctx.Peer.trace ~bound:Trace.Debug then
      Trace.emit ~bound:Trace.Debug ctx.Peer.trace ~now (fun () ->
          Trace.Poll_sampled
            {
              poller = peer.Peer.identity;
              au = st.Peer.au;
              poll_id = poll.Peer.poll_id;
              invited = inner_ids;
              reference = Reference_list.members st.Peer.reference;
            });
    schedule_solicitations ctx peer st poll inner ~window_start:now
      ~window_end:poll.Peer.inner_deadline;
    ignore
      (Engine.schedule ctx.Peer.engine ~at:poll.Peer.inner_deadline (fun () ->
           start_outer_phase ctx peer st poll));
    ignore
      (Engine.schedule ctx.Peer.engine ~at:poll.Peer.outer_deadline (fun () ->
           match poll.Peer.phase with
           | Peer.Soliciting -> begin_evaluation ctx peer st poll
           | Peer.Repairing | Peer.Concluded -> ()))

let on_poll_ack ctx (peer : Peer.t) ~identity ~au ~poll_id ~accepted =
  let st = Peer.au_state peer au in
  let reject = Peer.reject_message ctx peer ~from_:identity ~au ~poll_id ~msg_kind:"poll_ack" in
  match current_poll st ~poll_id with
  | None -> reject Trace.Unknown_poll
  | Some poll ->
    (match find_candidate poll identity with
    | None -> reject Trace.Uninvited
    | Some cand ->
      (match cand.Peer.status with
      | Peer.Awaiting_ack timeout ->
        Engine.cancel ctx.Peer.engine timeout;
        if not accepted then retry_or_fail ctx peer st poll cand
        else begin
          let cfg = ctx.Peer.cfg in
          let remaining_cost = Config.remaining_effort cfg in
          (* Generate the balance of the provable effort; the PollProof
             leaves when it is ready. *)
          let finish =
            Peer.charge_and_delay ctx peer ~phase:Trace.Solicitation ~au ~poll_id
              ~work:remaining_cost
          in
          let nonce = Rng.bits64 peer.Peer.rng in
          cand.Peer.cand_nonce <- nonce;
          let vote_patience = cfg.Config.vote_allowance +. cfg.Config.vote_timeout_slack in
          let dispatch () =
            match (poll.Peer.phase, cand.Peer.status) with
            | Peer.Soliciting, Peer.Awaiting_vote _ ->
              let remaining = Proof.generate ~rng:peer.Peer.rng ~cost:remaining_cost in
              send_to ctx peer ~identity ~au
                (Message.Poll_proof { poll_id; remaining; nonce });
              let timeout =
                Engine.schedule_in ctx.Peer.engine ~cls:Peer.cls_vote_timeout
                  ~after:vote_patience (fun () ->
                    match cand.Peer.status with
                    | Peer.Awaiting_vote _ -> cand.Peer.status <- Peer.Failed
                    | Peer.Not_invited | Peer.Awaiting_ack _ | Peer.Voted | Peer.Failed
                      -> ())
              in
              cand.Peer.status <- Peer.Awaiting_vote timeout
            | ( (Peer.Soliciting | Peer.Repairing | Peer.Concluded),
                ( Peer.Not_invited | Peer.Awaiting_ack _ | Peer.Awaiting_vote _
                | Peer.Voted | Peer.Failed ) ) -> ()
          in
          (* While the proof is being generated the candidate waits in
             Awaiting_vote state, holding the dispatch event as its
             timeout (begin_evaluation cancels it if the window ends). *)
          cand.Peer.status <-
            Peer.Awaiting_vote
              (Engine.schedule ctx.Peer.engine ~cls:Peer.cls_vote_timeout ~at:finish
                 dispatch)
        end
      | Peer.Not_invited | Peer.Awaiting_vote _ | Peer.Voted | Peer.Failed ->
        reject Trace.Wrong_state))

let on_vote ctx (peer : Peer.t) ~identity ~au ~poll_id ~vote =
  let st = Peer.au_state peer au in
  let reject = Peer.reject_message ctx peer ~from_:identity ~au ~poll_id ~msg_kind:"vote" in
  match current_poll st ~poll_id with
  | None -> reject Trace.Unknown_poll
  | Some poll ->
    (match find_candidate poll identity with
    | None -> reject Trace.Uninvited
    | Some cand ->
      (match cand.Peer.status with
      | Peer.Awaiting_vote timeout ->
        Engine.cancel ctx.Peer.engine timeout;
        cand.Peer.status <- Peer.Voted;
        poll.Peer.votes <- (cand, vote) :: poll.Peer.votes;
        (* Discovery: split the vote's peer identities between outer-circle
           nominations and introductions. *)
        let cfg = ctx.Peer.cfg in
        List.iter
          (fun nominee ->
            if cfg.Config.introductions_enabled && Rng.bool peer.Peer.rng then
              Introductions.add
                (Admission.introductions st.Peer.admission)
                ~introducer:identity ~introducee:nominee
            else poll.Peer.nominations <- nominee :: poll.Peer.nominations)
          vote.Vote.nominations
      | Peer.Not_invited | Peer.Awaiting_ack _ | Peer.Voted | Peer.Failed ->
        reject Trace.Wrong_state))

let on_repair ctx (peer : Peer.t) ~identity ~au ~poll_id ~block ~version =
  let st = Peer.au_state peer au in
  let reject = Peer.reject_message ctx peer ~from_:identity ~au ~poll_id ~msg_kind:"repair" in
  if block < 0 || block >= Replica.block_count st.Peer.replica then
    (* A corrupted block index would blow up Replica.write below. *)
    reject Trace.Bad_block
  else
  match current_poll st ~poll_id with
  | None -> reject Trace.Unknown_poll
  | Some poll ->
    (match poll.Peer.phase with
    | Peer.Repairing ->
      (match poll.Peer.pending_repairs with
      | (pending_block, _suppliers) :: rest when pending_block = block ->
        (match poll.Peer.repair_timer with
        | Some timer ->
          Engine.cancel ctx.Peer.engine timer;
          poll.Peer.repair_timer <- None
        | None -> ());
        let cfg = ctx.Peer.cfg in
        (* Validate and install the repair, then re-evaluate the block. A
           repair from a malign voter can corrupt a previously clean
           replica — track both transition directions. *)
        Peer.charge ctx ~who:peer.Peer.identity ~phase:Trace.Repair
          ~poller:peer.Peer.identity ~au:st.Peer.au ~poll_id
          (2. *. block_hash_cost cfg);
        Metrics.on_repair ctx.Peer.metrics;
        let was_damaged = Replica.is_damaged st.Peer.replica in
        let became_clean = Replica.write st.Peer.replica ~block ~version in
        let now_damaged = Replica.is_damaged st.Peer.replica in
        if Trace.enabled ctx.Peer.trace ~bound:Trace.Info then
          Trace.emit ~bound:Trace.Info ctx.Peer.trace ~now:(Engine.now ctx.Peer.engine)
            (fun () ->
              Trace.Repair_applied
                {
                  poller = peer.Peer.identity;
                  au = st.Peer.au;
                  poll_id;
                  block;
                  version;
                  clean = not now_damaged;
                });
        if became_clean then
          Metrics.on_replica_repaired ctx.Peer.metrics ~now:(Engine.now ctx.Peer.engine)
        else if (not was_damaged) && now_damaged then
          Metrics.on_replica_damaged ctx.Peer.metrics ~now:(Engine.now ctx.Peer.engine);
        let inner_votes =
          List.filter_map
            (fun ((c : Peer.candidate), v) -> if c.Peer.inner then Some v else None)
            poll.Peer.votes
        in
        let votes = poll.Peer.votes in
        (match classify_block cfg st inner_votes block with
        | Tally.Landslide_agree ->
          poll.Peer.pending_repairs <- rest;
          issue_next_repair ctx peer st poll ~votes ~inner_votes
        | Tally.Landslide_disagree _ ->
          (* The repair came from a voter whose own copy is damaged; try
             the remaining dissenters, up to the retry budget. *)
          poll.Peer.repair_attempts <- poll.Peer.repair_attempts + 1;
          if poll.Peer.repair_attempts > cfg.Config.max_repair_attempts then
            conclude ctx peer st poll ~votes Metrics.Inquorate
          else issue_next_repair ctx peer st poll ~votes ~inner_votes
        | Tally.Inconclusive ->
          poll.Peer.alarmed <- true;
          conclude ctx peer st poll ~votes Metrics.Alarmed)
      | (_, _) :: _ | [] ->
        (* Not the block at the head of the repair queue: either a stale
           retransmission or a corrupted index. *)
        reject Trace.Bad_block)
    | Peer.Soliciting | Peer.Concluded -> reject Trace.Wrong_phase)
