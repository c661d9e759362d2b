module Engine = Narses.Engine
module Peer = Lockss.Peer

type expected = {
  mutable ack : int;
  mutable vote : int;
  mutable proof : int;
  mutable receipt : int;
  mutable repair : int;
}

let violation ~now ?peer ?au ?poll_id ~invariant detail =
  {
    Invariant.invariant;
    severity = Invariant.Error;
    time = now;
    peer;
    au;
    poll_id;
    detail;
  }

let audit ~engine ~(ctx : Peer.ctx) =
  let now = Engine.now engine in
  let expected = { ack = 0; vote = 0; proof = 0; receipt = 0; repair = 0 } in
  let violations = ref [] in
  let add v = violations := v :: !violations in
  let require_live ~peer ~au ~poll_id ~what id =
    if not (Engine.is_live engine id) then
      add
        (violation ~now ~peer ~au ~poll_id ~invariant:"leak-dead-reference"
           (Printf.sprintf
              "peer %d au %d poll %d holds a dead %s event: a timer fired or was \
               cancelled without its owner being updated"
              peer au poll_id what))
  in
  Array.iter
    (fun (peer : Peer.t) ->
      (* Poller side: candidate statuses and the repair timer. *)
      Array.iter
        (fun (st : Peer.au_state) ->
          match st.Peer.current_poll with
          | None -> ()
          | Some poll ->
            let au = st.Peer.au and poll_id = poll.Peer.poll_id in
            List.iter
              (fun (cand : Peer.candidate) ->
                match cand.Peer.status with
                | Peer.Awaiting_ack id ->
                  expected.ack <- expected.ack + 1;
                  require_live ~peer:peer.Peer.identity ~au ~poll_id
                    ~what:"ack_timeout" id
                | Peer.Awaiting_vote id ->
                  expected.vote <- expected.vote + 1;
                  require_live ~peer:peer.Peer.identity ~au ~poll_id
                    ~what:"vote_timeout" id
                | Peer.Not_invited | Peer.Voted | Peer.Failed -> ())
              poll.Peer.candidates;
            (match poll.Peer.repair_timer with
            | Some id ->
              expected.repair <- expected.repair + 1;
              require_live ~peer:peer.Peer.identity ~au ~poll_id
                ~what:"repair_timeout" id
            | None -> ()))
        peer.Peer.aus;
      (* Voter side: session states. *)
      Peer.Session_tbl.iter
        (fun (_poller, au, poll_id) (session : Peer.voter_session) ->
          match session.Peer.vs_state with
          | Peer.Awaiting_proof id ->
            expected.proof <- expected.proof + 1;
            require_live ~peer:peer.Peer.identity ~au ~poll_id ~what:"proof_timeout" id
          | Peer.Voted_waiting_receipt id ->
            expected.receipt <- expected.receipt + 1;
            require_live ~peer:peer.Peer.identity ~au ~poll_id
              ~what:"receipt_timeout" id
          | Peer.Computing -> ()
          | Peer.Closed ->
            add
              (violation ~now ~peer:peer.Peer.identity ~au ~poll_id
                 ~invariant:"leak-closed-session"
                 (Printf.sprintf
                    "peer %d au %d poll %d: closed voter session still in the \
                     session table"
                    peer.Peer.identity au poll_id)))
        peer.Peer.voter_sessions)
    ctx.Peer.peers;
  let check_class name expected_count =
    match List.assoc_opt name (Engine.live_by_class engine) with
    | None ->
      (* The class was never registered — nothing can have been scheduled
         under it, so the expectation must be zero. *)
      if expected_count <> 0 then
        add
          (violation ~now ~invariant:"leak-timer-count"
             (Printf.sprintf "%s: %d owners but the class was never registered" name
                expected_count))
    | Some live ->
      if live <> expected_count then
        add
          (violation ~now ~invariant:"leak-timer-count"
             (Printf.sprintf
                "%s: %d live events in the engine but %d state-machine owners \
                 (difference %+d leaked)"
                name live expected_count (live - expected_count)))
  in
  check_class "ack_timeout" expected.ack;
  check_class "vote_timeout" expected.vote;
  check_class "proof_timeout" expected.proof;
  check_class "receipt_timeout" expected.receipt;
  check_class "repair_timeout" expected.repair;
  List.rev !violations
