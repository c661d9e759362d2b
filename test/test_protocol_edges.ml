(* Edge-case tests that drive the poller/voter state machines directly
   with hand-crafted messages: desertion, forgery, nonce mismatches,
   unsolicited votes, duplicates. *)

module Duration = Repro_prelude.Duration
module Rng = Repro_prelude.Rng
module Engine = Narses.Engine
module Proof = Effort.Proof
open Lockss

let cfg =
  {
    Config.default with
    Config.loyal_peers = 8;
    aus = 1;
    quorum = 2;
    max_disagree = 0;
    inner_circle_factor = 2;
    outer_circle_size = 2;
    reference_list_target = 5;
    friends_count = 2;
    (* Make sure admission never randomly interferes with these tests. *)
    drop_unknown = 0.;
    drop_debt = 0.;
  }

(* A fresh world whose poll clocks have not started yet (polls begin at a
   random phase within the first interval; we operate near t = 0). *)
let make_world () =
  let population = Population.create ~seed:99 cfg in
  let ctx = Population.ctx population in
  (population, ctx)

let rng = Rng.create 4242

let genuine_intro () = Proof.generate ~rng ~cost:(Config.intro_effort cfg)
let genuine_remaining () = Proof.generate ~rng ~cost:(Config.remaining_effort cfg)

let find_session (peer : Peer.t) key = Peer.Session_tbl.find_opt peer.Peer.voter_sessions key

let test_accepted_poll_creates_session () =
  let population, ctx = make_world () in
  let voter = ctx.Peer.peers.(0) in
  Voter.on_poll ctx voter ~src:1 ~identity:1 ~au:0 ~poll_id:77 ~intro:(genuine_intro ());
  (match find_session voter (1, 0, 77) with
  | Some session ->
    (match session.Peer.vs_state with
    | Peer.Awaiting_proof _ -> ()
    | _ -> Alcotest.fail "expected Awaiting_proof")
  | None -> Alcotest.fail "session missing");
  ignore population

let test_forged_intro_rejected_and_punished () =
  let _population, ctx = make_world () in
  let voter = ctx.Peer.peers.(0) in
  let st = Peer.au_state voter 0 in
  (* Make identity 1 a known, trusted peer; a forged proof erases that. *)
  Known_peers.set st.Peer.known ~now:0. 1 Grade.Credit;
  Voter.on_poll ctx voter ~src:1 ~identity:1 ~au:0 ~poll_id:77
    ~intro:(Proof.forged ~claimed_cost:1e6);
  Alcotest.(check (option unit)) "no session" None
    (Option.map (fun _ -> ()) (find_session voter (1, 0, 77)));
  Alcotest.(check bool) "punished into oblivion" false (Known_peers.known st.Peer.known 1)

let test_duplicate_poll_ignored () =
  let _population, ctx = make_world () in
  let voter = ctx.Peer.peers.(0) in
  Voter.on_poll ctx voter ~src:1 ~identity:1 ~au:0 ~poll_id:77 ~intro:(genuine_intro ());
  Voter.on_poll ctx voter ~src:1 ~identity:1 ~au:0 ~poll_id:77 ~intro:(genuine_intro ());
  Alcotest.(check int) "one session" 1 (Peer.Session_tbl.length voter.Peer.voter_sessions)

let test_proof_desertion_times_out_and_punishes () =
  let _population, ctx = make_world () in
  let voter = ctx.Peer.peers.(0) in
  let st = Peer.au_state voter 0 in
  Voter.on_poll ctx voter ~src:1 ~identity:1 ~au:0 ~poll_id:77 ~intro:(genuine_intro ());
  let backlog_before = Effort.Task_schedule.reserved_work voter.Peer.schedule ~now:0. in
  Alcotest.(check bool) "vote work reserved" true (backlog_before > 0.);
  (* Never send the PollProof: the INTRO reservation attack. *)
  Engine.run_until ctx.Peer.engine ~limit:(cfg.Config.proof_timeout +. Duration.hour);
  Alcotest.(check (option unit)) "session reaped" None
    (Option.map (fun _ -> ()) (find_session voter (1, 0, 77)));
  Alcotest.(check bool) "deserter forgotten" false (Known_peers.known st.Peer.known 1);
  let now = Engine.now ctx.Peer.engine in
  Alcotest.(check (float 1e-6)) "reservation released" 0.
    (Effort.Task_schedule.reserved_work voter.Peer.schedule ~now)

let test_forged_remaining_rejected () =
  let _population, ctx = make_world () in
  let voter = ctx.Peer.peers.(0) in
  let st = Peer.au_state voter 0 in
  Voter.on_poll ctx voter ~src:1 ~identity:1 ~au:0 ~poll_id:77 ~intro:(genuine_intro ());
  Voter.on_poll_proof ctx voter ~identity:1 ~au:0 ~poll_id:77
    ~remaining:(Proof.forged ~claimed_cost:1e6) ~nonce:5L;
  Alcotest.(check (option unit)) "session closed" None
    (Option.map (fun _ -> ()) (find_session voter (1, 0, 77)));
  Alcotest.(check bool) "cheater forgotten" false (Known_peers.known st.Peer.known 1)

let test_full_voter_exchange_produces_vote () =
  let population, ctx = make_world () in
  let voter = ctx.Peer.peers.(0) in
  (* The session keeps only the expected receipt, so read the vote where
     the poller's node receives it. *)
  let received = ref [] in
  Narses.Net.register ctx.Peer.net 1 (fun ~src:_ msg ->
      match msg.Message.payload with
      | Message.Vote_msg { poll_id; vote } -> received := (poll_id, vote) :: !received
      | _ -> ());
  Voter.on_poll ctx voter ~src:1 ~identity:1 ~au:0 ~poll_id:77 ~intro:(genuine_intro ());
  Voter.on_poll_proof ctx voter ~identity:1 ~au:0 ~poll_id:77
    ~remaining:(genuine_remaining ()) ~nonce:42L;
  (* Run long enough for the vote computation to complete. *)
  Engine.run_until ctx.Peer.engine ~limit:(Duration.of_days 1.);
  (match find_session voter (1, 0, 77) with
  | Some session ->
    (match (session.Peer.vs_state, session.Peer.vs_receipt, !received) with
    | Peer.Voted_waiting_receipt _, Some receipt, [ (77, vote) ] ->
      Alcotest.(check int64) "vote echoes nonce" 42L vote.Vote.nonce;
      Alcotest.(check bool) "vote honest" false vote.Vote.bogus;
      Alcotest.(check (pair int64 int64))
        "session keeps the vote's receipt" (Vote.expected_receipt vote) receipt
    | _ -> Alcotest.fail "expected one sent vote awaiting receipt")
  | None -> Alcotest.fail "session missing");
  let s = Population.summary population in
  Alcotest.(check int) "vote counted" 1 s.Metrics.votes_supplied

let with_voted_session () =
  let population, ctx = make_world () in
  let voter = ctx.Peer.peers.(0) in
  Voter.on_poll ctx voter ~src:1 ~identity:1 ~au:0 ~poll_id:77 ~intro:(genuine_intro ());
  Voter.on_poll_proof ctx voter ~identity:1 ~au:0 ~poll_id:77
    ~remaining:(genuine_remaining ()) ~nonce:42L;
  Engine.run_until ctx.Peer.engine ~limit:(Duration.of_days 1.);
  let session =
    match find_session voter (1, 0, 77) with
    | Some s -> s
    | None -> Alcotest.fail "session missing"
  in
  (population, ctx, voter, session)

let test_valid_receipt_settles () =
  let _population, ctx, voter, session = with_voted_session () in
  let st = Peer.au_state voter 0 in
  Voter.on_receipt ctx voter ~identity:1 ~au:0 ~poll_id:77
    ~receipt:(Option.get session.Peer.vs_receipt);
  Alcotest.(check (option unit)) "session closed" None
    (Option.map (fun _ -> ()) (find_session voter (1, 0, 77)));
  (* Normal settlement: one step toward debt from Even. *)
  (match Known_peers.grade st.Peer.known ~now:(Engine.now ctx.Peer.engine) 1 with
  | Some Grade.Debt -> ()
  | g ->
    Alcotest.failf "expected debt after settlement, got %s"
      (match g with
      | None -> "unknown"
      | Some Grade.Even -> "even"
      | Some Grade.Credit -> "credit"
      | Some Grade.Debt -> assert false))

let test_bad_receipt_punishes () =
  let _population, ctx, voter, _session = with_voted_session () in
  let st = Peer.au_state voter 0 in
  Voter.on_receipt ctx voter ~identity:1 ~au:0 ~poll_id:77 ~receipt:(0L, 0L);
  Alcotest.(check bool) "wasteful poller forgotten" false (Known_peers.known st.Peer.known 1)

let test_committed_voter_serves_repairs () =
  let population, ctx, voter, _session = with_voted_session () in
  ignore (Replica.damage (Peer.au_state voter 0).Peer.replica ~block:3 ~version:9);
  Voter.on_repair_request ctx voter ~identity:1 ~au:0 ~poll_id:77 ~block:3;
  (* The Repair flows back over the network toward node 1. *)
  let before = Narses.Net.delivered_count ctx.Peer.net in
  Engine.run_until ctx.Peer.engine ~limit:(Engine.now ctx.Peer.engine +. Duration.hour);
  Alcotest.(check bool) "repair message delivered" true
    (Narses.Net.delivered_count ctx.Peer.net > before);
  ignore population

let test_unsolicited_vote_ignored () =
  let population, ctx = make_world () in
  let victim = ctx.Peer.peers.(0) in
  let vote =
    {
      Vote.voter = 999_999;
      nonce = 1L;
      proof = Proof.forged ~claimed_cost:1.;
      snapshot = [];
      nominations = [ 999_998 ];
      bogus = true;
    }
  in
  let effort_before = (Population.summary population).Metrics.loyal_effort in
  Poller.on_vote ctx victim ~identity:999_999 ~au:0 ~poll_id:123_456 ~vote;
  let s = Population.summary population in
  (* The defense is structural: no state, no cost. *)
  Alcotest.(check (float 0.)) "no effort spent" effort_before s.Metrics.loyal_effort;
  Alcotest.(check int) "no poll state created" 0
    (match (Peer.au_state victim 0).Peer.current_poll with None -> 0 | Some _ -> 1)

let test_repair_for_unknown_poll_ignored () =
  let _population, ctx = make_world () in
  let victim = ctx.Peer.peers.(0) in
  Poller.on_repair ctx victim ~identity:3 ~au:0 ~poll_id:5 ~block:0 ~version:7;
  Alcotest.(check bool) "replica untouched" false
    (Replica.is_damaged (Peer.au_state victim 0).Peer.replica)

let test_ack_for_unknown_poll_ignored () =
  let _population, ctx = make_world () in
  let victim = ctx.Peer.peers.(0) in
  (* Must not raise nor create state. *)
  Poller.on_poll_ack ctx victim ~identity:3 ~au:0 ~poll_id:5 ~accepted:true;
  Alcotest.(check int) "no sessions" 0 (Peer.Session_tbl.length victim.Peer.voter_sessions)

(* -- Timeout handlers -------------------------------------------------- *)

(* A world where every peer ignores traffic and skips its poll ticks, so
   the only protocol activity (and the only classed timer) is what a test
   drives by hand. The clocks and damage processes attached at creation
   keep firing as unlabeled no-ops. *)
let quiet_world () =
  let population, ctx = make_world () in
  Array.iter (fun p -> p.Peer.active <- false) ctx.Peer.peers;
  (population, ctx)

let live ctx name =
  Option.value ~default:0 (List.assoc_opt name (Engine.live_by_class ctx.Peer.engine))

(* Counts [Message_rejected] events, optionally only those with [reason]. *)
let count_rejections ?reason population =
  let n = ref 0 in
  Trace.subscribe ~interest:Trace.Debug (Population.trace population)
    (fun ~time:_ event ->
      match event with
      | Trace.Message_rejected r ->
        (match reason with Some want when r.reason <> want -> () | _ -> incr n)
      | _ -> ());
  n

let plain_vote ~voter =
  {
    Vote.voter;
    nonce = 0L;
    proof = Proof.forged ~claimed_cost:1.;
    snapshot = [];
    nominations = [];
    bogus = false;
  }

let make_candidate ~identity =
  { Peer.cand_identity = identity; inner = true; attempts = 1;
    status = Peer.Not_invited; cand_nonce = 0L }

(* A hand-built poll installed as the peer's current poll, so each timer
   can be exercised in isolation at a known state. *)
let install_poll (st : Peer.au_state) ~poll_id ~candidates =
  let poll =
    {
      Peer.poll_id;
      poll_au = st.Peer.au;
      started_at = 0.;
      inner_deadline = Duration.of_days 40.;
      outer_deadline = Duration.of_days 80.;
      candidates;
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
  poll

(* Nobody answers the solicitations, so every candidate's ack timeout
   fires, retries through the budget and fails; the poll must conclude
   inquorate with no classed timer left behind, and a late ack must be a
   taxonomized no-op. *)
let test_ack_timeout_fails_candidates_and_poll () =
  let population, ctx = make_world () in
  Array.iteri (fun i p -> if i <> 0 then p.Peer.active <- false) ctx.Peer.peers;
  let poller = ctx.Peer.peers.(0) in
  let st = Peer.au_state poller 0 in
  Poller.start_poll ctx poller st;
  let poll = Option.get st.Peer.current_poll in
  Engine.run_until ctx.Peer.engine ~limit:(poll.Peer.outer_deadline +. Duration.hour);
  Alcotest.(check (option unit)) "poll concluded" None
    (Option.map (fun _ -> ()) st.Peer.current_poll);
  List.iter
    (fun (c : Peer.candidate) ->
      match c.Peer.status with
      | Peer.Failed -> ()
      | _ -> Alcotest.fail "candidate not failed after ack timeouts")
    poll.Peer.candidates;
  Alcotest.(check int) "no live ack timers" 0 (live ctx "ack_timeout");
  Alcotest.(check int) "no live vote timers" 0 (live ctx "vote_timeout");
  Alcotest.(check bool) "inquorate recorded" true
    ((Population.summary population).Metrics.polls_inquorate >= 1);
  (* Idempotence: the timeout already resolved this candidate; a
     straggling ack for the dead poll is rejected without state. *)
  let rejections = count_rejections ~reason:Trace.Unknown_poll population in
  let survivor = (List.hd poll.Peer.candidates).Peer.cand_identity in
  Poller.on_poll_ack ctx poller ~identity:survivor ~au:0
    ~poll_id:poll.Peer.poll_id ~accepted:true;
  Alcotest.(check int) "late ack rejected" 1 !rejections

(* An accepted candidate that never votes: the vote-patience timer fires
   and marks it failed; a duplicate ack while waiting and a late vote
   after the timeout are both rejected without touching the tally. *)
let test_vote_timeout_marks_candidate_failed () =
  let population, ctx = quiet_world () in
  let poller = ctx.Peer.peers.(0) in
  let st = Peer.au_state poller 0 in
  let cand = make_candidate ~identity:1 in
  let poll = install_poll st ~poll_id:901 ~candidates:[ cand ] in
  let ack_timer =
    Engine.schedule_in ctx.Peer.engine ~cls:Peer.cls_ack_timeout
      ~after:(Duration.of_days 2.) (fun () -> ())
  in
  cand.Peer.status <- Peer.Awaiting_ack ack_timer;
  Alcotest.(check int) "one live ack timer" 1 (live ctx "ack_timeout");
  Poller.on_poll_ack ctx poller ~identity:1 ~au:0 ~poll_id:901 ~accepted:true;
  Alcotest.(check int) "ack timer cancelled" 0 (live ctx "ack_timeout");
  (match cand.Peer.status with
  | Peer.Awaiting_vote _ -> ()
  | _ -> Alcotest.fail "expected Awaiting_vote after accepted ack");
  Alcotest.(check int) "one live vote timer" 1 (live ctx "vote_timeout");
  (* Duplicate ack while awaiting the vote: no second dispatch. *)
  let dup_acks = count_rejections ~reason:Trace.Wrong_state population in
  Poller.on_poll_ack ctx poller ~identity:1 ~au:0 ~poll_id:901 ~accepted:true;
  Alcotest.(check int) "duplicate ack rejected" 1 !dup_acks;
  Alcotest.(check int) "still one live vote timer" 1 (live ctx "vote_timeout");
  (* The vote never arrives: patience runs out. *)
  Engine.run_until ctx.Peer.engine ~limit:(Duration.of_days 30.);
  (match cand.Peer.status with
  | Peer.Failed -> ()
  | _ -> Alcotest.fail "expected Failed after vote timeout");
  Alcotest.(check int) "vote timer cleaned up" 0 (live ctx "vote_timeout");
  let late_votes = count_rejections ~reason:Trace.Wrong_state population in
  Poller.on_vote ctx poller ~identity:1 ~au:0 ~poll_id:901
    ~vote:(plain_vote ~voter:1);
  Alcotest.(check int) "late vote rejected" 1 !late_votes;
  Alcotest.(check int) "tally untouched" 0 (List.length poll.Peer.votes)

(* Repair suppliers that never answer: each repair timeout advances to
   the next supplier, and exhausting them concludes the poll inquorate
   with no timer left; a straggling repair is then rejected. *)
let test_repair_timeout_advances_then_concludes () =
  let population, ctx = quiet_world () in
  let poller = ctx.Peer.peers.(0) in
  let st = Peer.au_state poller 0 in
  let cand = { (make_candidate ~identity:5) with Peer.status = Peer.Voted } in
  let poll = install_poll st ~poll_id:902 ~candidates:[ cand ] in
  poll.Peer.votes <- [ (cand, plain_vote ~voter:5) ];
  poll.Peer.phase <- Peer.Repairing;
  poll.Peer.pending_repairs <- [ (2, [ 5 ]); (3, [ 6; 7 ]) ];
  (* Applying the head repair moves the queue on and arms the timer for
     the next block's first supplier. *)
  Poller.on_repair ctx poller ~identity:5 ~au:0 ~poll_id:902 ~block:2 ~version:0;
  Alcotest.(check bool) "repair timer armed" true (poll.Peer.repair_timer <> None);
  Alcotest.(check int) "one live repair timer" 1 (live ctx "repair_timeout");
  (* Supplier 6 never answers; the timeout re-issues to supplier 7. *)
  let t1 = Engine.now ctx.Peer.engine in
  Engine.run_until ctx.Peer.engine
    ~limit:(t1 +. ctx.Peer.cfg.Config.repair_timeout +. Duration.hour);
  Alcotest.(check int) "re-armed for next supplier" 1 (live ctx "repair_timeout");
  (match poll.Peer.phase with
  | Peer.Repairing -> ()
  | _ -> Alcotest.fail "poll should still be repairing");
  (* Supplier 7 deserts too: out of suppliers, the poll fails cleanly. *)
  let t2 = Engine.now ctx.Peer.engine in
  Engine.run_until ctx.Peer.engine
    ~limit:(t2 +. ctx.Peer.cfg.Config.repair_timeout +. Duration.hour);
  Alcotest.(check (option unit)) "poll concluded" None
    (Option.map (fun _ -> ()) st.Peer.current_poll);
  Alcotest.(check int) "repair timer cleaned up" 0 (live ctx "repair_timeout");
  Alcotest.(check bool) "inquorate recorded" true
    ((Population.summary population).Metrics.polls_inquorate >= 1);
  let late = count_rejections ~reason:Trace.Unknown_poll population in
  Poller.on_repair ctx poller ~identity:7 ~au:0 ~poll_id:902 ~block:3 ~version:0;
  Alcotest.(check int) "late repair rejected" 1 !late

(* Late PollProof after the proof timeout reaped the session: rejected as
   unknown, and no ghost session appears. (The timeout's cleanup side is
   covered by the desertion test above.) *)
let test_late_proof_after_desertion_rejected () =
  let population, ctx = quiet_world () in
  let voter = ctx.Peer.peers.(0) in
  Voter.on_poll ctx voter ~src:1 ~identity:1 ~au:0 ~poll_id:77 ~intro:(genuine_intro ());
  Alcotest.(check int) "one live proof timer" 1 (live ctx "proof_timeout");
  Engine.run_until ctx.Peer.engine
    ~limit:(cfg.Config.proof_timeout +. Duration.hour);
  Alcotest.(check int) "proof timer cleaned up" 0 (live ctx "proof_timeout");
  let late = count_rejections ~reason:Trace.Unknown_session population in
  Voter.on_poll_proof ctx voter ~identity:1 ~au:0 ~poll_id:77
    ~remaining:(genuine_remaining ()) ~nonce:5L;
  Alcotest.(check int) "late proof rejected" 1 !late;
  Alcotest.(check int) "no ghost session" 0 (Peer.Session_tbl.length voter.Peer.voter_sessions)

(* A poller that never sends the receipt: the receipt timeout punishes it
   and reaps the session; a late receipt is then rejected. *)
let test_receipt_timeout_reaps_session () =
  let population, ctx = quiet_world () in
  let voter = ctx.Peer.peers.(0) in
  let st = Peer.au_state voter 0 in
  Voter.on_poll ctx voter ~src:1 ~identity:1 ~au:0 ~poll_id:77 ~intro:(genuine_intro ());
  Voter.on_poll_proof ctx voter ~identity:1 ~au:0 ~poll_id:77
    ~remaining:(genuine_remaining ()) ~nonce:42L;
  Engine.run_until ctx.Peer.engine ~limit:(Duration.of_days 1.);
  (match find_session voter (1, 0, 77) with
  | Some { Peer.vs_state = Peer.Voted_waiting_receipt _; _ } -> ()
  | _ -> Alcotest.fail "expected a sent vote awaiting receipt");
  Alcotest.(check int) "one live receipt timer" 1 (live ctx "receipt_timeout");
  let start = Engine.now ctx.Peer.engine in
  Engine.run_until ctx.Peer.engine
    ~limit:(start +. cfg.Config.inter_poll_interval +. Duration.hour);
  Alcotest.(check (option unit)) "session reaped" None
    (Option.map (fun _ -> ()) (find_session voter (1, 0, 77)));
  Alcotest.(check int) "receipt timer cleaned up" 0 (live ctx "receipt_timeout");
  Alcotest.(check bool) "deserting poller forgotten" false
    (Known_peers.known st.Peer.known 1);
  let late = count_rejections ~reason:Trace.Unknown_session population in
  Voter.on_receipt ctx voter ~identity:1 ~au:0 ~poll_id:77 ~receipt:(0L, 0L);
  Alcotest.(check int) "late receipt rejected" 1 !late

(* A completed session's key lands in the closed ring: re-delivering the
   original Poll must not reopen a ghost session whose receipt timeout
   would punish an innocent poller. *)
let test_duplicate_poll_after_close_rejected_stale () =
  let population, ctx = quiet_world () in
  let voter = ctx.Peer.peers.(0) in
  Voter.on_poll ctx voter ~src:1 ~identity:1 ~au:0 ~poll_id:77 ~intro:(genuine_intro ());
  Voter.on_poll_proof ctx voter ~identity:1 ~au:0 ~poll_id:77
    ~remaining:(genuine_remaining ()) ~nonce:42L;
  Engine.run_until ctx.Peer.engine ~limit:(Duration.of_days 1.);
  let session = Option.get (find_session voter (1, 0, 77)) in
  Voter.on_receipt ctx voter ~identity:1 ~au:0 ~poll_id:77
    ~receipt:(Option.get session.Peer.vs_receipt);
  Alcotest.(check (option unit)) "session closed" None
    (Option.map (fun _ -> ()) (find_session voter (1, 0, 77)));
  let stale = count_rejections ~reason:Trace.Stale_closed population in
  Voter.on_poll ctx voter ~src:1 ~identity:1 ~au:0 ~poll_id:77 ~intro:(genuine_intro ());
  Alcotest.(check int) "duplicate poll rejected stale" 1 !stale;
  Alcotest.(check int) "no ghost session" 0 (Peer.Session_tbl.length voter.Peer.voter_sessions);
  Alcotest.(check int) "no live voter timers" 0
    (live ctx "proof_timeout" + live ctx "receipt_timeout")

let () =
  let quick name f = Alcotest.test_case name `Quick f in
  Alcotest.run "protocol-edges"
    [
      ( "voter",
        [
          quick "accepted poll creates session" test_accepted_poll_creates_session;
          quick "forged intro punished" test_forged_intro_rejected_and_punished;
          quick "duplicate poll ignored" test_duplicate_poll_ignored;
          quick "proof desertion reaped" test_proof_desertion_times_out_and_punishes;
          quick "forged remaining rejected" test_forged_remaining_rejected;
          quick "full exchange votes" test_full_voter_exchange_produces_vote;
          quick "valid receipt settles" test_valid_receipt_settles;
          quick "bad receipt punishes" test_bad_receipt_punishes;
          quick "committed voter serves repairs" test_committed_voter_serves_repairs;
        ] );
      ( "poller",
        [
          quick "unsolicited vote ignored" test_unsolicited_vote_ignored;
          quick "stray repair ignored" test_repair_for_unknown_poll_ignored;
          quick "stray ack ignored" test_ack_for_unknown_poll_ignored;
        ] );
      ( "timeouts",
        [
          quick "ack timeout fails candidates"
            test_ack_timeout_fails_candidates_and_poll;
          quick "vote timeout fails candidate" test_vote_timeout_marks_candidate_failed;
          quick "repair timeout advances suppliers"
            test_repair_timeout_advances_then_concludes;
          quick "late proof after desertion rejected"
            test_late_proof_after_desertion_rejected;
          quick "receipt timeout reaps session" test_receipt_timeout_reaps_session;
          quick "stale duplicate poll rejected"
            test_duplicate_poll_after_close_rejected_stale;
        ] );
    ]
