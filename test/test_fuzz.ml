(* Property-based fuzzing of whole simulations: random (but valid)
   configurations, attacks and seeds must run to completion without
   exceptions and uphold global invariants. *)

module Duration = Repro_prelude.Duration
open Lockss

let config_gen =
  let open QCheck2.Gen in
  let* peers = int_range 10 20 in
  let* aus = int_range 1 3 in
  let* quorum = int_range 2 4 in
  let* max_disagree = int_range 0 ((quorum - 1) / 2) in
  let* interval_days = int_range 20 120 in
  let* capacity = float_range 0.01 2.0 in
  let* mttf = float_range 0.2 5.0 in
  let* drop_unknown = float_range 0.5 0.95 in
  let* drop_debt = float_range 0.2 drop_unknown in
  let* desynchronized = bool in
  let* introductions = bool in
  let* adaptive = bool in
  let* coverage = float_range 0.75 1.0 in
  let inner = 2 * quorum in
  if inner > peers - 1 then return None
  else if
    int_of_float (Float.round (coverage *. float_of_int peers)) <= inner
  then return None
  else
    return
      (Some
         {
           Config.default with
           Config.loyal_peers = peers;
           aus;
           quorum;
           max_disagree;
           inner_circle_factor = 2;
           outer_circle_size = quorum;
           reference_list_target = min (3 * quorum) (peers - 1);
           friends_count = min 3 (peers - 1);
           inter_poll_interval = Duration.of_days (float_of_int interval_days);
           capacity;
           disk_mttf_years = mttf;
           drop_unknown;
           drop_debt;
           desynchronized;
           introductions_enabled = introductions;
           adaptive_acceptance = adaptive;
           au_coverage = coverage;
         })

let attack_gen =
  let open QCheck2.Gen in
  let open Experiments.Scenario in
  oneof
    [
      return No_attack;
      (let* coverage = float_range 0.1 1.0 in
       let* days = int_range 5 120 in
       return
         (Pipe_stoppage
            {
              coverage;
              duration = Duration.of_days (float_of_int days);
              recuperation = Duration.of_days 30.;
            }));
      (let* coverage = float_range 0.1 1.0 in
       let* rate = float_range 1. 10. in
       return
         (Admission_flood
            {
              coverage;
              duration = Duration.of_days 60.;
              recuperation = Duration.of_days 30.;
              rate;
            }));
      (let* strategy =
         oneofl
           [ Adversary.Brute_force.Intro; Adversary.Brute_force.Remaining; Adversary.Brute_force.Full ]
       in
       return (Brute_force { strategy; rate = 3.; identities = 10 }));
      return (Vote_flood { rate = 5. });
      (let* fraction = float_range 0.1 0.4 in
       let* strategy =
         oneofl [ Adversary.Subversion.Aggressive; Adversary.Subversion.Patient ]
       in
       return (Subversion { fraction; strategy }));
      (let* fraction = float_range 0.1 0.4 in
       let* rate = float_range 1. 10. in
       return (Reciprocity { fraction; rate }));
    ]

let invariants (s : Metrics.summary) =
  let afp = s.Metrics.access_failure_probability in
  afp >= 0. && afp <= 1.
  && s.Metrics.polls_succeeded >= 0
  && s.Metrics.loyal_effort >= 0.
  && s.Metrics.adversary_effort >= 0.
  && s.Metrics.repairs >= 0
  && (s.Metrics.mean_success_gap > 0. || s.Metrics.mean_success_gap = infinity)
  && s.Metrics.invitations_considered >= 0
  && s.Metrics.invitations_dropped >= 0

let prop_random_simulations_run =
  QCheck2.Test.make ~name:"random configs+attacks run and keep invariants" ~count:40
    QCheck2.Gen.(triple config_gen attack_gen (int_range 1 10_000))
    (fun (cfg, attack, seed) ->
      match cfg with
      | None -> true (* generator produced an inconsistent draw; skip *)
      | Some cfg ->
        Config.validate cfg;
        let r = Experiments.Scenario.run ~cfg ~seed ~years:0.5 attack in
        (* Only the adversaries that compromise loyal peers keep counters. *)
        let counted =
          match attack with
          | Experiments.Scenario.Subversion _ | Reciprocity _ -> true
          | _ -> false
        in
        let adversary = r.Experiments.Scenario.adversary in
        invariants r.Experiments.Scenario.summary
        && counted = (adversary <> [])
        && List.for_all (fun (_, n) -> n >= 0) adversary)

let prop_runs_are_reproducible =
  QCheck2.Test.make ~name:"equal seeds reproduce bit-identical summaries" ~count:10
    QCheck2.Gen.(pair config_gen (int_range 1 1000))
    (fun (cfg, seed) ->
      match cfg with
      | None -> true
      | Some cfg ->
        let run () =
          (Experiments.Scenario.run ~cfg ~seed ~years:0.25 Experiments.Scenario.No_attack)
            .Experiments.Scenario.summary
        in
        let a = run () in
        let b = run () in
        a.Metrics.polls_succeeded = b.Metrics.polls_succeeded
        && a.Metrics.loyal_effort = b.Metrics.loyal_effort
        && a.Metrics.access_failure_probability = b.Metrics.access_failure_probability)

let prop_sessions_end_in_legal_states =
  QCheck2.Test.make ~name:"voter sessions end in legal states" ~count:15
    QCheck2.Gen.(pair config_gen (int_range 1 1000))
    (fun (cfg, seed) ->
      match cfg with
      | None -> true
      | Some cfg ->
        let population = Population.create ~seed cfg in
        Population.run population ~until:(Duration.of_months 6.);
        let ctx = Population.ctx population in
        Array.for_all
          (fun (peer : Peer.t) ->
            Peer.Session_tbl.fold
              (fun _key (session : Peer.voter_session) acc ->
                acc
                &&
                match session.Peer.vs_state with
                | Peer.Awaiting_proof _ | Peer.Computing | Peer.Voted_waiting_receipt _ ->
                  true
                | Peer.Closed -> false (* closed sessions must be removed *))
              peer.Peer.voter_sessions true)
          ctx.Peer.peers)

(* -- Byzantine message-mutation battery ------------------------------------ *)

(* The acceptance property for the hardened handlers: any well-formed
   message, corrupted in one or two fields, delivered straight into a
   live peer's dispatch must either be rejected with a taxonomized
   [message_rejected] event or absorbed without raising, without
   tripping the runtime invariant auditor, and without leaking a timer
   or session. *)

let byz_cfg =
  {
    Config.default with
    Config.loyal_peers = 12;
    aus = 2;
    quorum = 3;
    max_disagree = 0;
    inner_circle_factor = 2;
    outer_circle_size = 3;
    reference_list_target = 8;
    friends_count = 3;
    inter_poll_interval = Duration.of_days 30.;
    drop_unknown = 0.5;
    drop_debt = 0.25;
  }

let message_gen =
  let open QCheck2.Gen in
  let proof_gen =
    oneofl
      [
        Effort.Proof.forged ~claimed_cost:1.;
        Effort.Proof.forged ~claimed_cost:1e6;
      ]
  in
  let i64_gen = map Int64.of_int (int_range 0 1_000_000) in
  let vote_gen =
    let* voter = int_range 0 40 in
    let* nonce = i64_gen in
    let* proof = proof_gen in
    let* snapshot =
      list_size (int_range 0 3) (pair (int_range (-1) 12) (int_range 0 3))
    in
    (* Nominations stay within the loyal range: in a real deployment every
       nomination names some reachable node; unknown claimed identities are
       exercised through the envelope instead. *)
    let* nominations = list_size (int_range 0 2) (int_range 0 11) in
    let* bogus = bool in
    return { Vote.voter; nonce; proof; snapshot; nominations; bogus }
  in
  let* identity = int_range 0 40 in
  let* au = int_range (-2) 4 in
  let* poll_id = int_range 0 30 in
  let* payload =
    oneof
      [
        (let* intro = proof_gen in
         return (Message.Poll { poll_id; intro }));
        (let* accepted = bool in
         return (Message.Poll_ack { poll_id; accepted }));
        (let* remaining = proof_gen in
         let* nonce = i64_gen in
         return (Message.Poll_proof { poll_id; remaining; nonce }));
        (let* vote = vote_gen in
         return (Message.Vote_msg { poll_id; vote }));
        (let* block = int_range (-2) 50 in
         return (Message.Repair_request { poll_id; block }));
        (let* block = int_range (-2) 50 in
         let* version = int_range (-1) 9 in
         return (Message.Repair { poll_id; block; version }));
        (let* r1 = i64_gen in
         let* r2 = i64_gen in
         return (Message.Evaluation_receipt { poll_id; receipt = (r1, r2) }));
        (let* claimed_bytes = int_range 0 100_000 in
         return (Message.Garbage { claimed_bytes }));
      ]
  in
  return { Message.identity; au; payload }

(* Salts with live selector (top byte) and delta (bottom byte) bits, so
   every mutation slot of every payload gets drawn. *)
let salt_gen =
  let open QCheck2.Gen in
  let* hi = int_range 0 0xFF in
  let* lo = int_range 0 0xFFFF in
  return Int64.(logor (shift_left (of_int hi) 56) (of_int lo))

let sessions_legal (ctx : Peer.ctx) =
  Array.for_all
    (fun (peer : Peer.t) ->
      Peer.Session_tbl.fold
        (fun _key (session : Peer.voter_session) acc ->
          acc
          &&
          match session.Peer.vs_state with
          | Peer.Awaiting_proof _ | Peer.Computing | Peer.Voted_waiting_receipt _ ->
            true
          | Peer.Closed -> false)
        peer.Peer.voter_sessions true)
    ctx.Peer.peers

(* Accumulated across all cases so a final check can assert the battery
   actually exercised the reject taxonomy. *)
let battery_rejected = ref 0

let prop_mutated_messages_rejected_or_absorbed =
  QCheck2.Test.make ~name:"mutated messages are rejected or absorbed safely" ~count:40
    QCheck2.Gen.(
      triple
        (list_size (int_range 5 25) (pair message_gen salt_gen))
        (int_range 1 10_000) bool)
    (fun (msgs, seed, double) ->
      let population = Population.create ~seed byz_cfg in
      Trace.subscribe ~interest:Trace.Debug (Population.trace population)
        (fun ~time:_ event ->
          match event with
          | Trace.Message_rejected _ -> incr battery_rejected
          | _ -> ());
      let auditor = Experiments.Scenario.make_auditor ~cfg:byz_cfg () in
      Check.Auditor.attach auditor (Population.trace population);
      (* Warm the world so live polls and sessions exist to collide with. *)
      Population.run population ~until:(Duration.of_days 45.);
      List.iter
        (fun (msg, salt) ->
          let m = Message.mutate msg ~salt in
          let m = if double then Message.mutate m ~salt:(Int64.add salt 977L) else m in
          Population.default_handler population 0 ~src:1 m)
        msgs;
      (* Long enough for every timer armed by an absorbed mutant (proof,
         receipt) to fire and clean up. *)
      Population.run population ~until:(Duration.of_days 90.);
      Check.Auditor.finish ~metrics:(Population.summary population) auditor;
      let ctx = Population.ctx population in
      let leaks =
        Check.Leak.audit ~engine:(Population.engine population) ~ctx
      in
      Check.Auditor.violations auditor = [] && leaks = [] && sessions_legal ctx)

let mutation_battery_exercised_taxonomy () =
  Alcotest.(check bool) "battery produced taxonomized rejections" true
    (!battery_rejected > 0)

(* -- Obs.Json round-trip -------------------------------------------------- *)

let json_gen =
  let open QCheck2.Gen in
  let scalar =
    oneof
      [
        return Obs.Json.Null;
        map (fun b -> Obs.Json.Bool b) bool;
        map (fun i -> Obs.Json.Int i) (int_range (-1_000_000_000) 1_000_000_000);
        (* Finite floats only: non-finite values deliberately serialise
           as null and so cannot round-trip. *)
        map (fun f -> Obs.Json.Float f) (float_range (-1e9) 1e9);
        map (fun s -> Obs.Json.String s) (string_size ~gen:printable (int_range 0 20));
      ]
  in
  let rec build depth =
    if depth = 0 then scalar
    else
      oneof
        [
          scalar;
          map (fun l -> Obs.Json.List l) (list_size (int_range 0 4) (build (depth - 1)));
          map
            (fun kvs -> Obs.Json.Assoc kvs)
            (list_size (int_range 0 4)
               (pair (string_size ~gen:printable (int_range 0 8)) (build (depth - 1))));
        ]
  in
  build 3

(* The writer prints integral floats without a fraction (4320.0 becomes
   "4320", which parses as Int), so numbers compare through to_float. *)
let rec json_equal a b =
  match (a, b) with
  | Obs.Json.Null, Obs.Json.Null -> true
  | Obs.Json.Bool x, Obs.Json.Bool y -> x = y
  | (Obs.Json.Int _ | Obs.Json.Float _), (Obs.Json.Int _ | Obs.Json.Float _) -> (
    match (Obs.Json.to_float a, Obs.Json.to_float b) with
    | Some x, Some y -> Float.equal x y
    | _ -> false)
  | Obs.Json.String x, Obs.Json.String y -> String.equal x y
  | Obs.Json.List xs, Obs.Json.List ys ->
    List.length xs = List.length ys && List.for_all2 json_equal xs ys
  | Obs.Json.Assoc xs, Obs.Json.Assoc ys ->
    List.length xs = List.length ys
    && List.for_all2
         (fun (k1, v1) (k2, v2) -> String.equal k1 k2 && json_equal v1 v2)
         xs ys
  | _ -> false

let prop_json_round_trips =
  QCheck2.Test.make ~name:"Obs.Json values round-trip through their text form"
    ~count:500 json_gen (fun v ->
      match Obs.Json.of_string (Obs.Json.to_string v) with
      | Ok v' -> json_equal v v'
      | Error _ -> false)

let () =
  Alcotest.run "fuzz"
    [
      ( "whole-simulation properties",
        [
          QCheck_alcotest.to_alcotest ~long:true prop_random_simulations_run;
          QCheck_alcotest.to_alcotest prop_runs_are_reproducible;
          QCheck_alcotest.to_alcotest prop_sessions_end_in_legal_states;
        ] );
      ( "byzantine message mutation",
        [
          QCheck_alcotest.to_alcotest prop_mutated_messages_rejected_or_absorbed;
          Alcotest.test_case "taxonomy exercised" `Quick
            mutation_battery_exercised_taxonomy;
        ] );
      ("json properties", [ QCheck_alcotest.to_alcotest prop_json_round_trips ]);
    ]
