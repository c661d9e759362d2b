(* Tests for the adversary implementations. *)

module Duration = Repro_prelude.Duration
open Lockss

let tiny_cfg =
  {
    Config.default with
    Config.loyal_peers = 15;
    aus = 2;
    quorum = 4;
    max_disagree = 1;
    inner_circle_factor = 2;
    outer_circle_size = 3;
    reference_list_target = 8;
    friends_count = 3;
  }

let baseline_summary =
  lazy
    (let population = Population.create ~seed:5 tiny_cfg in
     Population.run population ~until:(Duration.of_years 1.);
     Population.summary population)

(* -- Pipe stoppage ---------------------------------------------------- *)

let test_stoppage_cycles () =
  let population = Population.create ~seed:5 tiny_cfg in
  let attack =
    Adversary.Pipe_stoppage.attach population ~coverage:0.5
      ~attack_duration:(Duration.of_days 10.) ~recuperation:(Duration.of_days 5.)
  in
  Population.run population ~until:(Duration.of_days 100.);
  (* 100 days / (10 + 5) per cycle: at least 6 completed stoppages. *)
  Alcotest.(check bool) "cycles completed" true (Adversary.Pipe_stoppage.cycles attack >= 6)

let test_stoppage_coverage_counts () =
  let population = Population.create ~seed:5 tiny_cfg in
  let attack =
    Adversary.Pipe_stoppage.attach population ~coverage:0.4
      ~attack_duration:(Duration.of_days 50.) ~recuperation:(Duration.of_days 10.)
  in
  Population.run population ~until:(Duration.of_days 10.);
  (* 40% of 15 peers = 6 victims silenced during the stoppage phase. *)
  Alcotest.(check int) "victims" 6 (Adversary.Pipe_stoppage.currently_stopped attack);
  Alcotest.(check int) "partition agrees" 6
    (Narses.Partition.stopped_count (Population.partition population))

let test_stoppage_restores_between_cycles () =
  let population = Population.create ~seed:5 tiny_cfg in
  ignore
    (Adversary.Pipe_stoppage.attach population ~coverage:1.0
       ~attack_duration:(Duration.of_days 10.) ~recuperation:(Duration.of_days 10.));
  (* At day 15 we are inside the recuperation window. *)
  Population.run population ~until:(Duration.of_days 15.);
  Alcotest.(check int) "all restored during recuperation" 0
    (Narses.Partition.stopped_count (Population.partition population))

let test_stoppage_full_coverage_halts_polls () =
  let population = Population.create ~seed:5 tiny_cfg in
  ignore
    (Adversary.Pipe_stoppage.attach population ~coverage:1.0
       ~attack_duration:(Duration.of_years 2.) ~recuperation:(Duration.of_days 1.));
  Population.run population ~until:(Duration.of_years 1.);
  let s = Population.summary population in
  Alcotest.(check int) "no poll can succeed" 0 s.Metrics.polls_succeeded

let test_stoppage_raises_failure_metrics () =
  (* Two simulated years: the gap statistic needs several successes per
     (peer, AU) pair to reflect the stalls. *)
  let population = Population.create ~seed:5 tiny_cfg in
  ignore
    (Adversary.Pipe_stoppage.attach population ~coverage:1.0
       ~attack_duration:(Duration.of_days 90.) ~recuperation:(Duration.of_days 30.));
  Population.run population ~until:(Duration.of_years 2.);
  let s = Population.summary population in
  let b = Lazy.force baseline_summary in
  Alcotest.(check bool) "fewer successes than baseline" true
    (s.Metrics.polls_succeeded < b.Metrics.polls_succeeded);
  Alcotest.(check bool) "longer gaps than baseline" true
    (s.Metrics.mean_success_gap > b.Metrics.mean_success_gap)

let test_stoppage_invalid_args () =
  let population = Population.create ~seed:5 tiny_cfg in
  Alcotest.(check bool) "bad coverage" true
    (try
       ignore
         (Adversary.Pipe_stoppage.attach population ~coverage:1.5 ~attack_duration:1.
            ~recuperation:1.);
       false
     with Invalid_argument _ -> true)

(* -- Admission flood -------------------------------------------------- *)

let test_flood_sends_garbage () =
  let population = Population.create ~seed:5 ~extra_nodes:2 tiny_cfg in
  let attack =
    Adversary.Admission_flood.attach population
      ~minions:(Population.extra_nodes population)
      ~coverage:1.0 ~attack_duration:(Duration.of_days 30.)
      ~recuperation:(Duration.of_days 30.) ~invitations_per_victim_au_per_day:4.
  in
  Population.run population ~until:(Duration.of_days 30.);
  (* 15 victims x 2 AUs x ~4/day x 30 days = ~3600 expected. *)
  let sent = Adversary.Admission_flood.invitations_sent attack in
  Alcotest.(check bool) "volume in expected range" true (sent > 2500 && sent < 5000)

let test_flood_triggers_drops_not_effort () =
  let population = Population.create ~seed:5 ~extra_nodes:2 tiny_cfg in
  ignore
    (Adversary.Admission_flood.attach population
       ~minions:(Population.extra_nodes population)
       ~coverage:1.0 ~attack_duration:(Duration.of_years 1.)
       ~recuperation:(Duration.of_days 30.) ~invitations_per_victim_au_per_day:4.);
  Population.run population ~until:(Duration.of_years 1.);
  let s = Population.summary population in
  let b = Lazy.force baseline_summary in
  Alcotest.(check (float 0.)) "flood costs the adversary nothing" 0. s.Metrics.adversary_effort;
  Alcotest.(check bool) "most garbage is dropped" true
    (s.Metrics.invitations_dropped > b.Metrics.invitations_dropped * 2);
  (* The defining result of Figs 6-7: preservation barely suffers. *)
  Alcotest.(check bool) "successes barely affected" true
    (s.Metrics.polls_succeeded > (b.Metrics.polls_succeeded * 9) / 10)

(* -- Vote flood -------------------------------------------------------- *)

let test_vote_flood_is_harmless () =
  let population = Population.create ~seed:5 ~extra_nodes:2 tiny_cfg in
  let attack =
    Adversary.Vote_flood.attach population
      ~minions:(Population.extra_nodes population)
      ~votes_per_victim_au_per_day:10.
  in
  Population.run population ~until:(Duration.of_years 1.);
  let s = Population.summary population in
  let b = Lazy.force baseline_summary in
  Alcotest.(check bool) "flood volume delivered" true
    (Adversary.Vote_flood.votes_sent attack > 50_000);
  (* "Unsolicited votes are ignored": preservation and effort unmoved. *)
  Alcotest.(check bool) "successes unaffected" true
    (s.Metrics.polls_succeeded >= (b.Metrics.polls_succeeded * 95) / 100);
  Alcotest.(check bool) "loyal effort unaffected" true
    (s.Metrics.loyal_effort < 1.05 *. b.Metrics.loyal_effort)

(* -- Grade-recovery (reciprocity-gaming) adversary ---------------------- *)

let test_reciprocity_less_effective_than_brute_force () =
  (* The claim the paper left to its extended version: grade-gaming is
     rate-limited by the victims' invitation rate, below brute force. *)
  let scale =
    {
      Experiments.Scenario.peers = 15;
      aus = 2;
      quorum = 4;
      max_disagree = 1;
      outer_circle = 3;
      reference_target = 8;
      years = 2.;
      runs = 1;
      seed = 5;
    }
  in
  let rows = Experiments.Reciprocity_attack.sweep ~scale ~fractions:[ 0.2 ] () in
  let brute = Experiments.Reciprocity_attack.brute_force_reference ~scale () in
  (match rows with
  | [ r ] ->
    Alcotest.(check bool) "defections happen" true (r.Experiments.Reciprocity_attack.defections > 10);
    Alcotest.(check bool) "rebuild votes were required" true
      (r.Experiments.Reciprocity_attack.honest_votes > 0);
    Alcotest.(check bool) "less friction than brute force" true
      (r.Experiments.Reciprocity_attack.friction < brute);
    Alcotest.(check bool) "delay unaffected" true
      (r.Experiments.Reciprocity_attack.delay_ratio < 1.2)
  | _ -> Alcotest.fail "expected one row")

(* A row at two runs is the mean of its two single-seed runs: counters
   averaged and rounded, ratios of the attack runs' mean against the
   baseline runs' mean over the same seeds. *)
let test_reciprocity_row_averages_seeds () =
  let module Scenario = Experiments.Scenario in
  let scale =
    {
      Scenario.peers = 15;
      aus = 2;
      quorum = 4;
      max_disagree = 1;
      outer_circle = 3;
      reference_target = 8;
      years = 0.5;
      runs = 2;
      seed = 5;
    }
  in
  let fraction = 0.2 and rate = 5. in
  let row =
    match Experiments.Reciprocity_attack.sweep ~scale ~fractions:[ fraction ] ~rate () with
    | [ r ] -> r
    | _ -> Alcotest.fail "expected one row"
  in
  let cfg = Scenario.config scale in
  let runs attack =
    List.map
      (fun seed -> Scenario.run ~cfg ~seed ~years:scale.Scenario.years attack)
      [ 5; 6 ]
  in
  let attacked = runs (Scenario.Reciprocity { fraction; rate }) in
  let mean rs = Scenario.mean_summaries (List.map (fun r -> r.Scenario.summary) rs) in
  let c =
    Scenario.ratios ~baseline:(mean (runs Scenario.No_attack)) ~attack:(mean attacked)
  in
  let counter name =
    let total =
      List.fold_left (fun acc r -> acc + List.assoc name r.Scenario.adversary) 0 attacked
    in
    int_of_float (Float.round (float_of_int total /. 2.))
  in
  let open Experiments.Reciprocity_attack in
  Alcotest.(check int) "defections" (counter "defections") row.defections;
  Alcotest.(check int) "honest votes" (counter "honest_votes") row.honest_votes;
  Alcotest.(check (float 0.)) "friction" c.Scenario.friction row.friction;
  Alcotest.(check (float 0.)) "cost ratio" c.Scenario.cost_ratio row.cost_ratio;
  Alcotest.(check (float 0.)) "delay ratio" c.Scenario.delay_ratio row.delay_ratio

let test_reciprocity_grade_burned_on_defection () =
  (* After a defection the minion's standing at that victim drops at
     vote-supply time, so back-to-back extractions from one grade are
     impossible: defections per victim-AU are bounded by roughly the
     victims' own invitation rate. *)
  let cfg = { tiny_cfg with Config.aus = 1 } in
  let population = Population.create ~seed:5 cfg in
  let attack =
    Adversary.Reciprocity.attach population ~fraction:0.2
      ~attempts_per_victim_au_per_day:20.
  in
  Population.run population ~until:(Duration.of_years 1.);
  let minions = Adversary.Reciprocity.minion_count attack in
  let victims = cfg.Config.loyal_peers - minions in
  let lanes = minions * victims * cfg.Config.aus in
  (* ~4 invitation cycles per year per lane bounds the defection rate. *)
  Alcotest.(check bool) "defections bounded by invitation cycles" true
    (Adversary.Reciprocity.defections attack < lanes * 8)

(* A defecting poll opens with the minion's first Solicitation charge
   and is open at least until the victim answers it (a refusal or a
   vote) or its 10-day stall timer fires, whichever comes first: the
   lane is released only on the answer's arrival or that timer. The
   next poll on the same (minion, victim, AU) lane must not open before
   then. The seed and scale are where a completed poll's timer used to
   release a newer poll's lane. *)
let test_reciprocity_one_open_poll_per_lane () =
  let scale =
    { Experiments.Scenario.bench with Experiments.Scenario.reference_target = 15 }
  in
  let cfg = Experiments.Scenario.config scale in
  let population =
    Experiments.Scenario.build ~cfg ~seed:1
      (Experiments.Scenario.Reciprocity { fraction = 0.3; rate = 5. })
  in
  let defect p = p >= 1_000_000 in
  let opened = Hashtbl.create 1024 and victim = Hashtbl.create 1024 in
  let answered = Hashtbl.create 1024 in
  Trace.subscribe ~interest:Trace.Debug (Population.trace population) (fun ~time ev ->
      match ev with
      | Trace.Effort_charged
          {
            peer;
            role = Trace.Adversary;
            phase = Trace.Solicitation;
            au = Some au;
            poll_id = Some p;
            _;
          }
        when defect p && not (Hashtbl.mem opened p) ->
        Hashtbl.replace opened p (peer, au, time)
      | Trace.Invitation_dropped { voter; poll_id = p; _ }
      | Trace.Invitation_accepted { voter; poll_id = p; _ }
      | Trace.Invitation_admitted { voter; poll_id = Some p; _ }
      | Trace.Message_rejected { peer = voter; poll_id = Some p; _ }
        when defect p ->
        Hashtbl.replace victim p voter
      | Trace.Invitation_refused { voter; poll_id = p; _ } when defect p ->
        Hashtbl.replace victim p voter;
        Hashtbl.replace answered p time
      | Trace.Vote_sent { poll_id = p; _ } when defect p -> Hashtbl.replace answered p time
      | _ -> ());
  Population.run population ~until:(Duration.of_years scale.Experiments.Scenario.years);
  let lanes = Hashtbl.create 1024 in
  Hashtbl.iter
    (fun p (minion, au, opened_at) ->
      match Hashtbl.find_opt victim p with
      | None -> ()  (* still in flight at the horizon *)
      | Some v ->
        let open_until =
          Float.min (opened_at +. Duration.of_days 10.)
            (Option.value ~default:infinity (Hashtbl.find_opt answered p))
        in
        let key = (minion, v, au) in
        Hashtbl.replace lanes key
          ((opened_at, open_until) :: Option.value ~default:[] (Hashtbl.find_opt lanes key)))
    opened;
  Alcotest.(check bool) "defect polls opened" true (Hashtbl.length opened > 1000);
  let overlaps = ref 0 in
  Hashtbl.iter
    (fun _ polls ->
      let rec count = function
        | (_, open_until) :: ((next_open, _) :: _ as rest) ->
          if next_open < open_until then incr overlaps;
          count rest
        | [ _ ] | [] -> ()
      in
      count (List.sort compare polls))
    lanes;
  Alcotest.(check int) "polls opened on a lane whose poll is still open" 0 !overlaps

(* -- Brute force ------------------------------------------------------ *)

let run_brute strategy =
  let population = Population.create ~seed:5 ~extra_nodes:2 tiny_cfg in
  let attack =
    Adversary.Brute_force.attach population
      ~minions:(Population.extra_nodes population)
      ~strategy ~identities:20 ~attempts_per_victim_au_per_day:5.
  in
  Population.run population ~until:(Duration.of_years 1.);
  (attack, Population.summary population)

let test_brute_force_gets_admitted () =
  let attack, _ = run_brute Adversary.Brute_force.Intro in
  Alcotest.(check bool) "invitations sent" true
    (Adversary.Brute_force.invitations_sent attack > 100);
  Alcotest.(check bool) "admissions happen" true (Adversary.Brute_force.admissions attack > 50)

let test_brute_force_remaining_extracts_votes () =
  let attack, s = run_brute Adversary.Brute_force.Remaining in
  Alcotest.(check bool) "victim votes extracted" true
    (Adversary.Brute_force.votes_received attack > 20);
  let b = Lazy.force baseline_summary in
  Alcotest.(check bool) "loyal effort inflated" true
    (s.Metrics.loyal_effort > 1.5 *. b.Metrics.loyal_effort)

let test_brute_force_intro_extracts_no_votes () =
  let attack, _ = run_brute Adversary.Brute_force.Intro in
  Alcotest.(check int) "deserting after Poll yields no votes" 0
    (Adversary.Brute_force.votes_received attack)

let test_brute_force_charges_adversary () =
  let _, s = run_brute Adversary.Brute_force.Full in
  Alcotest.(check bool) "effortful attack costs the adversary" true
    (s.Metrics.adversary_effort > 0.)

let test_brute_force_full_is_cheapest_per_admission () =
  let _, s_full = run_brute Adversary.Brute_force.Full in
  let _, s_intro = run_brute Adversary.Brute_force.Intro in
  let b = Lazy.force baseline_summary in
  let cost s = s.Metrics.adversary_effort /. s.Metrics.loyal_effort in
  (* Table 1's headline: full participation has the lowest cost ratio. *)
  Alcotest.(check bool) "NONE cheaper than INTRO" true (cost s_full < cost s_intro);
  (* And it degrades preservation only mildly. *)
  Alcotest.(check bool) "successes barely affected" true
    (s_full.Metrics.polls_succeeded > (b.Metrics.polls_succeeded * 9) / 10)

let test_brute_force_repeat_runs_deterministic () =
  (* Each attach consumes a fresh identity block (so combined attacks
     cannot collide), but identity values must not affect behaviour. *)
  let _, a = run_brute Adversary.Brute_force.Remaining in
  let _, b = run_brute Adversary.Brute_force.Remaining in
  Alcotest.(check int) "same successes" a.Metrics.polls_succeeded b.Metrics.polls_succeeded;
  Alcotest.(check (float 0.)) "same loyal effort" a.Metrics.loyal_effort b.Metrics.loyal_effort;
  Alcotest.(check (float 0.)) "same adversary effort" a.Metrics.adversary_effort
    b.Metrics.adversary_effort

let test_brute_force_preservation_survives () =
  let _, s = run_brute Adversary.Brute_force.Remaining in
  Alcotest.(check bool) "access failure stays small" true
    (s.Metrics.access_failure_probability < 0.01)

(* Most invitations are dropped at admission and never answered, so
   whatever the adversary keeps per invitation stays for the whole run.
   That record must stay a few words: the growth in the population's
   reachable heap between half a year and a year, per invitation sent
   in between, bounds it (a per-invitation hashtable entry costs about
   eight). *)
let test_brute_force_memory_per_invitation () =
  let population = Population.create ~seed:5 ~extra_nodes:2 tiny_cfg in
  let attack =
    Adversary.Brute_force.attach population
      ~minions:(Population.extra_nodes population)
      ~strategy:Adversary.Brute_force.Full ~identities:20 ~attempts_per_victim_au_per_day:5.
  in
  let sample years =
    Population.run population ~until:(Duration.of_years years);
    ( Obj.reachable_words (Obj.repr population),
      Adversary.Brute_force.invitations_sent attack )
  in
  let words0, sent0 = sample 0.5 in
  let words1, sent1 = sample 1. in
  Alcotest.(check bool) "invitations keep coming" true (sent1 - sent0 > 1000);
  let per_invitation = float_of_int (words1 - words0) /. float_of_int (sent1 - sent0) in
  Printf.printf "%.2f words retained per invitation sent\n" per_invitation;
  if per_invitation > 4. then
    Alcotest.failf "%.2f words retained per invitation sent (bound 4)" per_invitation

(* What a REMAINING attack leaves resident, beyond an unattacked run of
   the same population, per invitation sent. A 2-byte invitation cell
   and voter sessions that keep the expected receipt instead of the
   whole vote retain ~3.2 words here; an 8-byte cell per invitation and
   the kept votes retained ~4.6. Deterministic: [Obj.reachable_words]
   counts the seeded run's heap graph. *)
let test_brute_force_remaining_retained_words () =
  let retained population =
    Population.run population ~until:(Duration.of_years 1.);
    Obj.reachable_words (Obj.repr population)
  in
  let population = Population.create ~seed:5 ~extra_nodes:2 tiny_cfg in
  let attack =
    Adversary.Brute_force.attach population
      ~minions:(Population.extra_nodes population)
      ~strategy:Adversary.Brute_force.Remaining ~identities:20
      ~attempts_per_victim_au_per_day:5.
  in
  let attacked = retained population in
  let unattacked = retained (Population.create ~seed:5 ~extra_nodes:2 tiny_cfg) in
  let sent = Adversary.Brute_force.invitations_sent attack in
  let per_invitation = float_of_int (attacked - unattacked) /. float_of_int sent in
  Printf.printf "%.2f words retained per invitation sent\n" per_invitation;
  if per_invitation > 4. then
    Alcotest.failf "REMAINING retains %.2f words per invitation sent (bound 4)"
      per_invitation

module Invitations = Adversary.Brute_force.Invitations

(* The invitation record against an [int array] reference holding each
   issued invitation's [victim * aus + au], or -1 once closed. Shapes
   sit on both sides of the 2-byte cell limit (peers x AUs of 0xFFFF
   and 0x10000, the paper's 100 x 600 and a population past it). Each
   case first issues all but the last few cells of the first page, so
   its random opens cross into the second. Each op draws its numbers
   raw and reads them against the record's current state, so finds and
   closes probe ids below 1, not yet issued, on the wrong AU and
   already closed. *)
let prop_invitations_match_array_model =
  let shapes = [| (100, 600, 2); (0xFFFF, 1, 2); (1, 0x10000, 4); (300, 600, 4) |] in
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"invitations vs array model" ~count:200
       QCheck2.Gen.(
         triple
           (pair (int_range 0 (Array.length shapes - 1)) (int_range 0 100))
           (list_size (int_range 0 300) (int_range 0 3))
           (list_size (int_range 0 300) (pair (int_bound 1_000_000) (int_bound 1_000_000))))
       (fun ((shape, short), kinds, draws) ->
         let victims, aus, cell_bytes = shapes.(shape) in
         let t = Invitations.create ~victims ~aus in
         let prefill = Invitations.page_cells - short in
         let model = Array.make (prefill + List.length kinds) (-1) in
         let issued = ref 0 in
         let open_ ~victim ~au =
           let poll_id = Invitations.open_invitation t ~victim ~au in
           model.(!issued) <- (victim * aus) + au;
           incr issued;
           poll_id = !issued
         in
         for i = 0 to prefill - 1 do
           let code = i * 7919 mod (victims * aus) in
           ignore (open_ ~victim:(code / aus) ~au:(code mod aus))
         done;
         (* A victim or AU drawn at either end of its range or inside it. *)
         let pick n r = match r mod 3 with 0 -> 0 | 1 -> n - 1 | _ -> r / 3 mod n in
         (* An id from -2 to 0, anywhere issued, or near the last issued. *)
         let pick_id r =
           match r mod 4 with
           | 0 -> -(r / 4 mod 3)
           | 1 -> 1 + (r / 4 mod !issued)
           | _ -> !issued + 3 - (r / 4 mod 400)
         in
         let model_find ~au ~poll_id =
           if poll_id < 1 || poll_id > !issued then None
           else begin
             let cell = model.(poll_id - 1) in
             if cell < 0 || cell mod aus <> au then None else Some (cell / aus)
           end
         in
         let step kind (a, b) =
           match kind with
           | 0 -> open_ ~victim:(pick victims a) ~au:(pick aus b)
           | 1 ->
             (* The AU an open cell was sent to, or any other. *)
             let poll_id = pick_id a in
             let au =
               if b mod 2 = 0 && poll_id >= 1 && poll_id <= !issued
                  && model.(poll_id - 1) >= 0
               then model.(poll_id - 1) mod aus
               else pick aus b
             in
             Invitations.find_victim t ~au ~poll_id = model_find ~au ~poll_id
           | _ ->
             let poll_id = pick_id a in
             Invitations.close t ~poll_id;
             if poll_id >= 1 && poll_id <= !issued then model.(poll_id - 1) <- -1;
             true
         in
         let rec go kinds draws =
           match (kinds, draws) with
           | kind :: kinds, draw :: draws -> step kind draw && go kinds draws
           | _ -> true
         in
         (* Every id near either end, and a stride through the rest. *)
         let swept =
           List.init 5 (fun i -> i - 2)
           @ List.init 410 (fun i -> !issued + 4 - i)
           @ List.init (!issued / 97) (fun i -> 97 * (i + 1))
         in
         Invitations.cell_bytes t = cell_bytes
         && go kinds draws
         && List.for_all
              (fun poll_id ->
                List.for_all
                  (fun au ->
                    Invitations.find_victim t ~au ~poll_id = model_find ~au ~poll_id)
                  [ 0; 1; aus - 1 ])
              swept))

(* A victim-AU pair outside the record's shape would alias another
   pair's cell, so it is refused, as is a shape too wide for 4 bytes. *)
let test_invitations_refuse_out_of_range () =
  let t = Invitations.create ~victims:100 ~aus:600 in
  let refused f = match f () with _ -> false | exception Invalid_argument _ -> true in
  Alcotest.(check bool) "victim past the last" true
    (refused (fun () -> Invitations.open_invitation t ~victim:100 ~au:0));
  Alcotest.(check bool) "AU past the last" true
    (refused (fun () -> Invitations.open_invitation t ~victim:0 ~au:600));
  Alcotest.(check bool) "negative victim" true
    (refused (fun () -> Invitations.open_invitation t ~victim:(-1) ~au:0));
  Alcotest.(check bool) "more than 2^32 - 1 pairs" true
    (refused (fun () -> Invitations.create ~victims:0x10000 ~aus:0x10000));
  Alcotest.(check (option int)) "nothing issued by refusals" None
    (Invitations.find_victim t ~au:0 ~poll_id:1)

(* -- Compromised voter role --------------------------------------------- *)

(* Peer 1 invites minion 0 and sends the PollProof, so the role schedules
   its vote an hour out; [between] runs before that hour is up. Returns
   the votes the role sent by the end of the second hour. *)
let minion_votes ~between =
  let population = Population.create ~seed:5 tiny_cfg in
  let ctx = Population.ctx population in
  let minion = 0 and poller = 1 in
  let voter =
    Adversary.Minions.voter population (Population.split_rng population) [| minion |]
      ~vote_delay:Duration.hour ~poller:(fun _ ~src:_ _ -> ())
  in
  let send payload =
    Adversary.Minions.send ctx ~src:poller ~dst:minion
      ~identity:ctx.Peer.peers.(poller).Peer.identity ~au:0 payload
  in
  let proof = Effort.Proof.forged ~claimed_cost:1. in
  send (Message.Poll { poll_id = 1; intro = proof });
  Population.run population ~until:60.;
  send (Message.Poll_proof { poll_id = 1; remaining = proof; nonce = 7L });
  Population.run population ~until:120.;
  between population minion;
  Population.run population ~until:(2. *. Duration.hour);
  Adversary.Minions.votes voter

let test_crashed_minion_never_votes () =
  Alcotest.(check int) "an up minion votes" 1 (minion_votes ~between:(fun _ _ -> ()));
  Alcotest.(check int) "a vote scheduled before a crash never goes out" 0
    (minion_votes ~between:(fun population node ->
         Population.crash_peer population ~node;
         Population.restart_peer population ~node))

let () =
  let quick name f = Alcotest.test_case name `Quick f in
  let slow name f = Alcotest.test_case name `Slow f in
  Alcotest.run "adversary"
    [
      ( "pipe stoppage",
        [
          quick "cycles" test_stoppage_cycles;
          quick "coverage counts" test_stoppage_coverage_counts;
          quick "restores between cycles" test_stoppage_restores_between_cycles;
          slow "full coverage halts polls" test_stoppage_full_coverage_halts_polls;
          slow "raises failure metrics" test_stoppage_raises_failure_metrics;
          quick "invalid args" test_stoppage_invalid_args;
        ] );
      ( "admission flood",
        [
          quick "sends garbage" test_flood_sends_garbage;
          slow "drops not effort" test_flood_triggers_drops_not_effort;
        ] );
      ("vote flood", [ slow "harmless by construction" test_vote_flood_is_harmless ]);
      ( "compromised voter",
        [ quick "crashed minion never votes" test_crashed_minion_never_votes ] );
      ( "grade recovery",
        [
          slow "less effective than brute force" test_reciprocity_less_effective_than_brute_force;
          quick "row averages its seeds" test_reciprocity_row_averages_seeds;
          slow "grade burned on defection" test_reciprocity_grade_burned_on_defection;
          slow "one open poll per lane" test_reciprocity_one_open_poll_per_lane;
        ] );
      ( "brute force",
        [
          slow "gets admitted" test_brute_force_gets_admitted;
          slow "REMAINING extracts votes" test_brute_force_remaining_extracts_votes;
          slow "INTRO extracts no votes" test_brute_force_intro_extracts_no_votes;
          slow "charges adversary" test_brute_force_charges_adversary;
          slow "NONE cheapest" test_brute_force_full_is_cheapest_per_admission;
          slow "preservation survives" test_brute_force_preservation_survives;
          slow "repeat runs deterministic" test_brute_force_repeat_runs_deterministic;
          quick "memory per invitation" test_brute_force_memory_per_invitation;
          quick "REMAINING retained words" test_brute_force_remaining_retained_words;
          prop_invitations_match_array_model;
          quick "invitation range" test_invitations_refuse_out_of_range;
        ] );
    ]
