(* Unit tests for the LOCKSS protocol data structures: grades, replicas,
   votes, tallies, reputation, admission control, introductions,
   reference lists, configuration, messages, metrics. *)

module Rng = Repro_prelude.Rng
module Duration = Repro_prelude.Duration
open Lockss

let rng () = Rng.create 1234
let check_float = Alcotest.(check (float 1e-9))

let grade_testable =
  Alcotest.testable Grade.pp Grade.equal

(* -- Grade ------------------------------------------------------------ *)

let test_grade_raise () =
  Alcotest.check grade_testable "debt->even" Grade.Even (Grade.raise_grade Grade.Debt);
  Alcotest.check grade_testable "even->credit" Grade.Credit (Grade.raise_grade Grade.Even);
  Alcotest.check grade_testable "credit saturates" Grade.Credit
    (Grade.raise_grade Grade.Credit)

let test_grade_lower () =
  Alcotest.check grade_testable "credit->even" Grade.Even (Grade.lower Grade.Credit);
  Alcotest.check grade_testable "even->debt" Grade.Debt (Grade.lower Grade.Even);
  Alcotest.check grade_testable "debt saturates" Grade.Debt (Grade.lower Grade.Debt)

let test_grade_decay () =
  Alcotest.check grade_testable "no steps" Grade.Credit (Grade.decayed Grade.Credit ~steps:0);
  Alcotest.check grade_testable "one step" Grade.Even (Grade.decayed Grade.Credit ~steps:1);
  Alcotest.check grade_testable "two steps" Grade.Debt (Grade.decayed Grade.Credit ~steps:2);
  Alcotest.check grade_testable "over-decay saturates" Grade.Debt
    (Grade.decayed Grade.Credit ~steps:100)

let test_grade_rank_order () =
  Alcotest.(check bool) "debt < even < credit" true
    (Grade.rank Grade.Debt < Grade.rank Grade.Even
    && Grade.rank Grade.Even < Grade.rank Grade.Credit)

(* -- Replica ---------------------------------------------------------- *)

let test_replica_pristine () =
  let r = Replica.create ~au:0 ~blocks:16 in
  Alcotest.(check bool) "clean" false (Replica.is_damaged r);
  Alcotest.(check int) "publisher version" 0 (Replica.version r 3);
  Alcotest.(check (list (pair int int))) "no deviations" [] (Replica.damaged_blocks r)

let test_replica_damage_and_repair () =
  let r = Replica.create ~au:0 ~blocks:16 in
  Alcotest.(check bool) "first damage transitions" true (Replica.damage r ~block:3 ~version:7);
  Alcotest.(check bool) "second damage does not" false (Replica.damage r ~block:5 ~version:9);
  Alcotest.(check int) "damaged version" 7 (Replica.version r 3);
  Alcotest.(check (list (pair int int))) "sorted damage list" [ (3, 7); (5, 9) ]
    (Replica.damaged_blocks r);
  Alcotest.(check bool) "partial repair no transition" false (Replica.write r ~block:3 ~version:0);
  Alcotest.(check bool) "final repair transitions" true (Replica.write r ~block:5 ~version:0);
  Alcotest.(check bool) "clean again" false (Replica.is_damaged r)

let test_replica_write_bad_version_keeps_damage () =
  let r = Replica.create ~au:0 ~blocks:16 in
  ignore (Replica.damage r ~block:1 ~version:5);
  (* A "repair" from a damaged supplier installs its bad version. *)
  Alcotest.(check bool) "not a clean transition" false (Replica.write r ~block:1 ~version:8);
  Alcotest.(check int) "still deviant" 8 (Replica.version r 1)

let test_replica_bounds_checked () =
  let r = Replica.create ~au:0 ~blocks:4 in
  Alcotest.(check bool) "out of range raises" true
    (try
       ignore (Replica.version r 4);
       false
     with Invalid_argument _ -> true)

let test_replica_damage_version_zero_rejected () =
  let r = Replica.create ~au:0 ~blocks:4 in
  Alcotest.(check bool) "version 0 damage rejected" true
    (try
       ignore (Replica.damage r ~block:0 ~version:0);
       false
     with Invalid_argument _ -> true)

let prop_replica_damage_then_repair_roundtrips =
  QCheck2.Test.make ~name:"damage+repair roundtrips to clean" ~count:200
    QCheck2.Gen.(list_size (int_range 1 30) (pair (int_range 0 63) (int_range 1 1000)))
    (fun damages ->
      let r = Replica.create ~au:0 ~blocks:64 in
      List.iter (fun (block, version) -> ignore (Replica.damage r ~block ~version)) damages;
      List.iter (fun (block, _) -> ignore (Replica.write r ~block ~version:0)) damages;
      (not (Replica.is_damaged r)) && Replica.damaged_blocks r = [])

(* -- Vote ------------------------------------------------------------- *)

let make_vote ?(bogus = false) ?(snapshot = []) ?(nominations = []) voter =
  {
    Vote.voter;
    nonce = 42L;
    proof = Effort.Proof.generate ~rng:(rng ()) ~cost:1.;
    snapshot;
    nominations;
    bogus;
  }

let test_vote_versions () =
  let v = make_vote ~snapshot:[ (2, 9) ] 1 in
  Alcotest.(check int) "damaged block" 9 (Vote.version v 2);
  Alcotest.(check int) "clean block" 0 (Vote.version v 0)

let test_vote_agreement () =
  let v = make_vote ~snapshot:[ (2, 9) ] 1 in
  Alcotest.(check bool) "agrees on clean" true (Vote.agrees_on v ~block:0 ~poller_version:0);
  Alcotest.(check bool) "disagrees damaged" false (Vote.agrees_on v ~block:2 ~poller_version:0);
  Alcotest.(check bool) "agrees on equal damage" true (Vote.agrees_on v ~block:2 ~poller_version:9)

let test_bogus_vote_never_agrees () =
  let v = make_vote ~bogus:true 1 in
  Alcotest.(check bool) "bogus disagrees everywhere" false
    (Vote.agrees_on v ~block:0 ~poller_version:0)

let test_vote_wire_bytes_scale () =
  let v = make_vote 1 in
  Alcotest.(check bool) "more blocks, bigger vote" true
    (Vote.wire_bytes v ~blocks:1024 > Vote.wire_bytes v ~blocks:16)

(* -- Real-content votes ------------------------------------------------ *)

let make_content ?(blocks = 8) () =
  Content.synthesize ~rng:(Rng.create 55) ~blocks ~block_bytes:256

let test_content_identical_replicas_agree () =
  let publisher = make_content () in
  let replica = Content.copy publisher in
  let vote = Content.vote replica ~nonce:"nonce-1" in
  Alcotest.(check int) "one hash per block" 8 (List.length vote);
  Alcotest.(check (option int)) "identical content agrees everywhere" None
    (Content.first_divergence publisher ~nonce:"nonce-1" ~vote)

let test_content_divergence_finds_first_damage () =
  let publisher = make_content () in
  let replica = Content.copy publisher in
  Content.corrupt replica ~rng:(Rng.create 56) ~block:3;
  let vote = Content.vote replica ~nonce:"nonce-1" in
  Alcotest.(check (option int)) "first damaged block found" (Some 3)
    (Content.first_divergence publisher ~nonce:"nonce-1" ~vote)

let test_content_repair_restores_agreement () =
  let publisher = make_content () in
  let replica = Content.copy publisher in
  Content.corrupt replica ~rng:(Rng.create 57) ~block:5;
  Content.write replica ~block:5 ~content:(Content.block publisher 5);
  Alcotest.(check (option int)) "repair restores agreement" None
    (Content.first_divergence publisher ~nonce:"n"
       ~vote:(Content.vote replica ~nonce:"n"))

let test_content_nonce_binds_votes () =
  let publisher = make_content () in
  let vote_a = Content.vote publisher ~nonce:"a" in
  let vote_b = Content.vote publisher ~nonce:"b" in
  (* Different nonces yield unrelated votes: replaying a vote from an old
     poll cannot pass. *)
  Alcotest.(check bool) "votes are nonce-specific" false (vote_a = vote_b);
  Alcotest.(check (option int)) "old vote diverges immediately" (Some 0)
    (Content.first_divergence publisher ~nonce:"b" ~vote:vote_a)

let prop_content_symbolic_model_faithful =
  (* The relation the symbolic replicas encode: votes agree on every block
     iff the contents are identical; otherwise the first divergence is the
     first differing block. *)
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"real votes match the symbolic agreement relation" ~count:50
       QCheck2.Gen.(pair (int_range 0 7) (int_range 1 1000))
       (fun (damaged_block, seed) ->
         let publisher = make_content () in
         let replica = Content.copy publisher in
         Content.corrupt replica ~rng:(Rng.create seed) ~block:damaged_block;
         let vote = Content.vote replica ~nonce:"n" in
         Content.first_divergence publisher ~nonce:"n" ~vote = Some damaged_block))

(* -- Tally ------------------------------------------------------------ *)

let votes_with_versions specs =
  (* specs: (voter, version_of_block0) list *)
  List.map
    (fun (voter, version) ->
      make_vote ~snapshot:(if version = 0 then [] else [ (0, version) ]) voter)
    specs

let test_tally_landslide_agree () =
  let votes = votes_with_versions [ (1, 0); (2, 0); (3, 0); (4, 0); (5, 7) ] in
  match Tally.classify ~votes ~block:0 ~poller_version:0 ~max_disagree:1 with
  | Tally.Landslide_agree -> ()
  | Tally.Landslide_disagree _ | Tally.Inconclusive -> Alcotest.fail "expected agreement"

let test_tally_landslide_disagree () =
  let votes = votes_with_versions [ (1, 0); (2, 7); (3, 7); (4, 7); (5, 7) ] in
  match Tally.classify ~votes ~block:0 ~poller_version:0 ~max_disagree:1 with
  | Tally.Landslide_disagree dissenters ->
    Alcotest.(check (list int)) "dissenting voters" [ 2; 3; 4; 5 ] (List.sort compare dissenters)
  | Tally.Landslide_agree | Tally.Inconclusive -> Alcotest.fail "expected disagreement"

let test_tally_inconclusive () =
  let votes = votes_with_versions [ (1, 0); (2, 0); (3, 7); (4, 7); (5, 7) ] in
  match Tally.classify ~votes ~block:0 ~poller_version:0 ~max_disagree:1 with
  | Tally.Inconclusive -> ()
  | Tally.Landslide_agree | Tally.Landslide_disagree _ -> Alcotest.fail "expected alarm"

let test_tally_no_votes_rejected () =
  Alcotest.(check bool) "raises" true
    (try
       ignore (Tally.classify ~votes:[] ~block:0 ~poller_version:0 ~max_disagree:1);
       false
     with Invalid_argument _ -> true)

let test_tally_blocks_to_inspect () =
  let votes = [ make_vote ~snapshot:[ (3, 1); (5, 2) ] 1; make_vote ~snapshot:[ (5, 9) ] 2 ] in
  Alcotest.(check (list int)) "union of deviations" [ 1; 3; 5 ]
    (Tally.blocks_to_inspect ~poller_damage:[ (1, 4) ] ~votes)

let test_tally_bogus_forces_inspection () =
  let votes = [ make_vote ~bogus:true 1 ] in
  Alcotest.(check (list int)) "block 0 inspected" [ 0 ]
    (Tally.blocks_to_inspect ~poller_damage:[] ~votes)

let test_tally_agrees_overall () =
  let poller = Replica.create ~au:0 ~blocks:8 in
  let votes = votes_with_versions [ (1, 0); (2, 0); (3, 0); (4, 0); (5, 0) ] in
  Alcotest.(check bool) "clean world agrees" true
    (Tally.agrees_overall ~votes ~poller ~max_disagree:1);
  ignore (Replica.damage poller ~block:0 ~version:3);
  Alcotest.(check bool) "damaged poller disagrees" false
    (Tally.agrees_overall ~votes ~poller ~max_disagree:1)

let prop_tally_permutation_invariant =
  QCheck2.Test.make ~name:"tally invariant under vote permutation" ~count:200
    QCheck2.Gen.(list_size (int_range 5 15) (int_range 0 2))
    (fun versions ->
      let votes = votes_with_versions (List.mapi (fun i v -> (i, v)) versions) in
      let rev_votes = List.rev votes in
      let classify vs = Tally.classify ~votes:vs ~block:0 ~poller_version:0 ~max_disagree:2 in
      match (classify votes, classify rev_votes) with
      | Tally.Landslide_agree, Tally.Landslide_agree -> true
      | Tally.Landslide_disagree a, Tally.Landslide_disagree b ->
        List.sort compare a = List.sort compare b
      | Tally.Inconclusive, Tally.Inconclusive -> true
      | _ -> false)

(* -- Known peers ------------------------------------------------------ *)

let test_known_peers_lifecycle () =
  let kp = Known_peers.create ~decay_period:100. in
  Alcotest.(check (option grade_testable)) "unknown" None (Known_peers.grade kp ~now:0. 7);
  Known_peers.raise_grade kp ~now:0. 7;
  Alcotest.(check (option grade_testable)) "enters at even" (Some Grade.Even)
    (Known_peers.grade kp ~now:0. 7);
  Known_peers.raise_grade kp ~now:10. 7;
  Alcotest.(check (option grade_testable)) "raised to credit" (Some Grade.Credit)
    (Known_peers.grade kp ~now:10. 7);
  Known_peers.lower kp ~now:20. 7;
  Alcotest.(check (option grade_testable)) "lowered" (Some Grade.Even)
    (Known_peers.grade kp ~now:20. 7)

let test_known_peers_decay () =
  let kp = Known_peers.create ~decay_period:100. in
  Known_peers.set kp ~now:0. 7 Grade.Credit;
  Alcotest.(check (option grade_testable)) "fresh" (Some Grade.Credit)
    (Known_peers.grade kp ~now:99. 7);
  Alcotest.(check (option grade_testable)) "one period" (Some Grade.Even)
    (Known_peers.grade kp ~now:150. 7);
  Alcotest.(check (option grade_testable)) "two periods" (Some Grade.Debt)
    (Known_peers.grade kp ~now:250. 7);
  Alcotest.(check (option grade_testable)) "saturates at debt" (Some Grade.Debt)
    (Known_peers.grade kp ~now:10_000. 7)

let test_known_peers_decay_huge_gap_clamped () =
  (* Regression: the step count used to feed an unclamped [int_of_float],
     whose result is unspecified for huge floats. Absurd gaps must still
     decay cleanly to the absorbing Debt state. *)
  let kp = Known_peers.create ~decay_period:100. in
  Known_peers.set kp ~now:0. 7 Grade.Credit;
  Alcotest.(check (option grade_testable)) "gap beyond int range" (Some Grade.Debt)
    (Known_peers.grade kp ~now:1e300 7);
  Alcotest.(check (option grade_testable)) "infinite gap" (Some Grade.Debt)
    (Known_peers.grade kp ~now:infinity 7)

let test_known_peers_update_resets_decay_clock () =
  let kp = Known_peers.create ~decay_period:100. in
  Known_peers.set kp ~now:0. 7 Grade.Credit;
  (* Touch at t=150: effective grade Even, clock restarts. *)
  Known_peers.raise_grade kp ~now:150. 7;
  Alcotest.(check (option grade_testable)) "raised from decayed value" (Some Grade.Credit)
    (Known_peers.grade kp ~now:150. 7);
  Alcotest.(check (option grade_testable)) "fresh clock" (Some Grade.Credit)
    (Known_peers.grade kp ~now:240. 7)

let test_known_peers_punish_forgets () =
  let kp = Known_peers.create ~decay_period:100. in
  Known_peers.set kp ~now:0. 7 Grade.Credit;
  Known_peers.punish kp ~now:1. 7;
  Alcotest.(check bool) "forgotten" false (Known_peers.known kp 7);
  Alcotest.(check (option grade_testable)) "treated as unknown" None
    (Known_peers.grade kp ~now:1. 7)

let test_known_peers_lower_unknown_enters_debt () =
  let kp = Known_peers.create ~decay_period:100. in
  Known_peers.lower kp ~now:0. 9;
  Alcotest.(check (option grade_testable)) "debt entry" (Some Grade.Debt)
    (Known_peers.grade kp ~now:0. 9)

let prop_known_peers_decay_monotone =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"effective grade never rises with time" ~count:200
       QCheck2.Gen.(triple (int_range 0 2) (float_range 0. 1000.) (float_range 0. 1000.))
       (fun (grade_idx, t1, dt) ->
         let kp = Known_peers.create ~decay_period:100. in
         let grade = List.nth [ Grade.Debt; Grade.Even; Grade.Credit ] grade_idx in
         Known_peers.set kp ~now:0. 7 grade;
         let at t = Option.get (Known_peers.grade kp ~now:t 7) in
         Grade.rank (at (t1 +. dt)) <= Grade.rank (at t1)))

let prop_grade_raise_lower_inverse =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"raise then lower never ends above start" ~count:100
       QCheck2.Gen.(int_range 0 2)
       (fun grade_idx ->
         let g = List.nth [ Grade.Debt; Grade.Even; Grade.Credit ] grade_idx in
         Grade.rank (Grade.lower (Grade.raise_grade g)) <= max (Grade.rank g) 1))

(* -- Introductions ---------------------------------------------------- *)

let test_introductions_consume () =
  let intros = Introductions.create ~max_outstanding:10 in
  Introductions.add intros ~introducer:1 ~introducee:2;
  Alcotest.(check bool) "consume succeeds" true (Introductions.consume intros ~introducee:2);
  Alcotest.(check bool) "consumed only once" false (Introductions.consume intros ~introducee:2)

let test_introductions_consume_wipes_related () =
  let intros = Introductions.create ~max_outstanding:10 in
  (* Introducer 1 vouches for 2 and 3; introducer 4 also vouches for 2. *)
  Introductions.add intros ~introducer:1 ~introducee:2;
  Introductions.add intros ~introducer:1 ~introducee:3;
  Introductions.add intros ~introducer:4 ~introducee:2;
  Alcotest.(check bool) "consume 2" true (Introductions.consume intros ~introducee:2);
  (* All of introducer 1's other introductions are forgotten, as are all
     other introductions of introducee 2. *)
  Alcotest.(check bool) "1's vouch for 3 gone" false (Introductions.consume intros ~introducee:3);
  Alcotest.(check int) "empty" 0 (Introductions.outstanding intros)

let test_introductions_cap () =
  let intros = Introductions.create ~max_outstanding:2 in
  Introductions.add intros ~introducer:1 ~introducee:2;
  Introductions.add intros ~introducer:3 ~introducee:4;
  Introductions.add intros ~introducer:5 ~introducee:6;
  Alcotest.(check int) "capped" 2 (Introductions.outstanding intros);
  Alcotest.(check bool) "over-cap introduction dropped" false
    (Introductions.consume intros ~introducee:6)

let test_introductions_duplicate_ignored () =
  let intros = Introductions.create ~max_outstanding:10 in
  Introductions.add intros ~introducer:1 ~introducee:2;
  Introductions.add intros ~introducer:1 ~introducee:2;
  Alcotest.(check int) "no duplicates" 1 (Introductions.outstanding intros)

let test_introductions_forget_introducer () =
  let intros = Introductions.create ~max_outstanding:10 in
  Introductions.add intros ~introducer:1 ~introducee:2;
  Introductions.add intros ~introducer:3 ~introducee:4;
  Introductions.forget_introducer intros 1;
  Alcotest.(check bool) "1's introductions gone" false (Introductions.consume intros ~introducee:2);
  Alcotest.(check bool) "3's remain" true (Introductions.consume intros ~introducee:4)

(* -- Admission -------------------------------------------------------- *)

let admission_cfg =
  { Config.default with Config.refractory_period = 100.; drop_unknown = 1.0; drop_debt = 1.0 }

let test_admission_unknown_all_dropped () =
  (* With drop probability 1, unknown peers never get in. *)
  let adm = Admission.create admission_cfg in
  let kp = Known_peers.create ~decay_period:1000. in
  match Admission.consider adm ~rng:(rng ()) ~now:0. ~known:kp ~identity:5 with
  | Admission.Dropped Admission.Random_drop -> ()
  | _ -> Alcotest.fail "expected random drop"

let test_admission_unknown_admitted_triggers_refractory () =
  let cfg = { admission_cfg with Config.drop_unknown = 0.0; drop_debt = 0.0 } in
  let adm = Admission.create cfg in
  let kp = Known_peers.create ~decay_period:1000. in
  (match Admission.consider adm ~rng:(rng ()) ~now:0. ~known:kp ~identity:5 with
  | Admission.Admitted `Unknown -> ()
  | _ -> Alcotest.fail "expected admission");
  Alcotest.(check bool) "in refractory" true (Admission.in_refractory adm ~now:50.);
  (* A second unknown invitation during the refractory period is dropped,
     whatever identity it claims. *)
  (match Admission.consider adm ~rng:(rng ()) ~now:50. ~known:kp ~identity:6 with
  | Admission.Dropped Admission.Refractory -> ()
  | _ -> Alcotest.fail "expected refractory drop");
  (* After the period ends, admissions resume. *)
  match Admission.consider adm ~rng:(rng ()) ~now:150. ~known:kp ~identity:6 with
  | Admission.Admitted `Unknown -> ()
  | _ -> Alcotest.fail "expected post-refractory admission"

let test_admission_even_bypasses_drops () =
  let adm = Admission.create admission_cfg in
  let kp = Known_peers.create ~decay_period:1000. in
  Known_peers.set kp ~now:0. 5 Grade.Even;
  match Admission.consider adm ~rng:(rng ()) ~now:0. ~known:kp ~identity:5 with
  | Admission.Admitted (`Known Grade.Even) -> ()
  | _ -> Alcotest.fail "expected even-grade admission"

let test_admission_known_rate_limit () =
  let adm = Admission.create admission_cfg in
  let kp = Known_peers.create ~decay_period:1000. in
  Known_peers.set kp ~now:0. 5 Grade.Credit;
  (match Admission.consider adm ~rng:(rng ()) ~now:0. ~known:kp ~identity:5 with
  | Admission.Admitted (`Known Grade.Credit) -> ()
  | _ -> Alcotest.fail "first admission");
  Alcotest.(check (option (float 1e-9)))
    "known admission recorded" (Some 0.) (Admission.last_admission adm 5);
  (* The global self-clocking window covers known peers too: a repeat
     invitation inside the refractory period is dropped before the
     per-identity slot is even consulted. *)
  (match Admission.consider adm ~rng:(rng ()) ~now:10. ~known:kp ~identity:5 with
  | Admission.Dropped Admission.Refractory -> ()
  | _ -> Alcotest.fail "expected refractory drop for repeat known peer");
  match Admission.consider adm ~rng:(rng ()) ~now:150. ~known:kp ~identity:5 with
  | Admission.Admitted (`Known Grade.Credit) -> ()
  | _ -> Alcotest.fail "slot refreshes after a period"

let test_admission_debt_gets_debt_drop_rate () =
  (* drop_debt = 0, drop_unknown = 1: a debt peer gets in where an unknown
     peer cannot. *)
  let cfg = { admission_cfg with Config.drop_debt = 0.0 } in
  let adm = Admission.create cfg in
  let kp = Known_peers.create ~decay_period:1000. in
  Known_peers.set kp ~now:0. 5 Grade.Debt;
  match Admission.consider adm ~rng:(rng ()) ~now:0. ~known:kp ~identity:5 with
  | Admission.Admitted (`Known Grade.Debt) -> ()
  | _ -> Alcotest.fail "expected debt-path admission"

let test_admission_introduction_bypass () =
  let adm = Admission.create admission_cfg in
  let kp = Known_peers.create ~decay_period:1000. in
  Introductions.add (Admission.introductions adm) ~introducer:9 ~introducee:5;
  (match Admission.consider adm ~rng:(rng ()) ~now:0. ~known:kp ~identity:5 with
  | Admission.Admitted `Introduced -> ()
  | _ -> Alcotest.fail "expected introduced admission");
  (* The introduction is consumed; next time the peer is unknown again. *)
  match Admission.consider adm ~rng:(rng ()) ~now:0. ~known:kp ~identity:5 with
  | Admission.Dropped _ -> ()
  | Admission.Admitted _ -> Alcotest.fail "introduction must not be reusable"

let test_admission_introduction_respects_refractory () =
  (* Regression for the reorder: introductions bypass only the random
     drops, never the refractory window. An introduced poller arriving
     mid-window is dropped, its introduction is NOT consumed, and the
     retry after the window succeeds with the same introduction. *)
  let cfg = { admission_cfg with Config.drop_unknown = 0.0 } in
  let adm = Admission.create cfg in
  let kp = Known_peers.create ~decay_period:1000. in
  (* Arm the refractory window with an unknown admission at t=0. *)
  (match Admission.consider adm ~rng:(rng ()) ~now:0. ~known:kp ~identity:7 with
  | Admission.Admitted `Unknown -> ()
  | _ -> Alcotest.fail "expected unknown admission");
  Introductions.add (Admission.introductions adm) ~introducer:9 ~introducee:5;
  (match Admission.consider adm ~rng:(rng ()) ~now:50. ~known:kp ~identity:5 with
  | Admission.Dropped Admission.Refractory -> ()
  | _ -> Alcotest.fail "introduced poller must not bypass refractory");
  (match Admission.consider adm ~rng:(rng ()) ~now:150. ~known:kp ~identity:5 with
  | Admission.Admitted `Introduced -> ()
  | _ -> Alcotest.fail "refractory drop must not consume the introduction");
  Alcotest.(check (option (float 1e-9)))
    "introduced admission recorded" (Some 150.) (Admission.last_admission adm 5)

let test_admission_introduction_rearms_refractory () =
  (* An introduced admission re-arms the self-clocking window like any
     other admission path. *)
  let adm = Admission.create admission_cfg in
  let kp = Known_peers.create ~decay_period:1000. in
  Introductions.add (Admission.introductions adm) ~introducer:9 ~introducee:5;
  (match Admission.consider adm ~rng:(rng ()) ~now:0. ~known:kp ~identity:5 with
  | Admission.Admitted `Introduced -> ()
  | _ -> Alcotest.fail "expected introduced admission");
  Alcotest.(check bool) "in refractory" true (Admission.in_refractory adm ~now:99.);
  Introductions.add (Admission.introductions adm) ~introducer:9 ~introducee:6;
  match Admission.consider adm ~rng:(rng ()) ~now:50. ~known:kp ~identity:6 with
  | Admission.Dropped Admission.Refractory -> ()
  | _ -> Alcotest.fail "second introduction inside the window must be dropped"

let test_admission_disabled_admits_everything () =
  let cfg = { admission_cfg with Config.admission_control_enabled = false } in
  let adm = Admission.create cfg in
  let kp = Known_peers.create ~decay_period:1000. in
  for i = 0 to 20 do
    match Admission.consider adm ~rng:(rng ()) ~now:0. ~known:kp ~identity:i with
    | Admission.Admitted _ -> ()
    | Admission.Dropped _ -> Alcotest.fail "ablation must admit all"
  done

let prop_admission_rate_bounded =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"unknown/debt admissions bounded by refractory" ~count:50
       QCheck2.Gen.(int_range 1 1000)
       (fun seed ->
         let cfg =
           { Config.default with Config.refractory_period = 100.; drop_unknown = 0.5; drop_debt = 0.5 }
         in
         let adm = Admission.create cfg in
         let kp = Known_peers.create ~decay_period:1e9 in
         let r = Rng.create seed in
         (* 1000 seconds, invitations every second from fresh identities:
            at most ceil(1000/100) + 1 admissions possible. *)
         let admitted = ref 0 in
         for now = 0 to 999 do
           match
             Admission.consider adm ~rng:r ~now:(float_of_int now) ~known:kp
               ~identity:(10_000 + now)
           with
           | Admission.Admitted _ -> incr admitted
           | Admission.Dropped _ -> ()
         done;
         !admitted <= 11))

(* -- Reference list --------------------------------------------------- *)

let test_reference_list_create_dedups () =
  let rl = Reference_list.create ~target:10 ~friends:[ 1; 2 ] ~initial:[ 2; 3; 3 ] in
  Alcotest.(check (list int)) "deduplicated" [ 1; 2; 3 ] (List.sort compare (Reference_list.members rl))

let test_reference_list_sample_excludes () =
  let rl = Reference_list.create ~target:10 ~friends:[] ~initial:[ 1; 2; 3; 4; 5 ] in
  let s = Reference_list.sample rl ~rng:(rng ()) ~count:10 ~excluding:[ 1; 2 ] in
  Alcotest.(check (list int)) "excluded absent" [ 3; 4; 5 ] (List.sort compare s)

let test_reference_list_update_rule () =
  let rl = Reference_list.create ~target:4 ~friends:[ 9 ] ~initial:[ 1; 2; 3; 4 ] in
  Reference_list.update rl ~rng:(rng ()) ~voted:[ 1; 2 ] ~agreeing_outer:[ 7 ]
    ~fallback:[ 5; 6 ];
  let members = Reference_list.members rl in
  Alcotest.(check bool) "voted removed" false
    (Reference_list.mem rl 1 || Reference_list.mem rl 2);
  Alcotest.(check bool) "agreeing outer inserted" true (Reference_list.mem rl 7);
  Alcotest.(check bool) "topped up to target" true (List.length members >= 4)

let test_reference_list_insert_remove () =
  let rl = Reference_list.create ~target:4 ~friends:[] ~initial:[ 1 ] in
  Reference_list.insert rl 2;
  Reference_list.insert rl 2;
  Alcotest.(check int) "idempotent insert" 2 (Reference_list.size rl);
  Reference_list.remove rl 2;
  Alcotest.(check bool) "removed" false (Reference_list.mem rl 2)

let test_reference_list_empty_friends_update () =
  (* Regression: a peer whose friends list has drained used to request a
     >= 1-element sample from an empty list; the friend-bias step must
     now be a well-defined no-op while removal, insertion and fallback
     top-up still apply. *)
  let rl = Reference_list.create ~target:4 ~friends:[] ~initial:[ 1; 2; 3; 4 ] in
  Reference_list.update rl ~rng:(rng ()) ~voted:[ 1; 2 ] ~agreeing_outer:[ 9 ]
    ~fallback:[ 5; 6; 7 ];
  Alcotest.(check bool) "voted removed" false
    (Reference_list.mem rl 1 || Reference_list.mem rl 2);
  Alcotest.(check bool) "agreeing outer inserted" true (Reference_list.mem rl 9);
  Alcotest.(check int) "topped back up to target" 4 (Reference_list.size rl);
  List.iter
    (fun m ->
      Alcotest.(check bool)
        (Printf.sprintf "member %d from initial/outer/fallback" m)
        true
        (List.mem m [ 3; 4; 5; 6; 7; 9 ]))
    (Reference_list.members rl)

(* [Id_set] against the duplicate-free list it stands for: prepend adds
   a new member at the head, remove keeps the others' order, and [mem],
   [size] and every read-out agree with the list after each step. Ids
   reach past two million (the adversaries' identity blocks), which the
   scan-based membership must handle like small ones. *)
let prop_id_set_matches_list_model =
  let id_gen = QCheck2.Gen.(oneof [ int_range 0 40; int_range 2_000_000 2_000_010 ]) in
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"id set matches a list model" ~count:500
       QCheck2.Gen.(
         pair (list_size (int_range 0 20) id_gen)
           (list_size (int_range 0 80) (pair (int_range 0 2) id_gen)))
       (fun (initial, ops) ->
         (* Any duplicate-free order is a valid starting order. *)
         let initial =
           List.rev
             (List.fold_left
                (fun acc x -> if List.mem x acc then acc else x :: acc)
                [] initial)
         in
         let set = Id_set.of_ordered_list initial in
         let model = ref initial in
         let agrees () =
           Id_set.to_list set = !model
           && Array.to_list (Id_set.to_ordered_array set) = !model
           && Array.to_list (Id_set.filtered_ordered_array set ~keep:(fun x -> x mod 2 = 0))
              = List.filter (fun x -> x mod 2 = 0) !model
           && Id_set.size set = List.length !model
         in
         List.for_all
           (fun (op, x) ->
             match op with
             | 0 ->
               Id_set.prepend set x;
               if not (List.mem x !model) then model := x :: !model;
               agrees ()
             | 1 ->
               Id_set.remove set x;
               model := List.filter (fun m -> m <> x) !model;
               agrees ()
             | _ -> Id_set.mem set x = List.mem x !model)
           ops
         && agrees ()
         &&
         match initial with
         | [] -> true
         | first :: _ -> (
           match Id_set.of_ordered_list (initial @ [ first ]) with
           | _ -> false
           | exception Invalid_argument _ -> true)))

(* The compact representation (a flat int array) must be
   observationally identical to the plain-list bookkeeping it
   replaced: same member order after any prepend/remove interleaving,
   and same seeded sample results. The model below IS the old
   implementation, element for element. *)
let prop_id_set_models_list =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"compact reference list agrees with list model" ~count:500
       QCheck2.Gen.(
         triple (int_range 1 1_000_000)
           (list_size (int_range 0 20) (int_range 0 50))
           (list_size (int_range 0 80) (pair (int_range 0 1) (int_range 0 50))))
       (fun (seed, initial, ops) ->
         let rl =
           Reference_list.create ~target:12 ~friends:[] ~initial
         in
         (* Old representation: sort_uniq of initial, prepend on insert,
            order-preserving filter on remove. *)
         let model = ref (List.sort_uniq Ids.Identity.compare initial) in
         List.iter
           (fun (op, x) ->
             match op with
             | 0 ->
               Reference_list.insert rl x;
               if not (List.mem x !model) then model := x :: !model
             | _ ->
               Reference_list.remove rl x;
               model := List.filter (fun m -> m <> x) !model)
           ops;
         let members = Reference_list.members rl in
         let r1 = Rng.create seed and r2 = Rng.create seed in
         let sampled_compact = Reference_list.nominate rl ~rng:r1 ~count:5 in
         let sampled_model = Rng.sample r2 5 !model in
         members = !model
         && Reference_list.size rl = List.length !model
         && List.for_all (fun m -> Reference_list.mem rl m) !model
         && List.for_all (fun x -> List.mem x !model || not (Reference_list.mem rl x))
              (List.init 51 Fun.id)
         && sampled_compact = sampled_model))

let prop_known_peers_sorted_ids_model =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"known-peers entries agree with per-id grades" ~count:300
       QCheck2.Gen.(
         list_size (int_range 0 60) (triple (int_range 0 3) (int_range 0 40) (float_range 0. 5000.)))
       (fun ops ->
         let kp = Known_peers.create ~decay_period:1000. in
         (* Timestamps must be non-decreasing like simulation time. *)
         let now = ref 0. in
         List.iter
           (fun (op, id, dt) ->
             now := !now +. dt;
             match op with
             | 0 -> Known_peers.raise_grade kp ~now:!now id
             | 1 -> Known_peers.lower kp ~now:!now id
             | 2 -> Known_peers.punish kp ~now:!now id
             | _ -> Known_peers.set kp ~now:!now id Grade.Credit)
           ops;
         let entries = Known_peers.entries kp ~now:!now in
         (* Reference: every id's grade through the public point lookup,
            ascending — what the fold-and-sort implementation returned. *)
         let reference =
           List.filter_map
             (fun id ->
               Option.map (fun g -> (id, g)) (Known_peers.grade kp ~now:!now id))
             (List.init 41 Fun.id)
         in
         let good = Known_peers.good_ids kp ~now:!now ~excluding:7 in
         let good_reference =
           List.filter_map
             (fun (id, g) ->
               if id <> 7 && g <> Grade.Debt then Some id else None)
             entries
         in
         entries = reference && good = good_reference))

(* The Hashtbl-backed known-peers list the lane version replaced, kept
   verbatim as the model the lane version is checked against. *)
module Known_peers_model = struct
  type entry = { mutable grade : Grade.t; mutable updated : float }

  (* [ids.(0 .. n-1)] mirrors the hashtable's key set, ascending. Keeping
     it sorted incrementally (binary-search insert on first encounter,
     shift-out on punish) makes [entries] and [good_ids] linear scans in
     id order instead of a fold-and-sort per call. *)
  type t = {
    decay_period : float;
    entries : (Ids.Identity.t, entry) Hashtbl.t;
    mutable ids : Ids.Identity.t array;
    mutable n : int;
  }

  let create ~decay_period =
    if decay_period <= 0. then invalid_arg "Known_peers.create: decay period";
    { decay_period; entries = Hashtbl.create 32; ids = Array.make 16 0; n = 0 }

  (* Smallest index whose id is >= [id] (= [t.n] when all are smaller). *)
  let lower_bound t id =
    let lo = ref 0 and hi = ref t.n in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if t.ids.(mid) < id then lo := mid + 1 else hi := mid
    done;
    !lo

  let insert_id t id =
    let i = lower_bound t id in
    if not (i < t.n && t.ids.(i) = id) then begin
      if t.n = Array.length t.ids then begin
        let ids = Array.make (2 * t.n) 0 in
        Array.blit t.ids 0 ids 0 t.n;
        t.ids <- ids
      end;
      Array.blit t.ids i t.ids (i + 1) (t.n - i);
      t.ids.(i) <- id;
      t.n <- t.n + 1
    end

  let remove_id t id =
    let i = lower_bound t id in
    if i < t.n && t.ids.(i) = id then begin
      Array.blit t.ids (i + 1) t.ids i (t.n - i - 1);
      t.n <- t.n - 1
    end

  (* Any grade reaches the absorbing Debt state in at most two decay steps,
     so steps beyond this bound are equivalent; clamping keeps the
     [int_of_float] away from its unspecified huge-float behaviour when an
     entry has been untouched for a very long (or infinite) gap. *)
  let max_decay_steps = 8

  let decay_steps t entry ~now =
    if now <= entry.updated then 0
    else begin
      let raw = (now -. entry.updated) /. t.decay_period in
      if raw >= float_of_int max_decay_steps then max_decay_steps
      else int_of_float raw
    end

  let effective t entry ~now = Grade.decayed entry.grade ~steps:(decay_steps t entry ~now)

  let grade t ~now identity =
    match Hashtbl.find_opt t.entries identity with
    | None -> None
    | Some entry -> Some (effective t entry ~now)

  let update t ~now identity f ~if_unknown =
    match Hashtbl.find_opt t.entries identity with
    | None ->
      Hashtbl.replace t.entries identity { grade = if_unknown; updated = now };
      insert_id t identity
    | Some entry ->
      entry.grade <- f (effective t entry ~now);
      entry.updated <- now

  let raise_grade t ~now identity =
    update t ~now identity Grade.raise_grade ~if_unknown:Grade.Even

  let lower t ~now identity = update t ~now identity Grade.lower ~if_unknown:Grade.Debt

  let punish t ~now:_ identity =
    Hashtbl.remove t.entries identity;
    remove_id t identity

  let set t ~now identity grade =
    Hashtbl.replace t.entries identity { grade; updated = now };
    insert_id t identity

  let known t identity = Hashtbl.mem t.entries identity

  let entries t ~now =
    let acc = ref [] in
    for i = t.n - 1 downto 0 do
      let id = t.ids.(i) in
      let entry = Hashtbl.find t.entries id in
      acc := (id, effective t entry ~now) :: !acc
    done;
    !acc

  let good_ids t ~now ~excluding =
    let acc = ref [] in
    for i = t.n - 1 downto 0 do
      let id = t.ids.(i) in
      if not (Ids.Identity.equal id excluding) then begin
        match effective t (Hashtbl.find t.entries id) ~now with
        | Grade.Debt -> ()
        | Grade.Even | Grade.Credit -> acc := id :: !acc
      end
    done;
    !acc
end

(* Every operation, including re-encounters after punish, explicit sets
   of any grade and time gaps spanning several decay periods, leaves the
   lane version observably equal to the model: entries, good_ids, and
   point lookups of grade and known for every id in range. *)
let prop_known_peers_lanes_match_model =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"known-peers lanes match the hashtable model" ~count:300
       QCheck2.Gen.(
         list_size (int_range 0 80)
           (quad (int_range 0 5) (int_range 0 30) (int_range 0 2) (float_range 0. 2500.)))
       (fun ops ->
         let kp = Known_peers.create ~decay_period:1000. in
         let model = Known_peers_model.create ~decay_period:1000. in
         let grades = [| Grade.Debt; Grade.Even; Grade.Credit |] in
         let now = ref 0. in
         List.for_all
           (fun (op, id, g, dt) ->
             now := !now +. dt;
             let now = !now in
             match op with
             | 0 ->
               Known_peers.raise_grade kp ~now id;
               Known_peers_model.raise_grade model ~now id;
               true
             | 1 ->
               Known_peers.lower kp ~now id;
               Known_peers_model.lower model ~now id;
               true
             | 2 ->
               Known_peers.punish kp ~now id;
               Known_peers_model.punish model ~now id;
               true
             | 3 ->
               Known_peers.set kp ~now id grades.(g);
               Known_peers_model.set model ~now id grades.(g);
               true
             | 4 -> Known_peers.entries kp ~now = Known_peers_model.entries model ~now
             | _ ->
               Known_peers.good_ids kp ~now ~excluding:id
               = Known_peers_model.good_ids model ~now ~excluding:id)
           ops
         && List.for_all
              (fun id ->
                Known_peers.grade kp ~now:!now id = Known_peers_model.grade model ~now:!now id
                && Known_peers.known kp id = Known_peers_model.known model id)
              (List.init 31 Fun.id)
         && Known_peers.entries kp ~now:!now = Known_peers_model.entries model ~now:!now))

(* [Peer.Session_tbl] replaced a generic [Hashtbl] whose iteration order
   the simulation observes (crash teardown, the leak audit): under the
   same add / replace / remove / reset sequence, with keys drawn from a
   small space so collisions, re-adds and resizes are common, both visit
   bindings in the same order. *)
let prop_session_tbl_iterates_like_hashtbl =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"Session_tbl iterates in Hashtbl order" ~count:300
       QCheck2.Gen.(
         list_size (int_range 0 300)
           (pair (int_range 0 9) (triple (int_range 0 40) (int_range 0 3) (int_range 0 60))))
       (fun ops ->
         let tbl = Peer.Session_tbl.create 8 and model = Hashtbl.create 8 in
         List.iteri
           (fun i (op, key) ->
             match op with
             | 0 | 1 | 2 | 3 ->
               Peer.Session_tbl.replace tbl key i;
               Hashtbl.replace model key i
             | 4 | 5 ->
               Peer.Session_tbl.add tbl key i;
               Hashtbl.add model key i
             | 6 | 7 | 8 ->
               Peer.Session_tbl.remove tbl key;
               Hashtbl.remove model key
             | _ ->
               if i mod 7 = 0 then begin
                 Peer.Session_tbl.reset tbl;
                 Hashtbl.reset model
               end)
           ops;
         let listed = Peer.Session_tbl.fold (fun k v acc -> (k, v) :: acc) tbl [] in
         let iterated = ref [] in
         Peer.Session_tbl.iter (fun k v -> iterated := (k, v) :: !iterated) tbl;
         let expected = Hashtbl.fold (fun k v acc -> (k, v) :: acc) model [] in
         listed = expected && !iterated = expected
         && Peer.Session_tbl.length tbl = Hashtbl.length model))

(* -- Closed-session memory ---------------------------------------------- *)

(* A peer's recently closed sessions, model-checked against a plain list
   FIFO (oldest first) of the same capacity: a held key is not re-added
   and keeps its age; a new key to a full set evicts the oldest. Each
   step compares the probe answers, the size and the key the model
   evicts; the end compares membership of every key seen. Keys take
   every shape a voter can close or probe: loyal pollers, identities
   pushed past the population by a corrupted [identity + delta]
   (Message.mutate's deltas are 1..7), forged stray identities just past
   the node count, the adversaries' identity blocks, and poll ids and
   AUs shifted by the same deltas. The universe is small enough that
   sequences repeat keys while held and overflow the capacity. *)
let closed_key_gen =
  let open QCheck2.Gen in
  let peers = 100 in
  let delta = int_range 1 7 in
  let identity =
    frequency
      [
        (4, int_range 0 5);
        (1, map2 ( + ) (int_range (peers - 3) (peers - 1)) delta);
        (1, map (( + ) peers) (int_range 0 3));
        (* admission-flood, brute-force (one block per instance) and
           vote-flood identity blocks *)
        (1, map (( + ) 1_000_000) (int_range 0 2));
        (1, map (( + ) 2_000_000) (int_range 0 2));
        (1, map (( + ) 2_100_000) (int_range 0 2));
        (1, map (( + ) 3_000_000) (int_range 0 2));
      ]
  in
  let au = frequency [ (4, int_range 0 1); (1, map2 ( + ) (int_range 0 1) delta) ] in
  let poll_id = frequency [ (4, int_range 1 30); (1, map2 ( + ) (int_range 1 30) delta) ] in
  triple identity au poll_id

(* [op = 0] probes, anything else adds. *)
let closed_set_agrees_with_model cap ops =
  let set = Peer.Closed_set.create ~capacity:cap in
  (* oldest first *)
  let model = ref [] in
  let ok = ref true in
  List.iter
    (fun (op, key) ->
      if op = 0 then ok := !ok && Peer.Closed_set.mem set key = List.mem key !model
      else begin
        let evicted =
          if List.mem key !model then None
          else begin
            model := !model @ [ key ];
            if List.length !model > cap then begin
              let oldest = List.hd !model in
              model := List.tl !model;
              Some oldest
            end
            else None
          end
        in
        Peer.Closed_set.add set key;
        ok :=
          !ok
          && Peer.Closed_set.mem set key
          && Peer.Closed_set.length set = List.length !model
          && match evicted with Some k -> not (Peer.Closed_set.mem set k) | None -> true
      end)
    ops;
  !ok && List.for_all (fun (_, key) -> Peer.Closed_set.mem set key = List.mem key !model) ops

(* At the peers' own capacity. Not shrunk: a counterexample needs over
   512 distinct keys, so shrinking cannot make it short, only slow. *)
let prop_closed_set_matches_fifo_model =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"closed-session set matches a list FIFO model" ~count:40
       QCheck2.Gen.(no_shrink (list_size (int_range 0 1800) (pair (int_range 0 3) closed_key_gen)))
       (closed_set_agrees_with_model Peer.closed_session_capacity))

(* At small capacities, which cross the storage's growth steps and
   shrink to short counterexamples. Keys come from a small drawn pool,
   so short sequences still repeat keys while they are held. *)
let prop_closed_set_small_capacity_matches_fifo_model =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"small closed-session sets match a list FIFO model" ~count:300
       QCheck2.Gen.(
         let* cap = int_range 1 20 in
         let* pool = list_size (int_range 1 40) closed_key_gen in
         let+ ops = list_size (int_range 0 150) (pair (int_range 0 3) (oneofl pool)) in
         (cap, ops))
       (fun (cap, ops) -> closed_set_agrees_with_model cap ops))

(* Retained memory of a fresh population in large-population's shape
   (2 AUs, reference lists of 15), per peer. Reserving the closed-session
   memory at full capacity up front cost ~1000 words a peer on its own
   (~1690 in all); growing it on demand leaves ~690. Deterministic:
   [Obj.reachable_words] counts the seeded build's heap graph. *)
let test_population_retained_words_per_peer () =
  let peers = 1000 in
  let scale =
    {
      Experiments.Scenario.peers;
      aus = 2;
      quorum = 5;
      max_disagree = 1;
      outer_circle = 3;
      reference_target = 15;
      years = 0.25;
      runs = 1;
      seed = 1;
    }
  in
  let cfg = Experiments.Scenario.config scale in
  let pop = Experiments.Scenario.build ~cfg ~seed:1 Experiments.Scenario.No_attack in
  let per_peer = Obj.reachable_words (Obj.repr pop) / peers in
  if per_peer > 900 then
    Alcotest.failf "fresh population retains %d words per peer (bound 900)" per_peer

let prop_merged_with_friends_is_sort_uniq =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"fallback merge equals sort_uniq of concat" ~count:300
       QCheck2.Gen.(
         pair (list_size (int_range 0 8) (int_range 0 40))
           (list_size (int_range 0 30) (int_range 0 40)))
       (fun (friends, ids) ->
         let rl = Reference_list.create ~target:12 ~friends ~initial:[] in
         let ascending = List.sort_uniq Ids.Identity.compare ids in
         Reference_list.merged_with_friends rl ascending
         = List.sort_uniq Ids.Identity.compare (ascending @ friends)))

let prop_reference_list_update_invariants =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"reference-list update removes voted, keeps size" ~count:200
       QCheck2.Gen.(pair (int_range 1 1000) (int_range 0 10))
       (fun (seed, voted_count) ->
         let r = Rng.create seed in
         let population = List.init 40 (fun i -> i) in
         let friends = Rng.sample r 4 population in
         let initial = Rng.sample r 12 population in
         let rl = Reference_list.create ~target:12 ~friends ~initial in
         let voted = Rng.sample r voted_count (Reference_list.members rl) in
         let outer = Rng.sample r 3 population in
         Reference_list.update rl ~rng:r ~voted ~agreeing_outer:outer ~fallback:population;
         let members = Reference_list.members rl in
         List.length members >= 12
         && List.for_all (fun o -> Reference_list.mem rl o) outer
         && List.length (List.sort_uniq compare members) = List.length members))

(* -- Holdings ---------------------------------------------------------- *)

(* The array-returning candidate builder that [Holdings.fill_holders]
   replaced, kept verbatim as the model it must agree with. *)
let holders_excluding_model ~peers ~per_au ~au ~limit ~excluding =
  match per_au with
  | None ->
    let bound = min peers limit in
    let n = if excluding >= 0 && excluding < bound then bound - 1 else bound in
    Array.init n (fun i ->
        if excluding >= 0 && excluding < bound && i >= excluding then i + 1 else i)
  | Some per_au ->
    let holders = per_au.(au) in
    let count = ref 0 in
    Array.iter (fun h -> if h < limit && h <> excluding then incr count) holders;
    let out = Array.make !count 0 in
    let k = ref 0 in
    Array.iter
      (fun h ->
        if h < limit && h <> excluding then begin
          out.(!k) <- h;
          incr k
        end)
      holders;
    out

let prop_fill_holders_matches_model =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"fill_holders equals the holders_excluding model" ~count:500
       QCheck2.Gen.(
         pair (int_range 1 40) (int_range 1 3) >>= fun (peers, aus) ->
         quad (return (peers, aus))
           (opt (array_size (return aus) (array_size (return peers) bool)))
           (pair (int_range 0 (aus - 1)) (int_range 0 (peers + 10)))
           (int_range (-3) (peers + 3)))
       (fun ((peers, aus), membership, (au, limit), excluding) ->
         let per_au =
           Option.map
             (Array.map (fun row ->
                  Array.of_list
                    (List.filter (fun i -> row.(i)) (List.init peers Fun.id))))
             membership
         in
         let holdings =
           match per_au with
           | None -> Holdings.full ~peers ~aus
           | Some per_au -> Holdings.sparse ~peers per_au
         in
         let want = holders_excluding_model ~peers ~per_au ~au ~limit ~excluding in
         (* Sentinels past the written prefix must survive. *)
         let into = Array.make (peers + 4) (-7) in
         let n = Holdings.fill_holders holdings ~au ~limit ~excluding into in
         n = Array.length want
         && Array.sub into 0 n = want
         && Array.for_all (fun x -> x = -7) (Array.sub into n (Array.length into - n))))

let test_fill_holders_short_buffer () =
  Alcotest.check_raises "full coverage needs room for every candidate"
    (Invalid_argument "Holdings.fill_holders: buffer too short") (fun () ->
      ignore
        (Holdings.fill_holders (Holdings.full ~peers:5 ~aus:1) ~au:0 ~limit:5
           ~excluding:(-1) (Array.make 4 0)))

(* -- Config ----------------------------------------------------------- *)

let test_config_default_valid () = Config.validate Config.default

let test_config_rejects_bad_quorum () =
  Alcotest.(check bool) "landslide margin too big" true
    (try
       Config.validate { Config.default with Config.quorum = 4; max_disagree = 2 };
       false
     with Invalid_argument _ -> true)

let test_config_rejects_tiny_population () =
  Alcotest.(check bool) "inner circle exceeds peers" true
    (try
       Config.validate { Config.default with Config.loyal_peers = 10 };
       false
     with Invalid_argument _ -> true)

let test_config_effort_split () =
  let cfg = Config.default in
  check_float "intro + remaining = total"
    (Config.solicitation_effort cfg)
    (Config.intro_effort cfg +. Config.remaining_effort cfg);
  Alcotest.(check bool) "intro is the 20% share" true
    (Float.abs ((Config.intro_effort cfg /. Config.solicitation_effort cfg) -. 0.20) < 1e-9)

let test_config_effort_balances () =
  (* The poller's provable effort must exceed the voter's cost to produce
     the vote — the heart of effort balancing. *)
  let cfg = Config.default in
  Alcotest.(check bool) "solicitation effort covers vote work" true
    (Config.solicitation_effort cfg > Config.vote_work cfg)

let test_config_au_bytes () =
  Alcotest.(check int) "au size" (Config.default.Config.au_blocks * Config.default.Config.block_bytes)
    (Config.au_bytes Config.default)

(* -- Message ---------------------------------------------------------- *)

let test_message_sizes () =
  let cfg = Config.default in
  let vote = make_vote 1 in
  let mk payload = { Message.identity = 1; au = 0; payload } in
  let poll = Message.wire_bytes cfg (mk (Message.Poll { poll_id = 1; intro = vote.Vote.proof })) in
  let vote_bytes = Message.wire_bytes cfg (mk (Message.Vote_msg { poll_id = 1; vote })) in
  let repair = Message.wire_bytes cfg (mk (Message.Repair { poll_id = 1; block = 0; version = 0 })) in
  Alcotest.(check bool) "vote much larger than poll" true (vote_bytes > poll);
  Alcotest.(check bool) "repair carries a block" true (repair > cfg.Config.block_bytes)

(* -- Metrics ---------------------------------------------------------- *)

let test_metrics_access_failure_integral () =
  let m = Metrics.create ~replicas:10 ~start:0. in
  (* One of ten replicas damaged for half the horizon. *)
  Metrics.on_replica_damaged m ~now:0.;
  Metrics.on_replica_repaired m ~now:50.;
  let s = Metrics.finalize m ~now:100. in
  check_float "afp = (1 damaged * 50s) / (10 replicas * 100s)" 0.05
    s.Metrics.access_failure_probability

let test_metrics_open_damage_counts () =
  let m = Metrics.create ~replicas:2 ~start:0. in
  Metrics.on_replica_damaged m ~now:50.;
  let s = Metrics.finalize m ~now:100. in
  (* 1 damaged of 2 replicas for the last half of the horizon. *)
  check_float "still-damaged replica integrates to the end" 0.25
    s.Metrics.access_failure_probability

let test_metrics_success_gaps () =
  let m = Metrics.create ~replicas:2 ~start:0. in
  Metrics.on_poll_concluded m ~peer:0 ~au:0 ~now:100. Metrics.Success;
  Metrics.on_poll_concluded m ~peer:0 ~au:0 ~now:300. Metrics.Success;
  Metrics.on_poll_concluded m ~peer:1 ~au:0 ~now:50. Metrics.Success;
  Metrics.on_poll_concluded m ~peer:1 ~au:0 ~now:150. Metrics.Success;
  let s = Metrics.finalize m ~now:400. in
  Alcotest.(check int) "successes" 4 s.Metrics.polls_succeeded;
  check_float "mean gap of 200 and 100" 150. s.Metrics.mean_success_gap

let test_metrics_no_success_gap_is_infinite () =
  let m = Metrics.create ~replicas:1 ~start:0. in
  Metrics.on_poll_concluded m ~peer:0 ~au:0 ~now:10. Metrics.Inquorate;
  let s = Metrics.finalize m ~now:100. in
  Alcotest.(check bool) "gap infinite" true (s.Metrics.mean_success_gap = infinity);
  Alcotest.(check bool) "effort/success infinite" true
    (s.Metrics.effort_per_successful_poll = infinity);
  Alcotest.(check int) "inquorate counted" 1 s.Metrics.polls_inquorate

let test_metrics_effort_accounting () =
  let m = Metrics.create ~replicas:1 ~start:0. in
  Metrics.charge_loyal m 10.;
  Metrics.charge_loyal m 5.;
  Metrics.charge_adversary m 30.;
  Metrics.on_poll_concluded m ~peer:0 ~au:0 ~now:10. Metrics.Success;
  let s = Metrics.finalize m ~now:100. in
  check_float "loyal" 15. s.Metrics.loyal_effort;
  check_float "adversary" 30. s.Metrics.adversary_effort;
  check_float "per success" 15. s.Metrics.effort_per_successful_poll

let () =
  let quick name f = Alcotest.test_case name `Quick f in
  Alcotest.run "lockss-units"
    [
      ( "grade",
        [
          quick "raise" test_grade_raise;
          quick "lower" test_grade_lower;
          quick "decay" test_grade_decay;
          quick "rank order" test_grade_rank_order;
        ] );
      ( "replica",
        [
          quick "pristine" test_replica_pristine;
          quick "damage and repair" test_replica_damage_and_repair;
          quick "bad repair version" test_replica_write_bad_version_keeps_damage;
          quick "bounds" test_replica_bounds_checked;
          quick "damage version zero" test_replica_damage_version_zero_rejected;
          QCheck_alcotest.to_alcotest prop_replica_damage_then_repair_roundtrips;
        ] );
      ( "vote",
        [
          quick "versions" test_vote_versions;
          quick "agreement" test_vote_agreement;
          quick "bogus votes" test_bogus_vote_never_agrees;
          quick "wire size" test_vote_wire_bytes_scale;
        ] );
      ( "real content",
        [
          quick "identical replicas agree" test_content_identical_replicas_agree;
          quick "divergence finds first damage" test_content_divergence_finds_first_damage;
          quick "repair restores agreement" test_content_repair_restores_agreement;
          quick "nonce binds votes" test_content_nonce_binds_votes;
          prop_content_symbolic_model_faithful;
        ] );
      ( "tally",
        [
          quick "landslide agree" test_tally_landslide_agree;
          quick "landslide disagree" test_tally_landslide_disagree;
          quick "inconclusive" test_tally_inconclusive;
          quick "empty rejected" test_tally_no_votes_rejected;
          quick "blocks to inspect" test_tally_blocks_to_inspect;
          quick "bogus inspection" test_tally_bogus_forces_inspection;
          quick "overall agreement" test_tally_agrees_overall;
          QCheck_alcotest.to_alcotest prop_tally_permutation_invariant;
        ] );
      ( "known peers",
        [
          quick "lifecycle" test_known_peers_lifecycle;
          quick "decay" test_known_peers_decay;
          quick "decay huge gap clamped" test_known_peers_decay_huge_gap_clamped;
          quick "decay clock reset" test_known_peers_update_resets_decay_clock;
          quick "punish forgets" test_known_peers_punish_forgets;
          quick "lower unknown" test_known_peers_lower_unknown_enters_debt;
          prop_known_peers_decay_monotone;
          prop_grade_raise_lower_inverse;
          prop_known_peers_sorted_ids_model;
          prop_known_peers_lanes_match_model;
          prop_session_tbl_iterates_like_hashtbl;
        ] );
      ( "closed set",
        [
          prop_closed_set_matches_fifo_model;
          prop_closed_set_small_capacity_matches_fifo_model;
          quick "retained words per peer" test_population_retained_words_per_peer;
        ] );
      ( "introductions",
        [
          quick "consume" test_introductions_consume;
          quick "consume wipes related" test_introductions_consume_wipes_related;
          quick "cap" test_introductions_cap;
          quick "duplicates" test_introductions_duplicate_ignored;
          quick "forget introducer" test_introductions_forget_introducer;
        ] );
      ( "admission",
        [
          quick "unknown dropped" test_admission_unknown_all_dropped;
          quick "refractory trigger" test_admission_unknown_admitted_triggers_refractory;
          quick "even bypasses drops" test_admission_even_bypasses_drops;
          quick "known rate limit" test_admission_known_rate_limit;
          quick "debt drop rate" test_admission_debt_gets_debt_drop_rate;
          quick "introduction bypass" test_admission_introduction_bypass;
          quick "introduction respects refractory"
            test_admission_introduction_respects_refractory;
          quick "introduction re-arms refractory"
            test_admission_introduction_rearms_refractory;
          quick "disabled admits all" test_admission_disabled_admits_everything;
          prop_admission_rate_bounded;
        ] );
      ( "reference list",
        [
          quick "create dedups" test_reference_list_create_dedups;
          quick "sample excludes" test_reference_list_sample_excludes;
          quick "update rule" test_reference_list_update_rule;
          quick "insert/remove" test_reference_list_insert_remove;
          quick "empty friends update" test_reference_list_empty_friends_update;
          prop_reference_list_update_invariants;
          prop_id_set_models_list;
          prop_id_set_matches_list_model;
          prop_merged_with_friends_is_sort_uniq;
        ] );
      ( "holdings",
        [
          prop_fill_holders_matches_model;
          quick "short buffer" test_fill_holders_short_buffer;
        ] );
      ( "config",
        [
          quick "default valid" test_config_default_valid;
          quick "bad quorum" test_config_rejects_bad_quorum;
          quick "tiny population" test_config_rejects_tiny_population;
          quick "effort split" test_config_effort_split;
          quick "effort balances" test_config_effort_balances;
          quick "au bytes" test_config_au_bytes;
        ] );
      ("message", [ quick "wire sizes" test_message_sizes ]);
      ( "metrics",
        [
          quick "access failure integral" test_metrics_access_failure_integral;
          quick "open damage" test_metrics_open_damage_counts;
          quick "success gaps" test_metrics_success_gaps;
          quick "no successes" test_metrics_no_success_gap_is_infinite;
          quick "effort accounting" test_metrics_effort_accounting;
        ] );
    ]
