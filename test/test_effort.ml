(* Tests for the effort substrate: cost model, MBF proofs, task
   schedule. *)

module Cost_model = Effort.Cost_model
module Proof = Effort.Proof
module Task_schedule = Effort.Task_schedule
module Rng = Repro_prelude.Rng

let check_float = Alcotest.(check (float 1e-9))

(* -- Cost model ------------------------------------------------------- *)

let test_hash_seconds_linear () =
  let cm = Cost_model.default in
  let one = Cost_model.hash_seconds cm ~bytes:1_000_000 in
  let ten = Cost_model.hash_seconds cm ~bytes:10_000_000 in
  check_float "linear in bytes" (10. *. one) ten;
  Alcotest.(check bool) "positive" true (one > 0.)

let test_verify_cheaper_than_generate () =
  let cm = Cost_model.default in
  let generation_cost = 100. in
  let verify = Cost_model.mbf_verify_seconds cm ~generation_cost in
  Alcotest.(check bool) "verification is cheaper" true (verify < generation_cost);
  check_float "speedup factor" (generation_cost /. cm.Cost_model.mbf_verify_speedup) verify

(* -- Proofs ----------------------------------------------------------- *)

let test_proof_meets () =
  let rng = Rng.create 3 in
  let p = Proof.generate ~rng ~cost:10. in
  Alcotest.(check bool) "meets its own cost" true (Proof.meets p ~required:10.);
  Alcotest.(check bool) "meets less" true (Proof.meets p ~required:5.);
  Alcotest.(check bool) "fails more" false (Proof.meets p ~required:10.5);
  check_float "cost" 10. (Proof.cost p)

let test_proof_negative_cost_rejected () =
  let rng = Rng.create 3 in
  Alcotest.(check bool) "negative cost raises" true
    (try
       ignore (Proof.generate ~rng ~cost:(-1.));
       false
     with Invalid_argument _ -> true)

let test_forged_proof_never_meets () =
  let p = Proof.forged ~claimed_cost:1000. in
  Alcotest.(check bool) "forged fails" false (Proof.meets p ~required:1.);
  Alcotest.(check bool) "not genuine" false (Proof.is_genuine p)

let test_receipt_matching () =
  let rng = Rng.create 5 in
  let p = Proof.generate ~rng ~cost:1. in
  Alcotest.(check bool) "byproduct matches itself" true
    (Proof.receipt_matches p ~receipt:(Proof.byproduct p));
  Alcotest.(check bool) "wrong receipt rejected" false
    (Proof.receipt_matches p ~receipt:(1L, 2L));
  let q = Proof.generate ~rng ~cost:1. in
  Alcotest.(check bool) "other proof's byproduct rejected" false
    (Proof.receipt_matches p ~receipt:(Proof.byproduct q))

let test_forged_receipt_never_matches () =
  let p = Proof.forged ~claimed_cost:1. in
  Alcotest.(check bool) "forged byproduct is unusable" false
    (Proof.receipt_matches p ~receipt:(Proof.byproduct p))

let prop_byproducts_unique =
  QCheck2.Test.make ~name:"byproducts are effectively unique" ~count:50
    QCheck2.Gen.small_int (fun seed ->
      let rng = Rng.create seed in
      let a = Proof.generate ~rng ~cost:1. and b = Proof.generate ~rng ~cost:1. in
      Proof.byproduct a <> Proof.byproduct b)

(* -- Memory-bound function --------------------------------------------- *)


let mbf_table = lazy (Mbf.make_table ~seed:77 ~size_log2:12)

let test_mbf_genuine_verifies () =
  let table = Lazy.force mbf_table in
  let p = Mbf.generate table ~nonce:42L ~paths:16 ~path_length:100 in
  Alcotest.(check bool) "verifies fully" true (Mbf.verify table ~nonce:42L ~sample:16 p);
  Alcotest.(check bool) "verifies sampled" true (Mbf.verify table ~nonce:42L ~sample:3 p);
  Alcotest.(check int) "paths" 16 (Mbf.paths p)

let test_mbf_deterministic () =
  let table = Lazy.force mbf_table in
  let a = Mbf.generate table ~nonce:42L ~paths:8 ~path_length:50 in
  let b = Mbf.generate table ~nonce:42L ~paths:8 ~path_length:50 in
  Alcotest.(check int64) "byproduct reproducible" (Mbf.byproduct a) (Mbf.byproduct b)

let test_mbf_nonce_binds () =
  let table = Lazy.force mbf_table in
  let p = Mbf.generate table ~nonce:42L ~paths:8 ~path_length:50 in
  Alcotest.(check bool) "different nonce rejects" false
    (Mbf.verify table ~nonce:43L ~sample:8 p);
  Alcotest.(check bool) "byproducts differ across nonces" false
    (Int64.equal (Mbf.byproduct p)
       (Mbf.byproduct (Mbf.generate table ~nonce:43L ~paths:8 ~path_length:50)))

let test_mbf_forgery_rejected () =
  let table = Lazy.force mbf_table in
  let f = Mbf.forge ~paths:16 in
  Alcotest.(check bool) "forgery rejected" false (Mbf.verify table ~nonce:42L ~sample:4 f)

let test_mbf_table_must_match () =
  let table = Lazy.force mbf_table in
  let other = Mbf.make_table ~seed:78 ~size_log2:12 in
  let p = Mbf.generate table ~nonce:42L ~paths:8 ~path_length:50 in
  Alcotest.(check bool) "wrong table rejects" false (Mbf.verify other ~nonce:42L ~sample:8 p)

let prop_mbf_roundtrip =
  QCheck2.Test.make ~name:"mbf generate/verify roundtrip" ~count:25
    QCheck2.Gen.(pair (int_range 1 20) (int_range 1 200))
    (fun (paths, path_length) ->
      let table = Lazy.force mbf_table in
      let nonce = Int64.of_int (paths * 1000 + path_length) in
      let p = Mbf.generate table ~nonce ~paths ~path_length in
      Mbf.verify table ~nonce ~sample:paths p)

(* -- SHA-1 -------------------------------------------------------------- *)


let sha1_hex s = Sha1.to_hex (Sha1.digest s)

let test_sha1_rfc_vectors () =
  Alcotest.(check string) "empty" "da39a3ee5e6b4b0d3255bfef95601890afd80709" (sha1_hex "");
  Alcotest.(check string) "abc" "a9993e364706816aba3e25717850c26c9cd0d89d" (sha1_hex "abc");
  Alcotest.(check string) "two-block message"
    "84983e441c3bd26ebaae4aa1f95129e5e54670f1"
    (sha1_hex "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq");
  Alcotest.(check string) "fox" "2fd4e1c67a2d28fced849ee1bb76e7391b93eb12"
    (sha1_hex "The quick brown fox jumps over the lazy dog")

let test_sha1_million_a () =
  Alcotest.(check string) "10^6 x a" "34aa973cd4c4daa4f61eeb2bdbad27316534016f"
    (sha1_hex (String.make 1_000_000 'a'))

let test_sha1_streaming_matches_oneshot () =
  let whole = sha1_hex "hello world, block by block" in
  let ctx = Sha1.init () in
  let ctx = Sha1.feed ctx "hello world" in
  let ctx = Sha1.feed ctx ", block" in
  let ctx = Sha1.feed ctx " by block" in
  Alcotest.(check string) "chunked = oneshot" whole (Sha1.to_hex (Sha1.peek ctx))

let test_sha1_peek_is_pure () =
  let ctx = Sha1.feed (Sha1.init ()) "ab" in
  let before = Sha1.to_hex (Sha1.peek ctx) in
  let _ = Sha1.peek ctx in
  Alcotest.(check string) "peek does not disturb the stream" before
    (Sha1.to_hex (Sha1.peek ctx));
  let ctx' = Sha1.feed ctx "c" in
  Alcotest.(check string) "stream continues correctly"
    "a9993e364706816aba3e25717850c26c9cd0d89d"
    (Sha1.to_hex (Sha1.peek ctx'))

let test_sha1_chunked_feed_boundaries () =
  (* Regression: feed used to re-buffer the whole pending prefix on each
     call (quadratic in chunk count) and the rewrite compresses full
     blocks straight from the input, so every path through the 64-byte
     block boundary — sub-block, one-less, exact, one-more — must match
     the one-shot digest. *)
  let message =
    String.init 1000 (fun i -> Char.chr (((i * 37) + (i / 7)) land 0xff))
  in
  let whole = sha1_hex message in
  List.iter
    (fun chunk ->
      let ctx = ref (Sha1.init ()) in
      let pos = ref 0 in
      while !pos < String.length message do
        let len = min chunk (String.length message - !pos) in
        ctx := Sha1.feed !ctx (String.sub message !pos len);
        pos := !pos + len
      done;
      Alcotest.(check string)
        (Printf.sprintf "%d-byte chunks = oneshot" chunk)
        whole
        (Sha1.to_hex (Sha1.peek !ctx)))
    [ 1; 63; 64; 65; 128; 1000 ]

let prop_sha1_injective_in_practice =
  QCheck2.Test.make ~name:"distinct short strings hash distinctly" ~count:200
    QCheck2.Gen.(pair string_small string_small)
    (fun (a, b) -> a = b || Sha1.digest a <> Sha1.digest b)

(* -- Task schedule ---------------------------------------------------- *)

let test_schedule_idle_accepts () =
  let s = Task_schedule.create ~capacity:1. in
  Alcotest.(check bool) "fits" true
    (Task_schedule.can_accept s ~now:0. ~work:10. ~deadline:10.);
  Alcotest.(check bool) "too tight" false
    (Task_schedule.can_accept s ~now:0. ~work:10. ~deadline:9.9)

let test_schedule_fifo_queueing () =
  let s = Task_schedule.create ~capacity:1. in
  let r1 = Task_schedule.reserve s ~now:0. ~work:5. ~deadline:100. in
  (match r1 with
  | Some (_, finish) -> check_float "first finishes at 5" 5. finish
  | None -> Alcotest.fail "first reservation refused");
  match Task_schedule.reserve s ~now:0. ~work:5. ~deadline:100. with
  | Some (_, finish) -> check_float "second queues behind" 10. finish
  | None -> Alcotest.fail "second reservation refused"

let test_schedule_deadline_refusal () =
  let s = Task_schedule.create ~capacity:1. in
  ignore (Task_schedule.reserve s ~now:0. ~work:8. ~deadline:100.);
  Alcotest.(check (option unit)) "overcommitted work refused" None
    (Option.map (fun _ -> ()) (Task_schedule.reserve s ~now:0. ~work:5. ~deadline:10.))

let test_schedule_capacity_speedup () =
  let s = Task_schedule.create ~capacity:2. in
  match Task_schedule.reserve s ~now:0. ~work:10. ~deadline:100. with
  | Some (_, finish) -> check_float "double speed halves time" 5. finish
  | None -> Alcotest.fail "refused"

let test_schedule_drains_with_time () =
  let s = Task_schedule.create ~capacity:1. in
  ignore (Task_schedule.reserve s ~now:0. ~work:10. ~deadline:100.);
  check_float "busy until 10" 10. (Task_schedule.backlog_end s ~now:0.);
  check_float "idle by 20" 20. (Task_schedule.backlog_end s ~now:20.);
  check_float "no residual work" 0. (Task_schedule.reserved_work s ~now:20.)

let test_schedule_cancellation_frees_capacity () =
  let s = Task_schedule.create ~capacity:1. in
  let r, _ =
    match Task_schedule.reserve s ~now:0. ~work:10. ~deadline:100. with
    | Some x -> x
    | None -> Alcotest.fail "refused"
  in
  Task_schedule.cancel s ~now:0. r;
  check_float "capacity freed" 0. (Task_schedule.reserved_work s ~now:0.);
  Task_schedule.cancel s ~now:0. r;
  check_float "double cancel harmless" 0. (Task_schedule.reserved_work s ~now:0.)

let test_schedule_cancel_after_execution_window () =
  let s = Task_schedule.create ~capacity:1. in
  let r, _ =
    match Task_schedule.reserve s ~now:0. ~work:10. ~deadline:100. with
    | Some x -> x
    | None -> Alcotest.fail "refused"
  in
  (* By now=50 the work already ran; cancelling must not rewind time. *)
  Task_schedule.cancel s ~now:50. r;
  check_float "queue not rewound below now" 50. (Task_schedule.backlog_end s ~now:50.)

let test_schedule_unchecked_always_books () =
  let s = Task_schedule.create ~capacity:1. in
  let _, f1 = Task_schedule.reserve_unchecked s ~now:0. ~work:1000. in
  check_float "books regardless" 1000. f1;
  Alcotest.(check bool) "later checked reservation sees backlog" false
    (Task_schedule.can_accept s ~now:0. ~work:1. ~deadline:500.)

let prop_reservations_never_overlap_capacity =
  QCheck2.Test.make ~name:"completion times are consistent with capacity" ~count:200
    QCheck2.Gen.(list_size (int_range 1 20) (float_range 0.1 10.))
    (fun works ->
      let s = Task_schedule.create ~capacity:1. in
      let total = List.fold_left ( +. ) 0. works in
      let finishes =
        List.map
          (fun work ->
            match Task_schedule.reserve s ~now:0. ~work ~deadline:infinity with
            | Some (_, f) -> f
            | None -> nan)
          works
      in
      let last = List.fold_left Float.max 0. finishes in
      (* Work is serialised: the last completion equals the total work. *)
      Float.abs (last -. total) < 1e-6
      && List.for_all (fun f -> Float.is_finite f) finishes)

let () =
  let quick name f = Alcotest.test_case name `Quick f in
  Alcotest.run "effort"
    [
      ( "cost model",
        [
          quick "hash linear" test_hash_seconds_linear;
          quick "verify cheaper" test_verify_cheaper_than_generate;
        ] );
      ( "proofs",
        [
          quick "meets" test_proof_meets;
          quick "negative cost" test_proof_negative_cost_rejected;
          quick "forged never meets" test_forged_proof_never_meets;
          quick "receipt matching" test_receipt_matching;
          quick "forged receipt" test_forged_receipt_never_matches;
          QCheck_alcotest.to_alcotest prop_byproducts_unique;
        ] );
      ( "memory-bound function",
        [
          quick "genuine verifies" test_mbf_genuine_verifies;
          quick "deterministic" test_mbf_deterministic;
          quick "nonce binds" test_mbf_nonce_binds;
          quick "forgery rejected" test_mbf_forgery_rejected;
          quick "table binds" test_mbf_table_must_match;
          QCheck_alcotest.to_alcotest prop_mbf_roundtrip;
        ] );
      ( "sha1",
        [
          quick "rfc vectors" test_sha1_rfc_vectors;
          Alcotest.test_case "million a" `Slow test_sha1_million_a;
          quick "streaming" test_sha1_streaming_matches_oneshot;
          quick "chunk boundaries" test_sha1_chunked_feed_boundaries;
          quick "peek pure" test_sha1_peek_is_pure;
          QCheck_alcotest.to_alcotest prop_sha1_injective_in_practice;
        ] );
      ( "task schedule",
        [
          quick "idle accepts" test_schedule_idle_accepts;
          quick "fifo queueing" test_schedule_fifo_queueing;
          quick "deadline refusal" test_schedule_deadline_refusal;
          quick "capacity speedup" test_schedule_capacity_speedup;
          quick "drains with time" test_schedule_drains_with_time;
          quick "cancellation frees capacity" test_schedule_cancellation_frees_capacity;
          quick "cancel after execution" test_schedule_cancel_after_execution_window;
          quick "unchecked reservations" test_schedule_unchecked_always_books;
          QCheck_alcotest.to_alcotest prop_reservations_never_overlap_capacity;
        ] );
    ]
