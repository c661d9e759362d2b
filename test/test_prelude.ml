(* Unit and property tests for the prelude substrate: rng, heap, stats,
   duration, table. *)

module Rng = Repro_prelude.Rng
module Stats = Repro_prelude.Stats
module Duration = Repro_prelude.Duration
module Table = Repro_prelude.Table

let check_float = Alcotest.(check (float 1e-9))

(* -- Rng -------------------------------------------------------------- *)

let test_rng_deterministic () =
  let a = Rng.create 123 and b = Rng.create 123 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.bits64 a) (Rng.bits64 b)
  done

let test_rng_seed_sensitivity () =
  let a = Rng.create 1 and b = Rng.create 2 in
  let differs = ref false in
  for _ = 1 to 10 do
    if not (Int64.equal (Rng.bits64 a) (Rng.bits64 b)) then differs := true
  done;
  Alcotest.(check bool) "seeds diverge" true !differs

let test_rng_copy_independent () =
  let a = Rng.create 5 in
  let b = Rng.copy a in
  Alcotest.(check int64) "copy tracks" (Rng.bits64 a) (Rng.bits64 b);
  ignore (Rng.bits64 a);
  (* b is now one draw behind a; their next draws differ in general *)
  let a2 = Rng.bits64 a and b2 = Rng.bits64 b in
  Alcotest.(check bool) "desynchronised after extra draw" false (Int64.equal a2 b2)

let test_rng_split_independent () =
  let parent = Rng.create 9 in
  let child = Rng.split parent in
  (* Consuming the child must not affect the parent's future stream. *)
  let parent_reference = Rng.copy parent in
  for _ = 1 to 50 do
    ignore (Rng.bits64 child)
  done;
  for _ = 1 to 50 do
    Alcotest.(check int64) "parent unaffected" (Rng.bits64 parent_reference)
      (Rng.bits64 parent)
  done

let test_rng_int_bounds () =
  let rng = Rng.create 11 in
  for _ = 1 to 1000 do
    let x = Rng.int rng 7 in
    Alcotest.(check bool) "in [0,7)" true (x >= 0 && x < 7)
  done

let test_rng_float_bounds () =
  let rng = Rng.create 13 in
  for _ = 1 to 1000 do
    let x = Rng.float rng 3.5 in
    Alcotest.(check bool) "in [0,3.5)" true (x >= 0. && x < 3.5)
  done

let test_rng_bernoulli_extremes () =
  let rng = Rng.create 17 in
  Alcotest.(check bool) "p=0 never" false (Rng.bernoulli rng 0.);
  Alcotest.(check bool) "p=1 always" true (Rng.bernoulli rng 1.)

let test_rng_bernoulli_frequency () =
  let rng = Rng.create 19 in
  let hits = ref 0 in
  let n = 20_000 in
  for _ = 1 to n do
    if Rng.bernoulli rng 0.3 then incr hits
  done;
  let freq = float_of_int !hits /. float_of_int n in
  Alcotest.(check bool) "frequency near 0.3" true (Float.abs (freq -. 0.3) < 0.02)

let test_rng_exponential_mean () =
  let rng = Rng.create 23 in
  let acc = Stats.Acc.create () in
  for _ = 1 to 20_000 do
    Stats.Acc.add acc (Rng.exponential rng ~mean:5.)
  done;
  Alcotest.(check bool) "mean near 5" true (Float.abs (Stats.Acc.mean acc -. 5.) < 0.2)

let test_rng_sample_distinct () =
  let rng = Rng.create 29 in
  let xs = List.init 20 (fun i -> i) in
  let sample = Rng.sample rng 10 xs in
  Alcotest.(check int) "size" 10 (List.length sample);
  Alcotest.(check int) "distinct" 10 (List.length (List.sort_uniq compare sample));
  List.iter (fun x -> Alcotest.(check bool) "member" true (List.mem x xs)) sample

let test_rng_sample_overshoot () =
  let rng = Rng.create 31 in
  let sample = Rng.sample rng 10 [ 1; 2; 3 ] in
  Alcotest.(check int) "capped at population" 3 (List.length sample)

let test_rng_shuffle_permutation () =
  let rng = Rng.create 37 in
  let arr = Array.init 50 (fun i -> i) in
  Rng.shuffle rng arr;
  let sorted = Array.copy arr in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "same multiset" (Array.init 50 (fun i -> i)) sorted

let prop_sample_is_subset =
  QCheck2.Test.make ~name:"rng sample is always a distinct subset" ~count:200
    QCheck2.Gen.(pair small_int (small_list small_int))
    (fun (k, xs) ->
      let rng = Rng.create 41 in
      let s = Rng.sample rng k xs in
      List.length s = min (max k 0) (List.length xs)
      && List.for_all (fun x -> List.mem x xs) s)

(* The v1 draw stream. Every seeded output of the simulator (figure
   goldens, trace MD5s, benchmark digests) rests on these exact draws, so
   a change to the generator's representation or to the sampler must
   reproduce them bit for bit. The digests were recorded from the boxed
   [mutable int64] generator and the polymorphic shuffle it replaced. *)
let rng_stream_transcript seed =
  let b = Buffer.create 4096 in
  let out fmt = Printf.bprintf b fmt in
  let r = Rng.create seed in
  for _ = 1 to 8 do
    out "b %Ld\n" (Rng.bits64 r)
  done;
  List.iter
    (fun bound ->
      for _ = 1 to 8 do
        out "i%d %d\n" bound (Rng.int r bound)
      done)
    [ 1; 7; 4999; 1 lsl 30 ];
  for _ = 1 to 8 do
    out "f %h %h\n" (Rng.float r 1.0) (Rng.float r 1000.)
  done;
  for _ = 1 to 16 do
    out "o %b\n" (Rng.bool r)
  done;
  let child = Rng.split r in
  for _ = 1 to 4 do
    out "s %Ld %Ld\n" (Rng.bits64 child) (Rng.bits64 r)
  done;
  let twin = Rng.copy r in
  for _ = 1 to 4 do
    out "c %Ld %Ld\n" (Rng.bits64 twin) (Rng.bits64 r)
  done;
  let ints xs = String.concat "," (List.map string_of_int xs) in
  List.iter
    (fun (k, n) ->
      out "l %s\n" (ints (Rng.sample r k (List.init n Fun.id)));
      let arr = Array.init n (fun i -> 3 * i) in
      let picked = Rng.sample_array r k arr in
      out "a %s | %s\n" (ints picked) (ints (Array.to_list arr)))
    [ (0, 0); (1, 1); (3, 10); (10, 3); (5, 100); (0, 7) ];
  let arr = Array.init 20 Fun.id in
  Rng.shuffle r arr;
  out "h %s\n" (ints (Array.to_list arr));
  out "p %d %d\n" (Rng.pick r [| 10; 20; 30 |]) (Rng.pick_list r [ 4; 5; 6; 7 ]);
  out "e %b %h %h\n" (Rng.bernoulli r 0.5)
    (Rng.uniform r ~lo:(-1.) ~hi:2.)
    (Rng.exponential r ~mean:3.);
  out "z %Ld\n" (Rng.bits64 r);
  Buffer.contents b

let test_rng_v1_stream_pinned () =
  List.iter
    (fun (seed, md5) ->
      Alcotest.(check string)
        (Printf.sprintf "seed %d transcript" seed)
        md5
        (Digest.to_hex (Digest.string (rng_stream_transcript seed))))
    [
      (0, "6e4ed1cb797a893f48a74799ddebb874");
      (1, "d1800f1d87f64bc4d4e543a380cbe487");
      (42, "504c76d44e0225630913c02b3b4b74af");
      (1 lsl 40, "58954c1200dd7cc59e80a352ce4eeec2");
    ];
  (* A few literals, so a mismatch can be read without re-deriving the
     transcript. *)
  let r = Rng.create 42 in
  Alcotest.(check (list int64)) "seed 42 first draws"
    [ 701532786141963250L; -2430762948046562554L; 4028864712777624925L ]
    (List.init 3 (fun _ -> Rng.bits64 r))

(* The kernel on a prefix is [sample_array] on a copy of that prefix:
   same result, same permutation of the prefix, same draws consumed
   (exactly [len - 1]), and the cells from [len] on untouched. *)
let prop_sample_prefix_is_sample_array =
  QCheck2.Test.make ~name:"sample_prefix equals sample_array on the prefix" ~count:500
    QCheck2.Gen.(
      triple (int_range 0 1_000_000) (int_range 0 50)
        (list_size (int_range 0 40) (int_range (-100) 100))
      >>= fun (seed, k, xs) ->
      map (fun len -> (seed, k, xs, len)) (int_range 0 (List.length xs)))
    (fun (seed, k, xs, len) ->
      let arr = Array.of_list xs in
      let n = Array.length arr in
      let prefix = Array.sub arr 0 len and tail = Array.sub arr len (n - len) in
      let r_prefix = Rng.create seed and r_array = Rng.create seed in
      let r_count = Rng.create seed in
      let got = Rng.sample_prefix r_prefix k arr ~len in
      let want = Rng.sample_array r_array k prefix in
      for _ = 1 to len - 1 do
        ignore (Rng.bits64 r_count)
      done;
      let next = Rng.bits64 r_prefix in
      got = want
      && Array.sub arr 0 len = prefix
      && Array.sub arr len (n - len) = tail
      && Int64.equal next (Rng.bits64 r_array)
      && Int64.equal next (Rng.bits64 r_count))

let test_sample_prefix_bad_arguments () =
  let rng = Rng.create 3 and arr = Array.make 4 0 in
  Alcotest.check_raises "len past the end"
    (Invalid_argument "Rng.sample_prefix: bad length") (fun () ->
      ignore (Rng.sample_prefix rng 1 arr ~len:5));
  Alcotest.check_raises "negative len"
    (Invalid_argument "Rng.sample_prefix: bad length") (fun () ->
      ignore (Rng.sample_prefix rng 1 arr ~len:(-1)));
  Alcotest.check_raises "negative count"
    (Invalid_argument "Rng.sample_prefix: negative count") (fun () ->
      ignore (Rng.sample_prefix rng (-1) arr ~len:4))

(* Allocation lock: a draw keeps the generator state unboxed and a
   sample swaps ints in place, so neither allocates. Exact minor-word
   counts, not timings, so the test is deterministic. *)
let minor_words_during f =
  let before = Gc.minor_words () in
  f ();
  Gc.minor_words () -. before

let test_rng_draws_allocate_nothing () =
  let rng = Rng.create 7 in
  let ids = Array.init 64 Fun.id in
  let buf = Array.init 1000 Fun.id in
  let draws = 100_000 in
  let check_words name expected f =
    Alcotest.(check (float 0.)) name expected (minor_words_during f)
  in
  check_words "Rng.int" 0. (fun () ->
      for _ = 1 to draws do
        ignore (Rng.int rng 4999)
      done);
  check_words "Rng.bool" 0. (fun () ->
      for _ = 1 to draws do
        ignore (Rng.bool rng)
      done);
  check_words "Rng.pick on an int array" 0. (fun () ->
      for _ = 1 to draws do
        ignore (Rng.pick rng ids)
      done);
  check_words "prefix sample into a preallocated buffer" 0. (fun () ->
      for _ = 1 to draws / 1000 do
        ignore (Rng.sample_prefix rng 0 buf ~len:1000)
      done);
  (* Only the returned list costs: three words per cons cell. *)
  check_words "prefix sample of 5 allocates its list only"
    (float_of_int (3 * 5 * (draws / 1000)))
    (fun () ->
      for _ = 1 to draws / 1000 do
        ignore (Rng.sample_prefix rng 5 buf ~len:1000)
      done)

(* -- Heap ------------------------------------------------------------- *)

let test_heap_basic () =
  let h = Heap.create ~cmp:compare in
  Alcotest.(check bool) "empty" true (Heap.is_empty h);
  Heap.add h 5;
  Heap.add h 1;
  Heap.add h 3;
  Alcotest.(check (option int)) "peek min" (Some 1) (Heap.peek h);
  Alcotest.(check (option int)) "pop 1" (Some 1) (Heap.pop h);
  Alcotest.(check (option int)) "pop 3" (Some 3) (Heap.pop h);
  Alcotest.(check (option int)) "pop 5" (Some 5) (Heap.pop h);
  Alcotest.(check (option int)) "pop empty" None (Heap.pop h)

let test_heap_pop_exn_empty () =
  let h = Heap.create ~cmp:compare in
  Alcotest.check_raises "pop_exn on empty" (Invalid_argument "Heap.pop_exn: empty heap")
    (fun () -> ignore (Heap.pop_exn h))

let test_heap_clear () =
  let h = Heap.create ~cmp:compare in
  List.iter (Heap.add h) [ 3; 1; 2 ];
  Heap.clear h;
  Alcotest.(check int) "cleared" 0 (Heap.length h)

let prop_heap_sorts =
  QCheck2.Test.make ~name:"heap drains in sorted order" ~count:300
    QCheck2.Gen.(list int)
    (fun xs ->
      let h = Heap.create ~cmp:compare in
      List.iter (Heap.add h) xs;
      let drained = ref [] in
      let rec drain () =
        match Heap.pop h with
        | None -> ()
        | Some x ->
          drained := x :: !drained;
          drain ()
      in
      drain ();
      List.rev !drained = List.sort compare xs)

let prop_heap_to_sorted_list_preserves =
  QCheck2.Test.make ~name:"to_sorted_list leaves heap intact" ~count:200
    QCheck2.Gen.(list small_int)
    (fun xs ->
      let h = Heap.create ~cmp:compare in
      List.iter (Heap.add h) xs;
      let listed = Heap.to_sorted_list h in
      listed = List.sort compare xs && Heap.length h = List.length xs)

(* -- Tsheap ----------------------------------------------------------- *)

module Tsheap = Repro_prelude.Tsheap

let test_tsheap_basic () =
  let h = Tsheap.create () in
  Alcotest.(check bool) "empty" true (Tsheap.is_empty h);
  Tsheap.add h ~time:5. ~seq:0 50;
  Tsheap.add h ~time:1. ~seq:1 10;
  Tsheap.add h ~time:3. ~seq:2 30;
  Alcotest.(check int) "length" 3 (Tsheap.length h);
  Alcotest.(check (float 0.)) "min time" 1. (Tsheap.min_time h);
  Alcotest.(check int) "min seq" 1 (Tsheap.min_seq h);
  Alcotest.(check int) "min payload" 10 (Tsheap.min_payload h);
  Alcotest.(check (option int)) "pop a" (Some 10) (Tsheap.pop h);
  Alcotest.(check (option int)) "pop c" (Some 30) (Tsheap.pop h);
  Alcotest.(check (option int)) "pop e" (Some 50) (Tsheap.pop h);
  Alcotest.(check (option int)) "pop empty" None (Tsheap.pop h)

let test_tsheap_ties_fifo () =
  (* Equal times drain in seq order: the engine's FIFO guarantee for
     same-time events rests on exactly this. *)
  let h = Tsheap.create () in
  List.iter (fun seq -> Tsheap.add h ~time:2. ~seq seq) [ 4; 0; 3; 1; 2 ];
  let order = List.init 5 (fun _ -> Option.get (Tsheap.pop h)) in
  Alcotest.(check (list int)) "FIFO under ties" [ 0; 1; 2; 3; 4 ] order

let test_tsheap_empty_ops_raise () =
  let h = Tsheap.create () in
  Alcotest.check_raises "min_time" (Invalid_argument "Tsheap.min_time: empty heap")
    (fun () -> ignore (Tsheap.min_time h));
  Alcotest.check_raises "drop_min" (Invalid_argument "Tsheap.drop_min: empty heap")
    (fun () -> Tsheap.drop_min h)

let test_tsheap_clear () =
  let h = Tsheap.create () in
  for i = 1 to 40 do
    Tsheap.add h ~time:(float_of_int (i mod 7)) ~seq:i i
  done;
  Tsheap.clear h;
  Alcotest.(check int) "cleared" 0 (Tsheap.length h);
  Tsheap.add h ~time:1. ~seq:0 9;
  Alcotest.(check (option int)) "usable after clear" (Some 9) (Tsheap.pop h)

(* Model check against the generic comparator heap: identical pop order
   on (time, seq) keys, including heavy time ties — the engine swapped
   the former for the latter and this pins the equivalence. Times are
   drawn from a small set so collisions are the common case, seqs are
   the injection index, unique as in the engine, and each entry carries
   an independently drawn payload: every pop compares the whole
   (time, seq, payload) entry, so a sift that moved a key without its
   payload fails. *)
let tsheap_entries_gen =
  QCheck2.Gen.(list_size (int_bound 200) (pair (int_bound 7) int))

let prop_tsheap_matches_model_heap =
  QCheck2.Test.make ~name:"tsheap pop order matches comparator-heap model"
    ~count:300 tsheap_entries_gen (fun raw ->
      let keyed = List.mapi (fun seq (t, p) -> (float_of_int t, seq, p)) raw in
      let model =
        Heap.create
          ~cmp:(fun (t1, s1, _) (t2, s2, _) ->
            match Float.compare t1 t2 with 0 -> Int.compare s1 s2 | c -> c)
      in
      let h = Tsheap.create () in
      List.iter
        (fun ((time, seq, payload) as entry) ->
          Heap.add model entry;
          Tsheap.add h ~time ~seq payload)
        keyed;
      let rec drain ok =
        match Heap.pop model with
        | None -> ok && Tsheap.is_empty h
        | Some m ->
          (not (Tsheap.is_empty h))
          &&
          let f = (Tsheap.min_time h, Tsheap.min_seq h, Tsheap.min_payload h) in
          Tsheap.drop_min h;
          drain (ok && m = f)
      in
      drain true)

let prop_tsheap_interleaved_ops =
  (* Interleave adds and drops (the engine's actual access pattern, where
     the heap never fully drains between schedules) and check the final
     drain is still totally ordered with unique seqs, each entry still
     carrying the payload it was added with. *)
  QCheck2.Test.make ~name:"tsheap interleaved add/drop stays ordered" ~count:200
    QCheck2.Gen.(list_size (int_bound 100) (pair (int_bound 5) bool))
    (fun ops ->
      let h = Tsheap.create () in
      let seq = ref 0 in
      List.iter
        (fun (t, drop) ->
          if drop && not (Tsheap.is_empty h) then Tsheap.drop_min h
          else begin
            Tsheap.add h ~time:(float_of_int t) ~seq:!seq (!seq * 7);
            incr seq
          end)
        ops;
      let rec drain prev =
        if Tsheap.is_empty h then true
        else begin
          let key = (Tsheap.min_time h, Tsheap.min_seq h) in
          let carried = Tsheap.min_payload h = 7 * snd key in
          Tsheap.drop_min h;
          carried
          && (match prev with None -> true | Some p -> p < key)
          && drain (Some key)
        end
      in
      drain None)

(* -- Keyed_tbl -------------------------------------------------------- *)

module Keyed_tbl = Repro_prelude.Keyed_tbl

(* The int- and pair-keyed tables must place bindings exactly where a
   generic [Hashtbl] does: same iteration order under the same
   add / replace / remove sequence, over a key space small enough that
   collisions, shadowed [add]s and resizes are the common case. *)
let prop_keyed_tbl_iterates_like_hashtbl =
  QCheck2.Test.make ~name:"int and int-pair tables iterate in Hashtbl order" ~count:300
    QCheck2.Gen.(list_size (int_bound 300) (triple (int_bound 5) (int_bound 50) (int_bound 3)))
    (fun ops ->
      let t1 = Keyed_tbl.Int.create 4 and m1 = Hashtbl.create 4 in
      let t2 = Keyed_tbl.Int2.create 4 and m2 = Hashtbl.create 4 in
      List.iteri
        (fun i (op, a, b) ->
          match op with
          | 0 | 1 ->
            Keyed_tbl.Int.replace t1 a i;
            Hashtbl.replace m1 a i;
            Keyed_tbl.Int2.replace t2 (a, b) i;
            Hashtbl.replace m2 (a, b) i
          | 2 ->
            Keyed_tbl.Int.add t1 a i;
            Hashtbl.add m1 a i;
            Keyed_tbl.Int2.add t2 (a, b) i;
            Hashtbl.add m2 (a, b) i
          | _ ->
            Keyed_tbl.Int.remove t1 a;
            Hashtbl.remove m1 a;
            Keyed_tbl.Int2.remove t2 (a, b);
            Hashtbl.remove m2 (a, b))
        ops;
      let bindings fold t = fold (fun k v acc -> (k, v) :: acc) t [] in
      bindings Keyed_tbl.Int.fold t1 = bindings Hashtbl.fold m1
      && bindings Keyed_tbl.Int2.fold t2 = bindings Hashtbl.fold m2)

(* -- Monotonic clock -------------------------------------------------- *)

let test_monotonic_now () =
  let a = Repro_prelude.Monotonic.now_s () in
  let b = Repro_prelude.Monotonic.now_s () in
  Alcotest.(check bool) "non-decreasing" true (b >= a);
  Alcotest.(check bool) "elapsed non-negative" true
    (Repro_prelude.Monotonic.elapsed_s a >= 0.);
  (* elapsed_s clamps: a reference in the future must not go negative. *)
  Alcotest.(check (float 0.)) "clamped" 0.
    (Repro_prelude.Monotonic.elapsed_s (b +. 3600.))

let test_monotonic_thread_cpu () =
  let a = Repro_prelude.Monotonic.thread_cpu_s () in
  (* Burn a little CPU; the thread clock must not go backwards and
     should advance eventually (we only assert monotonicity to stay
     robust on coarse-grained platforms). *)
  let acc = ref 0 in
  for i = 1 to 1_000_000 do
    acc := !acc + (i mod 7)
  done;
  ignore (Sys.opaque_identity !acc);
  let b = Repro_prelude.Monotonic.thread_cpu_s () in
  Alcotest.(check bool) "non-decreasing" true (b >= a)

(* -- Stats ------------------------------------------------------------ *)

let test_acc_mean_variance () =
  let acc = Stats.Acc.create () in
  List.iter (Stats.Acc.add acc) [ 2.; 4.; 4.; 4.; 5.; 5.; 7.; 9. ];
  check_float "mean" 5.0 (Stats.Acc.mean acc);
  check_float "variance" (32. /. 7.) (Stats.Acc.variance acc);
  check_float "min" 2. (Stats.Acc.min acc);
  check_float "max" 9. (Stats.Acc.max acc);
  Alcotest.(check int) "count" 8 (Stats.Acc.count acc);
  check_float "total" 40. (Stats.Acc.total acc)

let test_acc_empty () =
  let acc = Stats.Acc.create () in
  Alcotest.(check bool) "mean nan" true (Float.is_nan (Stats.Acc.mean acc));
  check_float "variance 0" 0. (Stats.Acc.variance acc)

let test_time_weighted_constant () =
  let tw = Stats.Time_weighted.create ~start:0. ~value:3. in
  check_float "constant signal" 3. (Stats.Time_weighted.mean tw ~now:10.)

let test_time_weighted_step () =
  let tw = Stats.Time_weighted.create ~start:0. ~value:0. in
  Stats.Time_weighted.update tw ~now:5. ~value:1.;
  (* 0 for 5s then 1 for 5s *)
  check_float "step mean" 0.5 (Stats.Time_weighted.mean tw ~now:10.)

let test_time_weighted_multi_step () =
  let tw = Stats.Time_weighted.create ~start:0. ~value:2. in
  Stats.Time_weighted.update tw ~now:2. ~value:0.;
  Stats.Time_weighted.update tw ~now:4. ~value:4.;
  (* 2*2 + 0*2 + 4*6 = 28 over 10 *)
  check_float "piecewise mean" 2.8 (Stats.Time_weighted.mean tw ~now:10.)

let prop_acc_mean_matches_fold =
  QCheck2.Test.make ~name:"acc mean matches reference fold" ~count:300
    QCheck2.Gen.(list_size (int_range 1 50) (float_range (-1000.) 1000.))
    (fun xs ->
      let acc = Stats.Acc.create () in
      List.iter (Stats.Acc.add acc) xs;
      let reference = List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs) in
      Float.abs (Stats.Acc.mean acc -. reference) < 1e-6 *. (1. +. Float.abs reference))

let test_percentile () =
  let xs = [ 1.; 2.; 3.; 4.; 5. ] in
  check_float "p0" 1. (Stats.percentile 0. xs);
  check_float "p50" 3. (Stats.percentile 50. xs);
  check_float "p100" 5. (Stats.percentile 100. xs);
  check_float "p25" 2. (Stats.percentile 25. xs)

let test_percentile_interpolates () =
  check_float "p50 of pair" 1.5 (Stats.percentile 50. [ 1.; 2. ])

let test_percentile_total_order () =
  (* Regression: the sort used polymorphic [compare]; with total float
     order, signed zeros and infinities land where they should. *)
  check_float "negatives sort below" (-3.) (Stats.percentile 0. [ 4.; -3.; 0. ]);
  check_float "p100 with infinity" infinity (Stats.percentile 100. [ 1.; infinity; 2. ]);
  check_float "p0 with -infinity" neg_infinity
    (Stats.percentile 0. [ 1.; neg_infinity; 2. ]);
  check_float "signed zeros ordered" 0. (Stats.percentile 50. [ 0.; -0.; 1. ])

let test_percentile_nan_raises () =
  Alcotest.check_raises "NaN input" (Invalid_argument "Stats.percentile: NaN input")
    (fun () -> ignore (Stats.percentile 50. [ 1.; nan; 2. ]))

let test_percentile_singleton () =
  check_float "p0 singleton" 42. (Stats.percentile 0. [ 42. ]);
  check_float "p100 singleton" 42. (Stats.percentile 100. [ 42. ]);
  check_float "p37 singleton" 42. (Stats.percentile 37. [ 42. ])

let test_mean_empty_raises () =
  Alcotest.check_raises "mean of empty" (Invalid_argument "Stats.mean: empty list")
    (fun () -> ignore (Stats.mean []))

(* -- Duration --------------------------------------------------------- *)

let test_duration_roundtrips () =
  check_float "days" 3. (Duration.to_days (Duration.of_days 3.));
  check_float "months" 2.5 (Duration.to_months (Duration.of_months 2.5));
  check_float "years" 1.5 (Duration.to_years (Duration.of_years 1.5))

let test_duration_constants () =
  check_float "day" 86400. Duration.day;
  check_float "month = 30 days" (30. *. 86400.) Duration.month;
  check_float "year = 365 days" (365. *. 86400.) Duration.year

let test_duration_pp () =
  let s x = Format.asprintf "%a" Duration.pp x in
  Alcotest.(check string) "seconds" "30.0s" (s 30.);
  Alcotest.(check string) "days" "2.0d" (s (Duration.of_days 2.));
  Alcotest.(check string) "months" "3.0mo" (s (Duration.of_months 3.));
  Alcotest.(check string) "years" "2.00y" (s (Duration.of_years 2.))

(* -- Table ------------------------------------------------------------ *)

let test_table_renders () =
  let t = Table.create [ "a"; "bb" ] in
  Table.add_row t [ "1"; "2" ];
  Table.add_row t [ "333" ];
  let rendered = Table.render t in
  Alcotest.(check bool) "contains header" true
    (String.length rendered > 0
    && String.split_on_char '\n' rendered |> List.length = 5
       (* header, rule, 2 rows, trailing *));
  Alcotest.(check bool) "pads short rows" true
    (String.split_on_char '\n' rendered
    |> List.exists (fun line -> String.trim line = "333"))

let test_table_too_many_cells () =
  let t = Table.create [ "a" ] in
  Alcotest.check_raises "too many cells"
    (Invalid_argument "Table.add_row: more cells than headers") (fun () ->
      Table.add_row t [ "1"; "2" ])

let () =
  let quick name f = Alcotest.test_case name `Quick f in
  Alcotest.run "prelude"
    [
      ( "rng",
        [
          quick "deterministic streams" test_rng_deterministic;
          quick "seed sensitivity" test_rng_seed_sensitivity;
          quick "copy independence" test_rng_copy_independent;
          quick "split independence" test_rng_split_independent;
          quick "int bounds" test_rng_int_bounds;
          quick "float bounds" test_rng_float_bounds;
          quick "bernoulli extremes" test_rng_bernoulli_extremes;
          quick "bernoulli frequency" test_rng_bernoulli_frequency;
          quick "exponential mean" test_rng_exponential_mean;
          quick "sample distinct" test_rng_sample_distinct;
          quick "sample overshoot" test_rng_sample_overshoot;
          quick "shuffle permutation" test_rng_shuffle_permutation;
          QCheck_alcotest.to_alcotest prop_sample_is_subset;
          quick "v1 draw stream pinned" test_rng_v1_stream_pinned;
          QCheck_alcotest.to_alcotest prop_sample_prefix_is_sample_array;
          quick "sample_prefix bad arguments" test_sample_prefix_bad_arguments;
          quick "draws allocate nothing" test_rng_draws_allocate_nothing;
        ] );
      ( "heap",
        [
          quick "basic order" test_heap_basic;
          quick "pop_exn empty" test_heap_pop_exn_empty;
          quick "clear" test_heap_clear;
          QCheck_alcotest.to_alcotest prop_heap_sorts;
          QCheck_alcotest.to_alcotest prop_heap_to_sorted_list_preserves;
        ] );
      ( "tsheap",
        [
          quick "basic order" test_tsheap_basic;
          quick "FIFO under time ties" test_tsheap_ties_fifo;
          quick "empty ops raise" test_tsheap_empty_ops_raise;
          quick "clear" test_tsheap_clear;
          QCheck_alcotest.to_alcotest prop_tsheap_matches_model_heap;
          QCheck_alcotest.to_alcotest prop_tsheap_interleaved_ops;
          QCheck_alcotest.to_alcotest prop_keyed_tbl_iterates_like_hashtbl;
        ] );
      ( "monotonic",
        [
          quick "wall clock" test_monotonic_now;
          quick "thread cpu clock" test_monotonic_thread_cpu;
        ] );
      ( "stats",
        [
          quick "acc mean/variance" test_acc_mean_variance;
          quick "acc empty" test_acc_empty;
          quick "time-weighted constant" test_time_weighted_constant;
          quick "time-weighted step" test_time_weighted_step;
          quick "time-weighted multi-step" test_time_weighted_multi_step;
          quick "percentile" test_percentile;
          quick "percentile interpolation" test_percentile_interpolates;
          quick "percentile total order" test_percentile_total_order;
          quick "percentile NaN raises" test_percentile_nan_raises;
          quick "percentile singleton" test_percentile_singleton;
          quick "mean empty raises" test_mean_empty_raises;
          QCheck_alcotest.to_alcotest prop_acc_mean_matches_fold;
        ] );
      ( "duration",
        [
          quick "roundtrips" test_duration_roundtrips;
          quick "constants" test_duration_constants;
          quick "pretty printing" test_duration_pp;
        ] );
      ( "table",
        [ quick "renders" test_table_renders; quick "cell overflow" test_table_too_many_cells ]
      );
    ]
