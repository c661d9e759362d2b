(* The splitmix64 counter lives in an 8-byte buffer rather than a
   [mutable int64] field: [Bytes.get/set_int64_ne] read and write it
   unboxed, so a draw that returns an [int] or [bool] allocates
   nothing. *)
type t = Bytes.t

let golden_gamma = 0x9E3779B97F4A7C15L

(* splitmix64: advance by a fixed gamma and scramble the counter. *)
let[@inline] next_raw t =
  let z = Int64.add (Bytes.get_int64_ne t 0) golden_gamma in
  Bytes.set_int64_ne t 0 z;
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let of_state state =
  let t = Bytes.create 8 in
  Bytes.set_int64_ne t 0 state;
  t

let create seed =
  let t = of_state (Int64.of_int seed) in
  (* Burn a few outputs so that small consecutive seeds diverge quickly. *)
  for _ = 1 to 4 do
    ignore (next_raw t)
  done;
  t

let split t = of_state (next_raw t)
let copy = Bytes.copy
let bits64 = next_raw

let int t bound =
  assert (bound > 0);
  let mask = Int64.shift_right_logical (next_raw t) 1 in
  Int64.to_int (Int64.rem mask (Int64.of_int bound))

let float t bound =
  assert (bound > 0.);
  let mantissa = Int64.to_float (Int64.shift_right_logical (next_raw t) 11) in
  mantissa /. 9007199254740992. *. bound

let bool t = Int64.logand (next_raw t) 1L = 1L

let bernoulli t p =
  if p <= 0. then false
  else if p >= 1. then true
  else float t 1.0 < p

let uniform t ~lo ~hi =
  assert (lo < hi);
  lo +. float t (hi -. lo)

let exponential t ~mean =
  assert (mean > 0.);
  let u = float t 1.0 in
  (* u is in [0,1); 1-u is in (0,1], so log is finite. *)
  -.mean *. log (1. -. u)

let pick t arr =
  assert (Array.length arr > 0);
  arr.(int t (Array.length arr))

let pick_list t xs =
  match xs with
  | [] -> invalid_arg "Rng.pick_list: empty list"
  | _ :: _ -> List.nth xs (int t (List.length xs))

(* [arr.(0) .. arr.(i)] consed onto [acc]; top level so that no closure
   is allocated per sample. *)
let rec prefix_list (arr : int array) i acc =
  if i < 0 then acc else prefix_list arr (i - 1) (Array.unsafe_get arr i :: acc)

(* Fisher-Yates over the WHOLE prefix regardless of [k], so the draw
   sequence depends only on [len]: one draw per position from [len-1]
   down to 1. Every caller samples identities or nodes, so the array is
   [int array] and a swap needs no write barrier. *)
let sample_prefix t k (arr : int array) ~len =
  if k < 0 then invalid_arg "Rng.sample_prefix: negative count";
  if len < 0 || len > Array.length arr then invalid_arg "Rng.sample_prefix: bad length";
  for i = len - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = Array.unsafe_get arr i in
    Array.unsafe_set arr i (Array.unsafe_get arr j);
    Array.unsafe_set arr j tmp
  done;
  prefix_list arr (min k len - 1) []

let shuffle t arr = ignore (sample_prefix t 0 arr ~len:(Array.length arr))
let sample_array t k arr = sample_prefix t k arr ~len:(Array.length arr)
let sample t k xs = sample_array t k (Array.of_list xs)
