(* The elements live in [elts.(0 .. len-1)] in REVERSE logical order:
   the logical head is [elts.(len - 1)], so a logical prepend is an
   O(1) append at the end of the array. Keeping the logical order
   list-compatible matters twice over: member order feeds Fisher-Yates
   shuffles (so it determines seeded draw results) and is emitted
   verbatim in Poll_sampled trace events. *)
type t = { mutable elts : int array; mutable len : int }

(* The slot of [x] in [elts.(lo .. i)], or -1. Membership scans the few
   dozen members instead of keeping an index sized by the largest
   identity ever held; the loop is top-level so a probe allocates
   nothing. *)
let rec slot_in (elts : int array) (x : int) ~lo i =
  if i < lo then -1 else if elts.(i) = x then i else slot_in elts x ~lo (i - 1)

let slot t x = slot_in t.elts x ~lo:0 (t.len - 1)

let of_ordered_list xs =
  let n = List.length xs in
  let elts = Array.make (max 8 n) 0 in
  let i = ref (n - 1) in
  List.iter
    (fun x ->
      (* Members placed so far sit above [!i]. *)
      if slot_in elts x ~lo:(!i + 1) (n - 1) >= 0 then
        invalid_arg "Id_set.of_ordered_list: duplicate";
      elts.(!i) <- x;
      decr i)
    xs;
  { elts; len = n }

let size t = t.len
let mem t x = slot t x >= 0

let prepend t x =
  if slot t x < 0 then begin
    if t.len = Array.length t.elts then begin
      let elts = Array.make (2 * t.len) 0 in
      Array.blit t.elts 0 elts 0 t.len;
      t.elts <- elts
    end;
    t.elts.(t.len) <- x;
    t.len <- t.len + 1
  end

let remove t x =
  let i = slot t x in
  if i >= 0 then begin
    Array.blit t.elts (i + 1) t.elts i (t.len - i - 1);
    t.len <- t.len - 1
  end

let to_list t =
  let acc = ref [] in
  for i = 0 to t.len - 1 do
    acc := t.elts.(i) :: !acc
  done;
  !acc

let to_ordered_array t = Array.init t.len (fun i -> t.elts.(t.len - 1 - i))

let filtered_ordered_array t ~keep =
  let buf = Array.make (max 1 t.len) 0 in
  let k = ref 0 in
  for i = t.len - 1 downto 0 do
    let x = t.elts.(i) in
    if keep x then begin
      buf.(!k) <- x;
      incr k
    end
  done;
  Array.sub buf 0 !k
