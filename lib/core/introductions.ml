(* Pairs are packed oldest first into one int array, the introducer of
   pair [i] at [2i] and its introducee at [2i + 1], so every search is a
   scan of int compares and a removal is one compacting pass. The array
   grows on demand up to the cap. *)
type t = {
  max_outstanding : int;
  mutable pairs : int array;
  mutable count : int;
}

let create ~max_outstanding =
  if max_outstanding < 0 then invalid_arg "Introductions.create: negative cap";
  { max_outstanding; pairs = [||]; count = 0 }

let outstanding t = t.count

let rec holds pairs count (introducer : int) (introducee : int) i =
  i < count
  && ((pairs.(2 * i) = introducer && pairs.((2 * i) + 1) = introducee)
     || holds pairs count introducer introducee (i + 1))

let add t ~introducer ~introducee =
  if t.count < t.max_outstanding && not (holds t.pairs t.count introducer introducee 0)
  then begin
    if 2 * t.count = Array.length t.pairs then begin
      let bigger = Array.make (2 * min t.max_outstanding (max 4 (2 * t.count))) 0 in
      Array.blit t.pairs 0 bigger 0 (2 * t.count);
      t.pairs <- bigger
    end;
    t.pairs.(2 * t.count) <- introducer;
    t.pairs.((2 * t.count) + 1) <- introducee;
    t.count <- t.count + 1
  end

(* Keeps, in order, the pairs [keep] holds for. *)
let retain t keep =
  let kept = ref 0 in
  for i = 0 to t.count - 1 do
    let a = t.pairs.(2 * i) and b = t.pairs.((2 * i) + 1) in
    if keep a b then begin
      t.pairs.(2 * !kept) <- a;
      t.pairs.((2 * !kept) + 1) <- b;
      incr kept
    end
  done;
  t.count <- !kept

(* The index of the oldest pair introducing [introducee], or -1. *)
let rec oldest pairs count (introducee : int) i =
  if i = count then -1
  else if pairs.((2 * i) + 1) = introducee then i
  else oldest pairs count introducee (i + 1)

let consume t ~introducee =
  match oldest t.pairs t.count introducee 0 with
  | -1 -> false
  | i ->
    let introducer = t.pairs.(2 * i) in
    retain t (fun a b -> a <> introducer && b <> introducee);
    true

let forget_introducer t introducer = retain t (fun a _ -> a <> introducer)
