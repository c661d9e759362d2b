(* One entry per encountered peer, in three lanes aligned by index:
   [ids.(0 .. n-1)] ascending, with each peer's last explicit grade in
   [grades] and the time it was set in [updated]. A lookup is a binary
   search over [ids]; insertion on first encounter and removal on punish
   shift the lanes' tails. [entries] and [good_ids] are linear scans in
   id order. No lane holds a pointer, so no write needs a barrier. *)
type t = {
  decay_period : float;
  mutable ids : Ids.Identity.t array;
  mutable grades : Grade.t array;
  mutable updated : float array;
  mutable n : int;
}

let initial_capacity = 16

let create ~decay_period =
  if decay_period <= 0. then invalid_arg "Known_peers.create: decay period";
  {
    decay_period;
    ids = Array.make initial_capacity 0;
    grades = Array.make initial_capacity Grade.Debt;
    updated = Array.make initial_capacity 0.;
    n = 0;
  }

(* Smallest index whose id is >= [id] (= [t.n] when all are smaller). *)
let lower_bound t id =
  let lo = ref 0 and hi = ref t.n in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if t.ids.(mid) < id then lo := mid + 1 else hi := mid
  done;
  !lo

(* Index of [id], or -1 for a peer never encountered. *)
let find t id =
  let i = lower_bound t id in
  if i < t.n && t.ids.(i) = id then i else -1

let grow t =
  let cap = 2 * Array.length t.ids in
  let extend a fill =
    let b = Array.make cap fill in
    Array.blit a 0 b 0 t.n;
    b
  in
  t.ids <- extend t.ids 0;
  t.grades <- extend t.grades Grade.Debt;
  t.updated <- extend t.updated 0.

(* Insert a new entry at index [i] (its [lower_bound]). *)
let insert_at t i id grade ~now =
  if t.n = Array.length t.ids then grow t;
  let tail = t.n - i in
  Array.blit t.ids i t.ids (i + 1) tail;
  Array.blit t.grades i t.grades (i + 1) tail;
  Array.blit t.updated i t.updated (i + 1) tail;
  t.ids.(i) <- id;
  t.grades.(i) <- grade;
  t.updated.(i) <- now;
  t.n <- t.n + 1

(* Any grade reaches the absorbing Debt state in at most two decay steps,
   so steps beyond this bound are equivalent; clamping keeps the
   [int_of_float] away from its unspecified huge-float behaviour when an
   entry has been untouched for a very long (or infinite) gap. *)
let max_decay_steps = 8

let decay_steps t i ~now =
  let updated = t.updated.(i) in
  if now <= updated then 0
  else begin
    let raw = (now -. updated) /. t.decay_period in
    if raw >= float_of_int max_decay_steps then max_decay_steps
    else int_of_float raw
  end

let effective t i ~now = Grade.decayed t.grades.(i) ~steps:(decay_steps t i ~now)

let grade t ~now identity =
  let i = find t identity in
  if i < 0 then None else Some (effective t i ~now)

let update t ~now identity f ~if_unknown =
  let i = lower_bound t identity in
  if i < t.n && t.ids.(i) = identity then begin
    t.grades.(i) <- f (effective t i ~now);
    t.updated.(i) <- now
  end
  else insert_at t i identity if_unknown ~now

let raise_grade t ~now identity =
  update t ~now identity Grade.raise_grade ~if_unknown:Grade.Even

let lower t ~now identity = update t ~now identity Grade.lower ~if_unknown:Grade.Debt

let punish t ~now:_ identity =
  let i = find t identity in
  if i >= 0 then begin
    let tail = t.n - i - 1 in
    Array.blit t.ids (i + 1) t.ids i tail;
    Array.blit t.grades (i + 1) t.grades i tail;
    Array.blit t.updated (i + 1) t.updated i tail;
    t.n <- t.n - 1
  end

let set t ~now identity grade = update t ~now identity (fun _ -> grade) ~if_unknown:grade

let known t identity = find t identity >= 0

let entries t ~now =
  let acc = ref [] in
  for i = t.n - 1 downto 0 do
    acc := (t.ids.(i), effective t i ~now) :: !acc
  done;
  !acc

let good_ids t ~now ~excluding =
  let acc = ref [] in
  for i = t.n - 1 downto 0 do
    let id = t.ids.(i) in
    if not (Ids.Identity.equal id excluding) then begin
      match effective t i ~now with
      | Grade.Debt -> ()
      | Grade.Even | Grade.Credit -> acc := id :: !acc
    end
  done;
  !acc
