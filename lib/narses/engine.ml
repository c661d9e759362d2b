(* The event loop's hot path is [schedule] + [step]: every simulated
   message, timer and sample goes through both once. The queue is a
   {!Repro_prelude.Tsheap} whose lanes are all unboxed — (time, seq,
   slot) — so a sift comparison is two scalar reads and a sift move is
   three plain stores, with no write barrier. The action closures live
   in a slot table beside the queue: [schedule] writes the caller's
   closure into a free slot once and the slot is cleared when its event
   fires or is cancelled. The handle is an immediate int packing the
   event's seq and slot, so [schedule] allocates nothing of its own (the
   caller's action closure already exists). *)

module Tsheap = Repro_prelude.Tsheap

type event_id = int
type cls = int

(* Handle packing: [seq lsl slot_bits lor slot]. [slot_bits] bounds the
   number of simultaneously live events, [max_seq] the number of
   schedules over an engine's lifetime; both overflows raise. *)
let slot_bits = 24
let slot_mask = (1 lsl slot_bits) - 1
let max_seq = max_int lsr slot_bits

(* Class names are registered once, globally, at module-initialisation
   time (timer owners register their class in a top-level [let]); each
   engine keeps an int array of live counts indexed by class id, so the
   per-event bookkeeping is one array index. Class 0 is the implicit
   "unlabeled" class for callers that pass no [?cls].

   The first [create] freezes the registry: from then on the name table
   is immutable and [register_class] raises, so engines on any domain
   read a table nobody writes, and every engine's counter array covers
   every class. The open/frozen switch and each registration are one
   compare-and-set on the same atomic, so a registration racing the
   first [create] either lands before the freeze or raises. *)
type registry = Open of string array | Frozen of string array

let registry = Atomic.make (Open [| "unlabeled" |])

let rec register_class name =
  match Atomic.get registry with
  | Frozen _ ->
    invalid_arg
      (Printf.sprintf
         "Engine.register_class %S: an engine already exists (register classes \
          at module initialisation)"
         name)
  | Open names as seen ->
    let id = Array.length names in
    if Atomic.compare_and_set registry seen (Open (Array.append names [| name |]))
    then id
    else register_class name

let rec freeze_registry () =
  match Atomic.get registry with
  | Frozen names -> names
  | Open names as seen ->
    if Atomic.compare_and_set registry seen (Frozen names) then names
    else freeze_registry ()

type t = {
  mutable clock : float;
  mutable next_seq : int;
  mutable executed : int;
  mutable cancelled : int;
  mutable live_count : int;
  mutable max_heap_depth : int;
  class_names : string array;
  live_by_cls : int array;
  queue : Tsheap.t;
  (* Slot table: slot [s] holds a live event iff [slot_seq.(s)] is its
     seq, which the queue entry carries too; a queue entry whose seq no
     longer matches its slot's is dead (fired, cancelled, or the slot was
     since reused) and is dropped when it surfaces. Free slots have
     [slot_seq] = -1 and sit on the [free] stack. *)
  mutable actions : (unit -> unit) array;
  mutable slot_cls : int array;
  mutable slot_seq : int array;
  mutable free : int array;
  mutable nfree : int;
  mutable nslots : int;  (* slots ever handed out *)
}

let create () =
  let class_names = freeze_registry () in
  {
    clock = 0.;
    next_seq = 0;
    executed = 0;
    cancelled = 0;
    live_count = 0;
    max_heap_depth = 0;
    class_names;
    live_by_cls = Array.make (Array.length class_names) 0;
    queue = Tsheap.create ();
    actions = [||];
    slot_cls = [||];
    slot_seq = [||];
    free = [||];
    nfree = 0;
    nslots = 0;
  }

let now t = t.clock

let grow_slots t =
  let cap = Array.length t.slot_seq in
  if cap > slot_mask then
    failwith
      (Printf.sprintf "Engine.schedule: more than %d simultaneously live events"
         (slot_mask + 1));
  let ncap = min (slot_mask + 1) (if cap = 0 then 16 else 2 * cap) in
  let extend a fill =
    let b = Array.make ncap fill in
    Array.blit a 0 b 0 cap;
    b
  in
  t.actions <- extend t.actions ignore;
  t.slot_cls <- extend t.slot_cls 0;
  t.slot_seq <- extend t.slot_seq (-1);
  t.free <- extend t.free 0

let[@inline] take_slot t =
  if t.nfree > 0 then begin
    t.nfree <- t.nfree - 1;
    Array.unsafe_get t.free t.nfree
  end
  else begin
    if t.nslots = Array.length t.slot_seq then grow_slots t;
    let slot = t.nslots in
    t.nslots <- slot + 1;
    slot
  end

(* Retire a live slot: clear its action so the closure is not retained,
   return it to the free stack and drop its live counts. *)
let[@inline] release t slot =
  Array.unsafe_set t.actions slot ignore;
  Array.unsafe_set t.slot_seq slot (-1);
  Array.unsafe_set t.free t.nfree slot;
  t.nfree <- t.nfree + 1;
  t.live_count <- t.live_count - 1;
  let cls = Array.unsafe_get t.slot_cls slot in
  t.live_by_cls.(cls) <- t.live_by_cls.(cls) - 1

let schedule ?(cls = 0) t ~at f =
  (* [not (at >= clock)] rather than [at < clock]: it also rejects NaN,
     which would corrupt the heap's strict ordering. *)
  if not (at >= t.clock) then
    invalid_arg
      (Printf.sprintf "Engine.schedule: at=%g precedes now=%g" at t.clock);
  let seq = t.next_seq in
  if seq > max_seq then
    failwith (Printf.sprintf "Engine.schedule: more than %d events scheduled" max_seq);
  let slot = take_slot t in
  t.next_seq <- seq + 1;
  t.live_by_cls.(cls) <- t.live_by_cls.(cls) + 1;
  Array.unsafe_set t.actions slot f;
  Array.unsafe_set t.slot_cls slot cls;
  Array.unsafe_set t.slot_seq slot seq;
  t.live_count <- t.live_count + 1;
  Tsheap.add t.queue ~time:at ~seq slot;
  let depth = Tsheap.length t.queue in
  if depth > t.max_heap_depth then t.max_heap_depth <- depth;
  (seq lsl slot_bits) lor slot

let schedule_in ?cls t ~after f =
  if after < 0. then invalid_arg "Engine.schedule_in: negative delay";
  schedule ?cls t ~at:(t.clock +. after) f

(* The slot of [id] if it is still live in [t], else -1. *)
let[@inline] live_slot t id =
  let slot = id land slot_mask in
  if slot < t.nslots && Array.unsafe_get t.slot_seq slot = id lsr slot_bits then slot
  else -1

let cancel t id =
  let slot = live_slot t id in
  if slot >= 0 then begin
    release t slot;
    t.cancelled <- t.cancelled + 1
  end

let pending t = t.live_count
let is_live t id = live_slot t id >= 0

let live_by_class t =
  let out = ref [] in
  for cls = Array.length t.class_names - 1 downto 1 do
    out := (t.class_names.(cls), t.live_by_cls.(cls)) :: !out
  done;
  !out

(* The queue's minimum entry (the queue must be non-empty): its slot if
   that entry is live, else -1. *)
let[@inline] head_slot t =
  let slot = Tsheap.min_payload t.queue in
  if Array.unsafe_get t.slot_seq slot = Tsheap.min_seq t.queue then slot else -1

(* Fire the queue's minimum entry, which must be live in [slot] at
   [time]: shared by [step] and the [run_until] loop. [time] is the one
   read of the head's time per event, so the clock costs one float box. *)
let[@inline] fire t slot time =
  let action = Array.unsafe_get t.actions slot in
  release t slot;
  t.clock <- time;
  t.executed <- t.executed + 1;
  Tsheap.drop_min t.queue;
  action ()

let step t =
  if Tsheap.is_empty t.queue then false
  else begin
    let slot = head_slot t in
    if slot >= 0 then fire t slot (Tsheap.min_time t.queue)
    else Tsheap.drop_min t.queue;
    true
  end

exception Event_limit_exceeded of string

let limit_exceeded t budget =
  raise
    (Event_limit_exceeded
       (Printf.sprintf
          "Engine: event budget %d exhausted at t=%g with %d events pending \
           (likely a self-scheduling loop)"
          budget t.clock t.live_count))

(* An absent budget is [max_int]: the check never fires. *)
let run_until ?(max_events = max_int) t ~limit =
  let queue = t.queue in
  let start = t.executed in
  (* The budget counts live executions only. Cancelled heads are drained
     for free *before* the budget check, so an exactly-exhausted budget
     whose remaining in-horizon events are all dead finishes normally
     instead of tripping — the check fires only when a live event within
     [limit] is actually about to run. *)
  let continue_ = ref true in
  while !continue_ do
    if Tsheap.is_empty queue then continue_ := false
    else begin
      let slot = head_slot t in
      if slot < 0 then Tsheap.drop_min queue
      else begin
        let time = Tsheap.min_time queue in
        if time > limit then
          (* Leave future events queued; just advance the clock. *)
          continue_ := false
        else begin
          if t.executed - start >= max_events then limit_exceeded t max_events;
          fire t slot time
        end
      end
    end
  done;
  if limit > t.clock then t.clock <- limit

let run ?(max_events = max_int) t =
  let start = t.executed in
  let continue_ = ref true in
  while !continue_ do
    if t.executed - start >= max_events && t.live_count > 0 then
      limit_exceeded t max_events;
    continue_ := step t
  done

let executed t = t.executed

type stats = {
  executed : int;
  scheduled : int;
  cancelled : int;
  pending : int;
  max_heap_depth : int;
}

let stats (t : t) =
  {
    executed = t.executed;
    scheduled = t.next_seq;
    cancelled = t.cancelled;
    pending = t.live_count;
    max_heap_depth = t.max_heap_depth;
  }
