(* Parallel map over independent simulation jobs, on a persistent
   domain pool.

   The previous runner spawned [k - 1] fresh domains on *every* [map]
   and tore them down at the join. A sweep that maps a few dozen times
   paid domain spawn/teardown (and first-touch minor-heap setup) once
   per map; worse, each worker claimed a single job index per
   [Atomic.fetch_and_add], so short jobs turned the cursor into a
   contended hot word. Both costs are fixed structurally here:

   - Helpers are spawned once, on first parallel [map], and parked on a
     condition variable between batches. Every subsequent [map] and
     [both] reuses them; an [at_exit] hook shuts them down.
   - Workers claim *chunks* of [max 1 (n / (k * 4))] indices per cursor
     bump — at most ~4k cursor operations per map instead of n, while
     still leaving enough chunks for the tail to balance.
   - Each helper enlarges its minor heap to 2^20 words once at spawn
     (the simulation engine's hot path allocates closures at a rate
     that makes the default 256k-word nursery thrash).

   Determinism is unchanged: jobs are keyed by their index in the input
   list, workers write results into per-index slots, and the merge is an
   in-order array read, so output cannot depend on which slot ran what. *)

let env_jobs () =
  match Sys.getenv_opt "LOCKSS_JOBS" with
  | None -> None
  | Some s ->
    (match int_of_string_opt (String.trim s) with
    | Some n when n >= 1 -> Some n
    | Some _ | None -> None)

let default_jobs () =
  match env_jobs () with Some n -> n | None -> Domain.recommended_domain_count ()

(* 0 = no override (use the heuristic). An [Atomic.t] rather than a
   [ref] so a worker reading it mid-run is well-defined. *)
let override = Atomic.make 0

let set_jobs n =
  if n < 0 then invalid_arg "Runner.set_jobs: negative job count";
  Atomic.set override n

let jobs () =
  let n = Atomic.get override in
  if n > 0 then n else default_jobs ()

(* Workers flag themselves so nested maps degrade to serial execution
   instead of queueing batches recursively (a helper waiting for its own
   sub-batch would deadlock the pool). *)
let in_worker : bool Domain.DLS.key = Domain.DLS.new_key (fun () -> false)

(* Optional run-wide profiler. Workers never touch it — they report
   effort through a per-slot cell, and [submit] folds those into the
   profiler after the batch, still holding [submit_lock], so two
   coordinating domains never update it at once. *)
let profiler : Obs.Profiler.t option Atomic.t = Atomic.make None
let set_profiler p = Atomic.set profiler p

(* ---- Per-slot effort accounting ------------------------------------ *)

(* Written only by the owning slot's domain while it works a batch; read
   by the calling domain after the batch barrier (the pool mutex
   release/acquire pair orders the writes before the reads). *)
type effort = {
  mutable busy_s : float;
  mutable cpu_s : float;
  mutable tasks : int;
  mutable minor_words : float;
  mutable minor_collections : int;
  mutable major_collections : int;
  mutable touched : bool;
}

let fresh_effort () =
  {
    busy_s = 0.;
    cpu_s = 0.;
    tasks = 0;
    minor_words = 0.;
    minor_collections = 0;
    major_collections = 0;
    touched = false;
  }

(* [measured st f] runs [f ()] and charges its wall, thread-CPU and
   per-domain GC activity to [st]. [Gc.minor_words] and the collection
   counters in [Gc.quick_stat] are domain-local in OCaml 5, so on a
   helper this really is that helper's allocation, not the process'. *)
let measured st f =
  st.touched <- true;
  let t0 = Repro_prelude.Monotonic.now_s () in
  let c0 = Repro_prelude.Monotonic.thread_cpu_s () in
  let mw0 = Gc.minor_words () in
  let g0 = Gc.quick_stat () in
  let finish () =
    st.busy_s <- st.busy_s +. Repro_prelude.Monotonic.elapsed_s t0;
    st.cpu_s <-
      st.cpu_s
      +. Float.max 0. (Repro_prelude.Monotonic.thread_cpu_s () -. c0);
    st.minor_words <- st.minor_words +. (Gc.minor_words () -. mw0);
    let g1 = Gc.quick_stat () in
    st.minor_collections <-
      st.minor_collections + (g1.Gc.minor_collections - g0.Gc.minor_collections);
    st.major_collections <-
      st.major_collections + (g1.Gc.major_collections - g0.Gc.major_collections)
  in
  Fun.protect ~finally:finish f

let note_efforts efforts =
  match Atomic.get profiler with
  | None -> ()
  | Some p ->
    Array.iteri
      (fun slot st ->
        if st.touched then
          Obs.Profiler.note_domain p ~domain:slot ~cpu_s:st.cpu_s
            ~minor_words:st.minor_words
            ~minor_collections:st.minor_collections
            ~major_collections:st.major_collections ~busy_s:st.busy_s
            ~tasks:st.tasks ())
      efforts

(* ---- The pool ------------------------------------------------------ *)

(* One process-wide pool. Helpers hold a persistent slot id (1, 2, ...;
   slot 0 is always the calling domain) for their whole life, so
   profiler slot numbers are stable across batches and [both] can never
   collide with [map] numbering. Batch protocol, all under [mutex]:

     publish:  ticket++, work/needed set, joined = finished = 0,
               closed = false, broadcast [work_available]
     join:     a parked helper whose [last] served ticket differs may
               join while [not closed && joined < needed]; it bumps
               [joined], remembers the ticket and runs [work slot]
     close:    after the caller finishes its own share it sets [closed]
               (late helpers now skip the ticket) and waits on
               [batch_done] until [finished = joined]
     retire:   each helper bumps [finished] when done and signals
               [batch_done] when it was the last one in a closed batch

   [submit_lock] serialises whole batches, so a second coordinating
   domain blocks rather than corrupting the protocol state. *)
type pool = {
  mutex : Mutex.t;
  work_available : Condition.t;
  batch_done : Condition.t;
  mutable ticket : int;
  mutable work : (int -> unit) option;
  mutable needed : int;
  mutable joined : int;
  mutable finished : int;
  mutable closed : bool;
  mutable shutdown : bool;
  mutable helpers : unit Domain.t list;
  mutable capacity : int;
}

let pool =
  {
    mutex = Mutex.create ();
    work_available = Condition.create ();
    batch_done = Condition.create ();
    ticket = 0;
    work = None;
    needed = 0;
    joined = 0;
    finished = 0;
    closed = false;
    shutdown = false;
    helpers = [];
    capacity = 0;
  }

let submit_lock = Mutex.create ()

(* Grow the nursery once per helper: parallel simulation batches
   allocate fast enough that the 256k-word default causes a minor
   collection every few simulated seconds per domain. *)
let gc_tune () = Gc.set { (Gc.get ()) with Gc.minor_heap_size = 1 lsl 20 }

let helper_body slot =
  Domain.DLS.set in_worker true;
  gc_tune ();
  let last = ref 0 in
  let running = ref true in
  while !running do
    Mutex.lock pool.mutex;
    let job = ref None in
    while !job = None && not pool.shutdown do
      if pool.ticket <> !last then
        if (not pool.closed) && pool.joined < pool.needed then begin
          pool.joined <- pool.joined + 1;
          last := pool.ticket;
          job := pool.work
        end
        else
          (* Batch already closed or fully staffed: never joinable again,
             mark it served so we park instead of spinning. *)
          last := pool.ticket;
      if !job = None && not pool.shutdown then
        Condition.wait pool.work_available pool.mutex
    done;
    (match !job with
    | None ->
      (* Shutdown. *)
      running := false;
      Mutex.unlock pool.mutex
    | Some work ->
      Mutex.unlock pool.mutex;
      (* Work functions catch job exceptions themselves; the wrapper only
         guards the protocol against a bug escaping, so [finished] can
         never be missed and the caller never hangs. *)
      (try work slot with _ -> ());
      Mutex.lock pool.mutex;
      pool.finished <- pool.finished + 1;
      if pool.closed && pool.finished >= pool.joined then
        Condition.broadcast pool.batch_done;
      Mutex.unlock pool.mutex)
  done

let teardown () =
  Mutex.lock pool.mutex;
  pool.shutdown <- true;
  Condition.broadcast pool.work_available;
  Mutex.unlock pool.mutex;
  List.iter Domain.join pool.helpers;
  pool.helpers <- [];
  pool.capacity <- 0

let teardown_registered = ref false

(* Called under [submit_lock]. *)
let ensure_capacity wanted =
  if not !teardown_registered then begin
    teardown_registered := true;
    at_exit teardown
  end;
  while pool.capacity < wanted do
    let slot = pool.capacity + 1 in
    pool.helpers <- Domain.spawn (fun () -> helper_body slot) :: pool.helpers;
    pool.capacity <- slot
  done

(* [submit ~helpers mk] runs one batch: ensures [helpers] pool slots
   exist, lets [mk efforts] build the work function over one effort
   cell per slot (sized to the pool's current slot count, which only
   grows), publishes it, runs the caller's share inline as slot 0,
   waits for every joined helper to retire and folds the efforts into
   the profiler. *)
let submit ~helpers mk =
  Mutex.protect submit_lock @@ fun () ->
  ensure_capacity helpers;
  let efforts = Array.init (pool.capacity + 1) (fun _ -> fresh_effort ()) in
  let work = mk efforts in
  Mutex.lock pool.mutex;
  pool.ticket <- pool.ticket + 1;
  pool.work <- Some work;
  pool.needed <- helpers;
  pool.joined <- 0;
  pool.finished <- 0;
  pool.closed <- false;
  Condition.broadcast pool.work_available;
  Mutex.unlock pool.mutex;
  Domain.DLS.set in_worker true;
  Fun.protect
    ~finally:(fun () ->
      Domain.DLS.set in_worker false;
      Mutex.lock pool.mutex;
      pool.closed <- true;
      while pool.finished < pool.joined do
        Condition.wait pool.batch_done pool.mutex
      done;
      pool.work <- None;
      Mutex.unlock pool.mutex)
    (fun () -> work 0);
  note_efforts efforts

(* ---- map ----------------------------------------------------------- *)

type 'b slot = Done of 'b | Failed of exn * Printexc.raw_backtrace | Pending

let map f items =
  let items = Array.of_list items in
  let n = Array.length items in
  let k = min (jobs ()) n in
  if n = 0 then []
  else if k <= 1 || Domain.DLS.get in_worker then
    Array.to_list (Array.map f items)
  else begin
    let results = Array.make n Pending in
    let cursor = Atomic.make 0 in
    (* ~4 chunks per worker: few enough cursor bumps to keep the shared
       word cold, enough slack for a slow chunk to be absorbed by the
       others finishing early. *)
    let chunk = max 1 (n / (k * 4)) in
    submit ~helpers:(k - 1) (fun st slot ->
        measured st.(slot) @@ fun () ->
        let claimed = ref (Atomic.fetch_and_add cursor chunk) in
        while !claimed < n do
          let stop = min n (!claimed + chunk) in
          for i = !claimed to stop - 1 do
            results.(i) <-
              (try Done (f items.(i))
               with e -> Failed (e, Printexc.get_raw_backtrace ()))
          done;
          st.(slot).tasks <- st.(slot).tasks + (stop - !claimed);
          claimed := Atomic.fetch_and_add cursor chunk
        done);
    Array.to_list
      (Array.map
         (function
           | Done v -> v
           | Failed (e, bt) -> Printexc.raise_with_backtrace e bt
           | Pending -> assert false)
         results)
  end

(* ---- both ---------------------------------------------------------- *)

let both f g =
  if jobs () <= 1 || Domain.DLS.get in_worker then
    let a = f () in
    let b = g () in
    (a, b)
  else begin
    let a_res = ref None in
    let b_res = ref None in
    (* Whoever wins this claims [g]: a pool helper if one wakes in time,
       otherwise the caller itself right after [f] — so [both] makes
       progress even when every helper is busy elsewhere or the machine
       has one core, instead of blocking on a domain that may never be
       scheduled promptly. *)
    let g_claimed = Atomic.make false in
    submit ~helpers:1 (fun st ->
        let run_g slot =
          if Atomic.compare_and_set g_claimed false true then
            measured st.(slot) @@ fun () ->
            st.(slot).tasks <- st.(slot).tasks + 1;
            b_res :=
              Some
                (try Ok (g ())
                 with e -> Error (e, Printexc.get_raw_backtrace ()))
        in
        fun slot ->
          if slot = 0 then begin
            (measured st.(0) @@ fun () ->
             st.(0).tasks <- st.(0).tasks + 1;
             a_res :=
               Some
                 (try Ok (f ())
                  with e -> Error (e, Printexc.get_raw_backtrace ())));
            run_g 0
          end
          else run_g slot);
    (* [g]'s exception takes precedence over [f]'s, as it did when
       [Domain.join] re-raised it first. *)
    match !b_res with
    | Some (Error (e, bt)) -> Printexc.raise_with_backtrace e bt
    | _ -> (
      match (!a_res, !b_res) with
      | Some (Ok a), Some (Ok b) -> (a, b)
      | Some (Error (e, bt)), _ -> Printexc.raise_with_backtrace e bt
      | _ -> assert false)
  end
