(** Discrete-event simulation engine.

    A single-threaded event loop over a priority queue of timestamped
    callbacks. Events scheduled at equal times fire in scheduling order
    (FIFO), which keeps runs deterministic. This is the core of our
    Narses-equivalent substrate: the paper ran its experiments on Narses, a
    discrete-event simulator with a pluggable network model; {!Engine} plus
    {!Net} reproduce the model variant the paper selected. *)

type t

(** Handle to a scheduled event, usable with {!cancel} and {!is_live}
    on the engine that issued it. An immediate int packing the event's
    sequence number and its slot in the engine's action table: creating,
    storing and cancelling a handle allocates nothing. *)
type event_id = private int

(** An event class label for leak auditing: timer owners register a
    class once at module-initialisation time and tag their schedules
    with it, and the engine maintains a per-class live count for free.
    {!Check.Leak} cross-checks these counts against owner state at end
    of run. *)
type cls

(** [register_class name] allocates a fresh global class id. Call once
    per class, at module-initialisation time: the first {!create}
    freezes the registry (so every engine counts every class in one
    array sized at creation, and no domain ever writes the name table an
    engine reads), and a registration after that raises
    [Invalid_argument]. *)
val register_class : string -> cls

(** [create ()] is an engine at time [0.] with no pending events. The
    first call freezes the class registry (see {!register_class}). *)
val create : unit -> t

(** [now t] is the current simulated time in seconds. *)
val now : t -> float

(** [schedule ?cls t ~at f] runs [f ()] at absolute time [at], which must
    not precede [now t] (NaN is rejected — it would corrupt the queue's
    ordering). Returns a handle for cancellation. [cls]
    (default: an unlabeled class excluded from {!live_by_class}) tags
    the event for the per-class live counters. Allocates nothing beyond
    amortised growth of the queue and slot table. Raises [Failure] if
    the engine would exceed 2{^24} simultaneously live events or 2{^38}
    schedules in its lifetime (the handle packing's bounds), rather than
    wrapping. *)
val schedule : ?cls:cls -> t -> at:float -> (unit -> unit) -> event_id

(** [schedule_in ?cls t ~after f] runs [f ()] after [after] seconds
    ([>= 0]). *)
val schedule_in : ?cls:cls -> t -> after:float -> (unit -> unit) -> event_id

(** [cancel t id] prevents the event from firing if it has not fired yet;
    cancelling a fired or cancelled event is a no-op, also after the
    event's slot has been reused by a later schedule (the handle's
    sequence number no longer matches). Allocates nothing. *)
val cancel : t -> event_id -> unit

(** [pending t] is the number of live (uncancelled, unfired) events. *)
val pending : t -> int

(** [is_live t id] is [true] while the event has neither fired nor been
    cancelled — lets the leak audit check that a timer handle still held
    in protocol state is actually pending. *)
val is_live : t -> event_id -> bool

(** [live_by_class t] is the current live-event count for every
    registered class (in registration order), including zero counts;
    unlabeled events are not listed. *)
val live_by_class : t -> (string * int) list

(** [step t] processes the queue's earliest entry: fires it if it is
    live, discards it if it was cancelled. [false] when the queue is
    empty. One [step] therefore does not always fire an event. *)
val step : t -> bool

(** Raised by {!run} and {!run_until} when [max_events] executions have
    fired and live events remain; the message reports the budget, the
    simulated time reached and the pending count. *)
exception Event_limit_exceeded of string

(** [run_until ?max_events t ~limit] executes events in time order until
    the queue is empty or the next event is strictly after [limit]; the
    clock finishes at [limit] or at the last event time, whichever is
    later. With [max_events], raises {!Event_limit_exceeded} instead of
    looping forever when events keep scheduling same-time successors
    (cancelled events do not count against the budget). *)
val run_until : ?max_events:int -> t -> limit:float -> unit

(** [run ?max_events t] executes events until the queue is empty.
    Without [max_events] it diverges if events schedule unboundedly many
    successors; with it, {!Event_limit_exceeded} is raised instead. *)
val run : ?max_events:int -> t -> unit

(** [executed t] is the count of events that have fired, for tests and
    throughput benchmarks. *)
val executed : t -> int

(** Engine-level profiling counters, maintained for free as the run
    proceeds. [scheduled] counts every {!schedule} call (fired, pending
    or cancelled); [max_heap_depth] is the high-water mark of the event
    queue including not-yet-popped cancelled events, i.e. the engine's
    peak memory pressure. *)
type stats = {
  executed : int;
  scheduled : int;
  cancelled : int;
  pending : int;
  max_heap_depth : int;
}

val stats : t -> stats
