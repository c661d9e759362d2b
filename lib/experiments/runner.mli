(** Parallel execution of independent simulation jobs on a persistent
    domain pool.

    The paper's evaluation is a grid of independent randomized runs —
    seeds × attack parameters × configurations — and every simulation
    holds all of its mutable state (engine, RNG streams, metrics, trace
    bus) inside its own {!Lockss.Population.t}. Jobs therefore share
    nothing and can run on separate OCaml 5 domains.

    Worker domains are spawned once, on the first parallel {!map} or
    {!both}, and parked between batches; every later call reuses them
    (an [at_exit] hook tears the pool down). Helpers keep a persistent
    slot id — 1, 2, ... with 0 always the calling domain — so profiler
    attribution is stable across the whole run. Each helper enlarges its
    minor heap to 2^20 words once at spawn because simulation batches
    allocate fast enough to thrash the default nursery.

    Determinism contract: {!map} applies [f] to each element exactly
    once, in any order and on any domain, and returns the results in
    submission order. Because each job derives all of its randomness
    from its own seed and touches no cross-job state, parallel output is
    byte-identical to serial output for the same job list — whatever the
    worker count, chunking, or pool reuse history. A job's exception is
    re-raised in the caller (lowest job index wins when several jobs
    fail).

    Nesting is safe and cheap: a {!map} issued from inside a worker runs
    serially on that worker, so sweeps that parallelise over grid points
    may call {!Scenario.sweep} (which itself maps over seeds) without
    queueing pool batches recursively. *)

(** [default_jobs ()] is the [LOCKSS_JOBS] environment variable when set
    to a positive integer, otherwise [Domain.recommended_domain_count
    ()]. *)
val default_jobs : unit -> int

(** [set_jobs n] overrides the process-wide worker count: [n >= 1] forces
    exactly [n] workers ([1] = serial), [0] restores the
    {!default_jobs} heuristic. Raises [Invalid_argument] on negative
    [n]. This is a performance knob only — it never changes results.
    Already-spawned pool helpers beyond the new count stay parked, not
    killed; they simply never join a batch that needs fewer. *)
val set_jobs : int -> unit

(** [jobs ()] is the worker count {!map} will use: the {!set_jobs}
    override when non-zero, else {!default_jobs}. *)
val jobs : unit -> int

(** [set_profiler (Some p)] attaches a run-wide profiler: each parallel
    {!map} (and {!both}) records every participating slot's busy
    wall-clock seconds, thread-CPU seconds, completed task count and
    per-domain GC activity (minor words allocated, minor/major
    collections) into [p] via {!Obs.Profiler.note_domain}, keyed by pool
    slot (0 = the calling domain). Workers never touch the profiler
    themselves — effort is collected per slot and folded in by the
    calling domain after the batch barrier, one batch at a time, so
    coordinating domains that map concurrently share one profiler
    safely. [set_profiler None] detaches. *)
val set_profiler : Obs.Profiler.t option -> unit

(** [map f items] applies [f] to every element of [items] on up to
    {!val-jobs}[ ()] domains (clamped to the job count) and returns the
    results in input order. Work is claimed in chunks of
    [max 1 (n / (jobs * 4))] indices per atomic cursor bump — a long
    chunk never blocks the rest of the grid because idle workers drain
    the remaining chunks. *)
val map : ('a -> 'b) -> 'a list -> 'b list

(** [both f g] runs the two thunks concurrently when {!val-jobs}[ () >
    1] and not already inside a worker: the caller runs [f] as pool slot
    0 while a pool helper claims [g]; if no helper wakes before [f]
    finishes, the caller runs [g] itself — so [both] never waits on a
    domain that is not making progress. Returns both results; [g]'s
    exception takes precedence over [f]'s. *)
val both : (unit -> 'a) -> (unit -> 'b) -> 'a * 'b
