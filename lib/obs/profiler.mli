(** Run-wide profiler: phase wall-clock, GC/allocation counters and
    per-domain utilisation, folded into a {!Registry} so one artifact
    answers "where did this run spend its time".

    The profiler is deliberately pull-based and cheap: {!phase} wraps a
    stage in two clock reads, {!sample_gc} is one [Gc.quick_stat], and
    the parallel runner calls {!note_domain} once per domain per [map].
    Nothing here touches simulated time or the RNG, so attaching a
    profiler never perturbs results. *)

type t

(** [create ?registry ?clock ()] — [registry] defaults to a fresh one;
    [clock] (seconds, monotonic preferred) defaults to
    {!Repro_prelude.Monotonic.now_s} and exists so tests can drive time
    by hand. *)
val create : ?registry:Registry.t -> ?clock:(unit -> float) -> unit -> t

val registry : t -> Registry.t

(** [phase t name f] runs [f] and adds its wall-clock to phase [name]
    (accumulating across calls), exception-safely. Also mirrored to the
    registry gauge [profile.phase.<name>_s]. *)
val phase : t -> string -> (unit -> 'a) -> 'a

(** [add_phase_time t name seconds] credits time measured externally. *)
val add_phase_time : t -> string -> float -> unit

(** Accumulated seconds for a phase; [0.] if never entered. *)
val phase_seconds : t -> string -> float

(** [sample_gc t] snapshots [Gc.quick_stat] into registry gauges
    ([gc.minor_words], [gc.major_words], [gc.promoted_words],
    [gc.allocated_words], [gc.heap_words], [gc.top_heap_words]) and
    counters ([gc.minor_collections], [gc.major_collections],
    [gc.compactions] — set to the cumulative runtime values). *)
val sample_gc : t -> unit

(** [note_domain t ~domain ~busy_s ~tasks] accumulates utilisation for
    one worker slot (0 is the calling domain; helpers keep their pool
    slot for life, so a slot's history is one physical domain's). The
    optional lanes record what the slot's GC did while busy: [cpu_s] is
    thread CPU seconds (wall minus cpu ≈ time lost to waiting and to
    stop-the-world collection), [minor_words] is words allocated in the
    slot's minor heap and the collection counts are the slot's share of
    minor/major cycles. All default to zero for callers that only track
    wall-clock. Call from the coordinating domain only — the profiler is
    not thread-safe. *)
val note_domain :
  t ->
  domain:int ->
  ?cpu_s:float ->
  ?minor_words:float ->
  ?minor_collections:int ->
  ?major_collections:int ->
  busy_s:float ->
  tasks:int ->
  unit ->
  unit

type domain_stat = {
  domain : int;
  busy_s : float;
  cpu_s : float;
  tasks : int;
  minor_words : float;
  minor_collections : int;
  major_collections : int;
}

(** Sorted by domain id. *)
val domain_stats : t -> domain_stat list

(** Phases in first-entered order, domains, last GC sample and the full
    registry snapshot, as one JSON object. *)
val snapshot_json : t -> Json.t

val pp : Format.formatter -> t -> unit
