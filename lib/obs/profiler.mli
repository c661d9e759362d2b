(** Run-wide profiler: phase wall-clock, GC/allocation counters and
    per-domain utilisation, so one artifact answers "where did this run
    spend its time".

    The profiler is deliberately pull-based and cheap: {!phase} wraps a
    stage in two clock reads, {!sample_gc} is one [Gc.quick_stat], and
    the parallel runner calls {!note_domain} once per domain per [map].
    Nothing here touches simulated time or the RNG, so attaching a
    profiler never perturbs results. *)

type t

(** [create ?clock ()] — [clock] (seconds, monotonic preferred)
    defaults to {!Repro_prelude.Monotonic.now_s} and exists so tests can
    drive time by hand. *)
val create : ?clock:(unit -> float) -> unit -> t

(** [phase t name f] runs [f] and adds its wall-clock to phase [name]
    (accumulating across calls), exception-safely. *)
val phase : t -> string -> (unit -> 'a) -> 'a

(** [add_phase_time t name seconds] credits time measured externally. *)
val add_phase_time : t -> string -> float -> unit

(** Accumulated seconds for a phase; [0.] if never entered. *)
val phase_seconds : t -> string -> float

(** [sample_gc t] snapshots [Gc.quick_stat] (cumulative runtime values)
    as the last GC sample: minor, major, promoted and allocated words,
    heap and top-heap words, minor and major collections, compactions. *)
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

(** Phases in first-entered order, domains and the last GC sample, as
    one JSON object: [{"phases"; "domains"; "gc"}]. *)
val snapshot_json : t -> Json.t

val pp : Format.formatter -> t -> unit
