(** Periodic metrics snapshots, turning a run into a time series.

    The paper's evaluation is all time-series behaviour — access failure,
    friction and cost evolving as attacks start and stop — but
    {!Metrics.finalize} only yields end-of-run scalars. A sampler
    piggybacks on the simulation engine: every [interval] simulated
    seconds it snapshots the metrics collector and hands the
    {!Metrics.sample} to a callback, typically {!series_writer} appending
    rows to a CSV {!Obs.Series}. *)

type t

(** [attach ~engine ~metrics ~interval f] schedules the first snapshot at
    [now + interval] and keeps sampling every [interval] seconds until
    {!stop} (or until the engine stops running events). [interval] must
    be positive. *)
val attach :
  engine:Narses.Engine.t -> metrics:Metrics.t -> interval:float -> (Metrics.sample -> unit) -> t

(** [stop t] cancels the pending snapshot; no further samples fire. *)
val stop : t -> unit

(** [ticks t] counts snapshots taken so far. *)
val ticks : t -> int

(** Column names produced by {!series_writer}, in order. Counter columns
    are per-interval deltas (rates over the sampling window); the damage
    columns are instantaneous; [repair_underflows] is cumulative. *)
val columns : string list

(** [series_writer ~seed series] is a sample callback that appends one
    row per snapshot to [series] (whose columns must be {!columns}),
    computing per-interval deltas against the previous snapshot. [seed]
    labels the run so several runs can append to one file. *)
val series_writer : seed:int -> Obs.Series.t -> Metrics.sample -> unit
