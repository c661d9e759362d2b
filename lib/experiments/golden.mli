(** The paper's figure and table targets, and their capture as pinned
    golden baselines.

    {!figures} is the one table of reproduce targets ([fig2]..[fig8],
    [table1]): each entry renders its printed table, lists its metrics
    and, for the figures, writes its gnuplot files. {!capture} turns a
    target's sweep into an {!Obs.Baseline.t}: the scale fingerprint the
    sweep ran under plus one named metric per figure series point and
    headline aggregates of the paper's measures, each with a drift
    direction and tolerance. [pin-baseline] saves these documents;
    [diff-baseline] and [reproduce --check-baseline] recapture and
    compare.

    Sweeps are shared: fig3/4/5 read the same pipe-stoppage sweep and
    fig6/7/8 the same admission-flood sweep, forced at most once per
    {!type-sweeps} value — capturing every target costs four sweeps, not
    eight. *)

(** Shared lazy sweep results for one scale. *)
type sweeps

val sweeps : scale:Scenario.scale -> sweeps

type figure = {
  name : string;  (** the target name, e.g. [fig3] *)
  table : sweeps -> Repro_prelude.Table.t;  (** as [reproduce] prints it *)
  metrics : sweeps -> (Obs.Baseline.direction * string * float) list;
      (** the captured metrics: drift direction, name, value *)
  plot : (dir:string -> sweeps -> unit) option;
      (** writes the figure's [.dat]/[.gp] files into [dir]; a grid
          figure writes its two siblings over the same sweep too *)
}

(** Every target, in reproduce order. *)
val figures : figure list

(** The target names of {!figures}:
    [fig2 fig3 fig4 fig5 fig6 fig7 fig8 table1]. *)
val targets : string list

(** [capture_figure ?tolerance_pct sweeps ~scale figure] runs (or
    reuses) the figure's sweep and captures its baseline document.
    [tolerance_pct] overrides the per-metric drift allowance
    (default {!Obs.Baseline.default_tolerance_pct}). *)
val capture_figure :
  ?tolerance_pct:float -> sweeps -> scale:Scenario.scale -> figure -> Obs.Baseline.t

(** [capture ?tolerance_pct sweeps ~scale target] is {!capture_figure}
    on the figure named [target]; [Error] on an unknown name. *)
val capture :
  ?tolerance_pct:float ->
  sweeps ->
  scale:Scenario.scale ->
  string ->
  (Obs.Baseline.t, string) result
