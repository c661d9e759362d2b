(** Gnuplot emission: regenerate the paper's figures as actual plots.

    Each writer produces a [NAME.dat] (one gnuplot index per series) and
    a [NAME.gp] script with the paper's axes (log-scaled where the
    paper's are). Render with [gnuplot NAME.gp] to get [NAME.png]. *)

(** [write_grid ~dir ~name family measure points] emits one of
    Figures 3–8: [measure] against attack duration, one series per
    coverage. *)
val write_grid :
  dir:string -> name:string -> Grid.family -> Grid.measure -> Grid.point list -> unit

(** [write_baseline ~dir ~name points] emits Figure 2, access failure
    against inter-poll interval, one series per (MTTF, collection)
    pair. *)
val write_baseline : dir:string -> name:string -> Baseline.point list -> unit
