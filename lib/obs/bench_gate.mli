(** Bench regression gate: diff a bench JSON artifact against a pinned
    baseline and fail on regressions of tracked ratios.

    Bench artifacts mix machine-dependent absolutes (mean seconds) with
    machine-independent ratios ([overhead], [speedup], [slowdown]).
    Only machine-independent leaves are {e tracked}, and each tracked
    metric carries an explicit bad direction: [overhead], [slowdown],
    [words_per_event] (allocation per simulated event — the
    simulation is deterministic, so this is as portable as a ratio)
    and [live_words] (resident words of a seeded population build,
    deterministic likewise) fail when they grow, [speedup] when it
    shrinks. Absolute leaves are still diffed and reported, but
    informationally — CI machines are too noisy to gate wall-clock.

    Ratio metrics with a natural no-effect point also carry a {e
    neutral} (1.0 for [overhead] and [slowdown]). The gate's reference
    is the baseline slackened to the neutral when the baseline landed on
    the better side of it: a chaos run whose baseline overhead was a
    lucky 0.69 (faults drop messages, so the faulted run was faster)
    does not fail CI when a later run drifts back to 1.0 — only
    movement {e past} the neutral in the bad direction does. [speedup]
    has no neutral on purpose: collapsing from 2x to 1x is a genuine
    loss of parallelism and gates against the baseline itself.

    JSON is flattened to dotted paths. Lists of objects are keyed by
    their ["variant"], ["target"], ["phase"], ["bucket"] or ["name"]
    member when present (so reordering a bench's variant list does not
    shuffle the diff), by index otherwise. A tracked path present in
    the baseline but missing from the current artifact is itself a
    failure: silently dropping a gated metric must not pass CI. So is
    the reverse, a tracked path the current artifact measures but the
    baseline never pinned: a pin that misses a variant gates nothing.

    An object containing [("degenerate", true)] marks its whole subtree
    degenerate: the environment could not exercise what the tracked
    metrics under it measure (e.g. a parallel-speedup sweep on a 1-core
    host). The two artifacts are treated asymmetrically. A tracked path
    degenerate in the {e baseline} never had a real pin, so it is
    excluded from the regression and missing-tracked checks and surfaced
    in {!type-report}[.skipped]. A tracked path degenerate only in the
    {e current} artifact is the reverse — a live pin whose gate stopped
    measuring (a speedup baseline pinned on a multicore runner, re-run
    on one core would otherwise pass all-green while gating nothing) —
    and is a distinct failure, collected in
    {!type-report}[.degenerate_current]; pass
    [~allow_degenerate_current:true] to demote it to a warning when the
    environment change is intentional. *)

type direction = Higher_is_worse | Lower_is_worse

type delta = {
  path : string;
  baseline : float;
  current : float;
  change_pct : float;  (** [nan] when the baseline is 0 or not finite *)
  direction : direction option;  (** [None] = informational *)
  regressed : bool;
}

type report = {
  deltas : delta list;  (** every shared numeric path, sorted *)
  missing_tracked : string list;  (** tracked in baseline, absent now *)
  unpinned_tracked : string list;
      (** tracked in current, absent from the baseline, and under no
          degenerate prefix on either side *)
  skipped : string list;
      (** tracked, but under a degenerate prefix in the baseline *)
  degenerate_current : string list;
      (** tracked and pinned live in the baseline, but under a
          degenerate prefix only in the current artifact — fails {!ok}
          unless [allow_degenerate_current] *)
  added : string list;  (** numeric in current, absent from baseline *)
  degenerate_subtrees : string list;
      (** sorted, deduped prefixes marked [degenerate:true] in either
          artifact; the document root renders as ["(root)"]. The
          verdict line enumerates them so an all-green gate that
          skipped its tracked metrics says so. *)
  threshold_pct : float;
  allow_degenerate_current : bool;
}

(** [flatten json] is every numeric leaf as [(dotted-path, value)]. *)
val flatten : Json.t -> (string * float) list

(** Bad direction and neutral point for a flattened path, from its last
    segment; [None] when the path is informational. *)
val tracked_of_path : string -> (direction * float option) option

(** [compare_json ?threshold_pct ?allow_degenerate_current ~baseline
    ~current ()] — threshold defaults to 25 (percent);
    [allow_degenerate_current] (default [false]) demotes
    {!type-report}[.degenerate_current] entries from failures to
    warnings. *)
val compare_json :
  ?threshold_pct:float ->
  ?allow_degenerate_current:bool ->
  baseline:Json.t ->
  current:Json.t ->
  unit ->
  report

val regressions : report -> delta list

(** No regressed deltas, no missing or unpinned tracked paths, and — unless
    [allow_degenerate_current] — no tracked path that went degenerate
    while its baseline pin was live. *)
val ok : report -> bool

val report_json : report -> Json.t

(** Human-readable table; one line per tracked delta plus failures. *)
val pp_report : Format.formatter -> report -> unit
