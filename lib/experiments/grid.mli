(** Figures 3–8: a coverage × duration grid of repeated attacks.

    The paper's pipe-stoppage and admission-flood experiments share one
    method: the adversary attacks a random [coverage] fraction of the
    population for [duration], recuperates 30 days, and repeats with a
    fresh victim subset for the whole experiment. Every grid point is
    averaged over the scale's seeds and compared with one shared
    no-attack baseline at the same seeds. The families differ only in
    their default grid and in the attack they mount at each point. *)

type family = {
  name : string;  (** as in plot titles: "… under pipe stoppage" *)
  durations : float list;  (** default attack durations, seconds *)
  coverages : float list;  (** default victim fractions *)
  attack : coverage:float -> duration:float -> Scenario.attack;
}

(** Figures 3, 4 and 5: repeated pipe-stoppage attacks, which silence
    the victims' communication for [duration] (2–180 days).

    Shape targets: access failure (Fig. 3) grows with coverage and
    duration but stays within about one order of magnitude of baseline
    even at 100 % coverage for 180 days; the delay ratio (Fig. 4) needs
    attacks of ≥ ~60 days to rise an order of magnitude; the coefficient
    of friction (Fig. 5) is ≈ 1 for short attacks and grows toward ~10
    for long ones. *)
val stoppage : family

(** Figures 6, 7 and 8: the admission-control (Sybil garbage-invitation)
    adversary, which floods the victims with cheap garbage invitations
    from never-seen identities (24 per victim AU per day) for [duration]
    (10 days–2 years). Every admitted invitation retriggers the victim's
    refractory period, shutting out loyal unknown/in-debt pollers.

    Shape targets: access failure (Fig. 6) and delay ratio (Fig. 7)
    barely move even at full coverage for the whole experiment; the
    coefficient of friction (Fig. 8) rises with duration, up to ≈ +33 %
    at full coverage and 2-year duration, because loyal pollers burn
    introductory efforts that refractory victims summarily drop. *)
val admission : family

type point = {
  coverage : float;
  duration : float;
  access_failure : float;
  delay_ratio : float;
  friction : float;
}

(** [sweep ?scale ?durations ?coverages family] runs the family's grid
    (coverage-major, in the given orders; defaults from [family])
    against one shared baseline per scale, as one {!Runner.map} over the
    baseline and the grid points. *)
val sweep :
  ?scale:Scenario.scale ->
  ?durations:float list ->
  ?coverages:float list ->
  family ->
  point list

(** One of a point's three measures, with its labels. *)
type measure = {
  metric : string;  (** golden-baseline metric name *)
  title : string;  (** plot title prefix *)
  axis : string;  (** plot y-axis label *)
  header : string;  (** table column header *)
  render : float -> string;  (** table cell *)
  value : point -> float;
}

val access_failure : measure
val delay_ratio : measure
val friction : measure

(** [table measure points] is one figure's table: coverage, attack
    duration and the measure, one row per point. *)
val table : measure -> point list -> Repro_prelude.Table.t
