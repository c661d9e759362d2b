(** The experiment the paper deferred to its extended version
    (Section 7.4, last paragraph): the grade-recovery adversary whose
    minions earn even/credit grades by voting honestly, defect from that
    standing, and rebuild.

    The paper's claim, which this sweep verifies: the attack "is
    rate-limited enough that it is less effective than brute force" —
    its friction stays below the brute-force REMAINING row of Table 1,
    and because the minions must keep supplying honest votes to recover
    their grades, their net effect on defenders can even be favourable. *)

type row = {
  fraction : float;  (** compromised fraction of the population *)
  defections : int;  (** victim votes extracted and discarded *)
  honest_votes : int;  (** rebuild votes the minions had to supply *)
  friction : float;
  cost_ratio : float;
  delay_ratio : float;
}

(** [sweep ?scale ?fractions ?rate ()] is one row per compromised
    fraction. Each row sweeps the scale's seeds ({!Scenario.sweep}), as
    the no-attack baseline does: its ratios are {!Scenario.ratios} of
    the two sweeps' means, and its counters average over the runs,
    rounded. *)
val sweep :
  ?scale:Scenario.scale -> ?fractions:float list -> ?rate:float -> unit -> row list

(** [brute_force_reference ?scale ()] is the Table-1 REMAINING friction at
    the same scale, for the "less effective than brute force"
    comparison. *)
val brute_force_reference : ?scale:Scenario.scale -> unit -> float

val to_table : row list -> Repro_prelude.Table.t
