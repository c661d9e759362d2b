(** Retained-defense experiment: the content-subversion (stealth)
    adversary of the prior protocol paper [29].

    Section 7.4 of the attrition paper notes the redesign keeps the
    earlier resistance to adversaries "modifying the content without
    detection". This sweep verifies it: compromised-peer fractions from
    10 % to 40 % run both coordination strategies for the full horizon.

    Expected shape: the {e aggressive} strategy mostly produces
    inconclusive-poll {e alarms} (the bimodal landslide design turns
    partial infiltration into loud evidence), while the {e patient}
    strategy rarely finds polls it can win and so lurks; in both cases
    honest replicas holding the adversary's version at the end — the
    stealth adversary's real goal — stay at or near zero for minority
    compromise. *)

type row = {
  fraction : float;
  strategy : Adversary.Subversion.strategy;
  corrupt_votes : int;
  corrupt_repairs : int;
  alarms : int;
  corrupted_replicas : int;  (** honest replicas holding adversary content at the end *)
  access_failure : float;
}

val sweep :
  ?scale:Scenario.scale -> ?fractions:float list -> unit -> row list

val to_table : row list -> Repro_prelude.Table.t
