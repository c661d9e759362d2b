(** Section 9 (future work) experiments.

    The paper closes with three open directions; this module implements
    and measures all three:

    - {e adaptive acceptance}: loyal peers modulate the probability of
      accepting a poll invitation by their recent busyness, raising the
      marginal effort an attacker must spend per unit of victim time;
    - {e churn}: new loyal peers continually join a running system and
      must bootstrap reputation through discovery and introductions;
    - {e combined strategies}: several adversaries attack at once (a
      pipe stoppage softening the population for a brute-force flood).

    It also implements the {e collection diversity} deferred in
    Section 6.3 ("we do not yet simulate the diversity of local
    collections"): peers holding only subsets of the AU space. *)

type adaptive_row = {
  adaptive : bool;
  friction : float;
  cost_ratio : float;
  polls_succeeded : int;
}

(** [adaptive_acceptance ?scale ()] compares the paper's fixed-acceptance
    voter with the adaptive variant under the brute-force REMAINING
    adversary (the strategy that extracts whole votes). *)
val adaptive_acceptance : ?scale:Scenario.scale -> unit -> adaptive_row list

val adaptive_table : adaptive_row list -> Repro_prelude.Table.t

type churn_result = {
  joiners : int;
  incumbent_success_rate : float;  (** successful polls per peer-AU-year *)
  newcomer_success_rate : float;
      (** same, for peers that joined mid-run, counted from their join *)
}

(** [churn ?scale ?joiners ()] runs a population in which [joiners]
    fresh peers come online spread over the first half of the horizon,
    and compares their audit rate with the incumbents'. *)
val churn : ?scale:Scenario.scale -> ?joiners:int -> unit -> churn_result

type combined_row = {
  label : string;
  access_failure : float;
  delay_ratio : float;
  friction : float;
}

(** [combined ?scale ()] measures a pipe stoppage alone, a brute-force
    flood alone, and both at once, against a shared baseline. *)
val combined : ?scale:Scenario.scale -> unit -> combined_row list

val combined_table : combined_row list -> Repro_prelude.Table.t

type diversity_row = {
  coverage : float;  (** fraction of peers holding each AU *)
  replicas : int;
  access_failure : float;
  polls_succeeded : int;
  mean_gap : float;
}

(** [diversity ?scale ?coverages ()] sweeps the holder fraction; the
    audit machinery must keep working as collections diverge. Returns
    one row per coverage, then each coverage whose configuration
    {!Lockss.Config.validate} rejects at this scale (too few holders per
    AU for an inner circle), with the reason; those are not run. *)
val diversity :
  ?scale:Scenario.scale ->
  ?coverages:float list ->
  unit ->
  diversity_row list * (float * string) list

val diversity_table : diversity_row list -> Repro_prelude.Table.t
