module Duration = Repro_prelude.Duration
module Rng = Repro_prelude.Rng
module Table = Repro_prelude.Table

(* -- Adaptive acceptance ----------------------------------------------- *)

type adaptive_row = {
  adaptive : bool;
  friction : float;
  cost_ratio : float;
  polls_succeeded : int;
}

let adaptive_acceptance ?(scale = Scenario.bench) () =
  let attack =
    Scenario.Brute_force
      { strategy = Adversary.Brute_force.Remaining; rate = 5.; identities = 50 }
  in
  List.map
    (fun adaptive ->
      (* The defense is about busyness, so give peers constrained capacity:
         the vote-extraction attack then occupies a real fraction of each
         victim's schedule, which adaptive acceptance pushes back on. *)
      let cfg =
        {
          (Scenario.config scale) with
          Lockss.Config.adaptive_acceptance = adaptive;
          capacity = 0.02;
        }
      in
      let c = (Scenario.compare ~cfg scale attack).Scenario.ratios in
      {
        adaptive;
        friction = c.Scenario.friction;
        cost_ratio = c.Scenario.cost_ratio;
        polls_succeeded = c.Scenario.attack.Lockss.Metrics.polls_succeeded;
      })
    [ false; true ]

let adaptive_table rows =
  let table = Table.create [ "voter policy"; "friction"; "cost ratio"; "polls ok" ] in
  List.iter
    (fun r ->
      Table.add_row table
        [
          (if r.adaptive then "adaptive acceptance" else "fixed acceptance (paper)");
          Report.ratio r.friction;
          Report.ratio r.cost_ratio;
          string_of_int r.polls_succeeded;
        ])
    rows;
  table

(* -- Churn -------------------------------------------------------------- *)

type churn_result = {
  joiners : int;
  incumbent_success_rate : float;
  newcomer_success_rate : float;
}

let churn ?(scale = Scenario.bench) ?(joiners = 5) () =
  let cfg = Scenario.config scale in
  let population = Lockss.Population.create ~seed:scale.Scenario.seed ~dormant:joiners cfg in
  let engine = Lockss.Population.engine population in
  let horizon = Duration.of_years scale.Scenario.years in
  let dormant = Lockss.Population.dormant_nodes population in
  (* Spread joins over the first half of the run. *)
  let join_times =
    List.mapi
      (fun i node ->
        let at = float_of_int (i + 1) /. float_of_int (joiners + 1) *. (horizon /. 2.) in
        ignore
          (Narses.Engine.schedule engine ~at (fun () ->
               Lockss.Population.activate population ~node));
        (node, at))
      dormant
  in
  Lockss.Population.run population ~until:horizon;
  let ctx = Lockss.Population.ctx population in
  let metrics = ctx.Lockss.Peer.metrics in
  let per_peer_rate node ~since =
    let polls = Lockss.Metrics.successes_of metrics node in
    let exposure_years = Duration.to_years (horizon -. since) *. float_of_int cfg.Lockss.Config.aus in
    if exposure_years <= 0. then 0. else float_of_int polls /. exposure_years
  in
  let incumbents = List.init cfg.Lockss.Config.loyal_peers (fun i -> i) in
  let incumbent_success_rate =
    Repro_prelude.Stats.mean (List.map (fun node -> per_peer_rate node ~since:0.) incumbents)
  in
  let newcomer_success_rate =
    match join_times with
    | [] -> 0.
    | _ :: _ ->
      Repro_prelude.Stats.mean
        (List.map (fun (node, at) -> per_peer_rate node ~since:at) join_times)
  in
  { joiners; incumbent_success_rate; newcomer_success_rate }

(* -- Combined attacks --------------------------------------------------- *)

type combined_row = {
  label : string;
  access_failure : float;
  delay_ratio : float;
  friction : float;
}

let combined ?(scale = Scenario.bench) () =
  let cfg = Scenario.config scale in
  let stoppage =
    Scenario.Pipe_stoppage
      {
        coverage = 0.5;
        duration = Duration.of_days 90.;
        recuperation = Duration.of_days 30.;
      }
  in
  let brute =
    Scenario.Brute_force
      { strategy = Adversary.Brute_force.Full; rate = 5.; identities = 50 }
  in
  let baseline = (Scenario.sweep ~cfg scale Scenario.No_attack).Scenario.mean in
  List.map
    (fun (label, attack) ->
      let summary = (Scenario.sweep ~cfg scale attack).Scenario.mean in
      let c = Scenario.ratios ~baseline ~attack:summary in
      {
        label;
        access_failure = c.Scenario.access_failure;
        delay_ratio = c.Scenario.delay_ratio;
        friction = c.Scenario.friction;
      })
    [
      ("pipe stoppage 50% x 90d", stoppage);
      ("brute force NONE", brute);
      ("both combined", Scenario.Combined [ stoppage; brute ]);
    ]

type diversity_row = {
  coverage : float;
  replicas : int;
  access_failure : float;
  polls_succeeded : int;
  mean_gap : float;
}

let diversity ?(scale = Scenario.bench) ?(coverages = [ 1.0; 0.75; 0.5 ]) () =
  let kept, dropped =
    List.partition_map
      (fun coverage ->
        let cfg = { (Scenario.config scale) with Lockss.Config.au_coverage = coverage } in
        match Lockss.Config.validate cfg with
        | () -> Left (coverage, cfg)
        | exception Invalid_argument reason -> Right (coverage, reason))
      coverages
  in
  let row (coverage, cfg) =
    let summary = (Scenario.sweep ~cfg scale Scenario.No_attack).Scenario.mean in
    {
      coverage;
      replicas = summary.Lockss.Metrics.replicas;
      access_failure = summary.Lockss.Metrics.access_failure_probability;
      polls_succeeded = summary.Lockss.Metrics.polls_succeeded;
      mean_gap = summary.Lockss.Metrics.mean_success_gap;
    }
  in
  (List.map row kept, dropped)

let diversity_table rows =
  let table =
    Table.create [ "coverage"; "replicas"; "access failure"; "polls ok"; "mean gap" ]
  in
  List.iter
    (fun r ->
      Table.add_row table
        [
          Report.pct r.coverage;
          string_of_int r.replicas;
          Report.sci r.access_failure;
          string_of_int r.polls_succeeded;
          Report.days r.mean_gap;
        ])
    rows;
  table

let combined_table rows =
  let table = Table.create [ "attack"; "access failure"; "delay ratio"; "friction" ] in
  List.iter
    (fun r ->
      Table.add_row table
        [
          r.label;
          Report.sci r.access_failure;
          Report.ratio r.delay_ratio;
          Report.ratio r.friction;
        ])
    rows;
  table
