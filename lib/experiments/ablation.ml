module Duration = Repro_prelude.Duration
module Table = Repro_prelude.Table

type row = {
  group : string;
  variant : string;
  polls_succeeded : int;
  polls_failed : int;
  access_failure : float;
  friction : float;
  cost_ratio : float;
}

let row_of ~group ~variant ~baseline summary =
  let c = Scenario.ratios ~baseline ~attack:summary in
  {
    group;
    variant;
    polls_succeeded = summary.Lockss.Metrics.polls_succeeded;
    polls_failed =
      summary.Lockss.Metrics.polls_inquorate + summary.Lockss.Metrics.polls_alarmed;
    access_failure = summary.Lockss.Metrics.access_failure_probability;
    friction = c.Scenario.friction;
    cost_ratio = c.Scenario.cost_ratio;
  }

(* Each group runs a paper-design configuration and variants against the
   same attack; the group's first row is the paper design itself (and the
   group's baseline for ratio metrics). [groups] flattens every variant
   of every group into one Runner job list so the whole ablation table
   fans out at once, then reassembles rows in group order. *)
let groups ~scale specs =
  let jobs =
    List.concat_map
      (fun (name, attack, variants) ->
        List.map (fun (variant, cfg) -> (name, attack, variant, cfg)) variants)
      specs
  in
  let summaries =
    Runner.map (fun (_, attack, _, cfg) -> (Scenario.sweep ~cfg scale attack).Scenario.mean) jobs
  in
  let rows = List.combine jobs summaries in
  List.concat_map
    (fun (name, _, variants) ->
      let of_group =
        List.filter_map
          (fun ((n, _, variant, _), summary) ->
            if n = name then Some (variant, summary) else None)
          rows
      in
      match (variants, of_group) with
      | (_, _) :: _, (_, baseline) :: _ ->
        List.map
          (fun (variant, summary) -> row_of ~group:name ~variant ~baseline summary)
          of_group
      | _ -> [])
    specs

let run ?(scale = Scenario.bench) () =
  let cfg = Scenario.config scale in
  let flood =
    Scenario.Admission_flood
      {
        coverage = 1.0;
        duration = Duration.of_years scale.Scenario.years;
        recuperation = Duration.of_days 30.;
        rate = 4.;
      }
  in
  let intro_attack =
    Scenario.Brute_force
      { strategy = Adversary.Brute_force.Intro; rate = 5.; identities = 50 }
  in
  (* Contention stress: constrained capacity, no adversary needed. *)
  let loaded = { cfg with Lockss.Config.capacity = 0.003 } in
  groups ~scale
    [
      ( "desynchronization",
        Scenario.No_attack,
        [
          ("individual solicitation (paper)", loaded);
          ("synchronous quorum", { loaded with Lockss.Config.desynchronized = false });
        ] );
      ( "introductions",
        flood,
        [
          ("introductions on (paper)", cfg);
          ("introductions off", { cfg with Lockss.Config.introductions_enabled = false });
        ] );
      ( "effort balancing",
        intro_attack,
        [
          ("effort balancing on (paper)", cfg);
          ( "effort balancing off",
            { cfg with Lockss.Config.effort_balancing_enabled = false } );
        ] );
      ( "refractory period",
        flood,
        [
          ("1 day (paper)", cfg);
          ( "6 hours",
            { cfg with Lockss.Config.refractory_period = Duration.of_days 0.25 } );
          ("4 days", { cfg with Lockss.Config.refractory_period = Duration.of_days 4. });
        ] );
      ( "drop probabilities",
        flood,
        [
          ("0.90 / 0.80 (paper)", cfg);
          ( "0.50 / 0.40",
            { cfg with Lockss.Config.drop_unknown = 0.5; drop_debt = 0.4 } );
          ( "no admission control",
            { cfg with Lockss.Config.admission_control_enabled = false } );
        ] );
      ( "network model",
        Scenario.No_attack,
        [
          ("delay-only (paper)", cfg);
          ( "shared-bottleneck congestion",
            { cfg with Lockss.Config.network_model = Narses.Net.Shared_bottleneck } );
        ] );
    ]

let to_table rows =
  let table =
    Table.create
      [ "ablation"; "variant"; "polls ok"; "polls failed"; "access failure"; "friction"; "cost ratio" ]
  in
  List.iter
    (fun r ->
      Table.add_row table
        [
          r.group;
          r.variant;
          string_of_int r.polls_succeeded;
          string_of_int r.polls_failed;
          Report.sci r.access_failure;
          Report.ratio r.friction;
          Report.ratio r.cost_ratio;
        ])
    rows;
  table
