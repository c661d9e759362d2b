module Table = Repro_prelude.Table

type row = {
  fraction : float;
  strategy : Adversary.Subversion.strategy;
  corrupt_votes : int;
  corrupt_repairs : int;
  alarms : int;
  corrupted_replicas : int;
  access_failure : float;
}

let default_fractions = [ 0.1; 0.2; 0.3; 0.4 ]

let sweep ?(scale = Scenario.bench) ?(fractions = default_fractions) () =
  let cfg = Scenario.config scale in
  let grid =
    List.concat_map
      (fun strategy -> List.map (fun fraction -> (strategy, fraction)) fractions)
      [ Adversary.Subversion.Aggressive; Adversary.Subversion.Patient ]
  in
  Runner.map
    (fun (strategy, fraction) ->
      let r =
        Scenario.run ~cfg ~seed:scale.Scenario.seed ~years:scale.Scenario.years
          (Scenario.Subversion { fraction; strategy })
      in
      let counter name = List.assoc name r.Scenario.adversary in
      let summary = r.Scenario.summary in
      {
        fraction;
        strategy;
        corrupt_votes = counter "corrupt_votes";
        corrupt_repairs = counter "corrupt_repairs";
        alarms = summary.Lockss.Metrics.polls_alarmed;
        corrupted_replicas = counter "corrupted_replicas";
        access_failure = summary.Lockss.Metrics.access_failure_probability;
      })
    grid

let to_table rows =
  let table =
    Table.create
      [
        "strategy";
        "compromised";
        "corrupt votes";
        "corrupt repairs";
        "alarms";
        "corrupted replicas";
        "access failure";
      ]
  in
  List.iter
    (fun r ->
      Table.add_row table
        [
          Format.asprintf "%a" Adversary.Subversion.pp_strategy r.strategy;
          Report.pct r.fraction;
          string_of_int r.corrupt_votes;
          string_of_int r.corrupt_repairs;
          string_of_int r.alarms;
          string_of_int r.corrupted_replicas;
          Report.sci r.access_failure;
        ])
    rows;
  table
