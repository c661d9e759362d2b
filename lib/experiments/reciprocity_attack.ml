module Duration = Repro_prelude.Duration
module Table = Repro_prelude.Table

type row = {
  fraction : float;
  defections : int;
  honest_votes : int;
  friction : float;
  cost_ratio : float;
  delay_ratio : float;
}

let sweep ?(scale = Scenario.bench) ?(fractions = [ 0.1; 0.2; 0.3 ]) ?(rate = 5.) () =
  let cfg = Scenario.config scale in
  (* The baseline average and each compromised-fraction run are
     independent; run them all as one Runner job list. *)
  let results =
    Runner.map
      (function
        | `Baseline -> `Baseline ((Scenario.sweep ~cfg scale Scenario.No_attack).Scenario.mean)
        | `Fraction fraction ->
          let population = Lockss.Population.create ~seed:scale.Scenario.seed cfg in
          let attack =
            Adversary.Reciprocity.attach population ~fraction
              ~attempts_per_victim_au_per_day:rate
          in
          Lockss.Population.run population
            ~until:(Duration.of_years scale.Scenario.years);
          `Row
            ( fraction,
              Lockss.Population.summary population,
              Adversary.Reciprocity.defections attack,
              Adversary.Reciprocity.honest_votes attack ))
      (`Baseline :: List.map (fun f -> `Fraction f) fractions)
  in
  match results with
  | `Baseline baseline :: rows ->
    List.map
      (function
        | `Row (fraction, summary, defections, honest_votes) ->
          let c = Scenario.ratios ~baseline ~attack:summary in
          {
            fraction;
            defections;
            honest_votes;
            friction = c.Scenario.friction;
            cost_ratio = c.Scenario.cost_ratio;
            delay_ratio = c.Scenario.delay_ratio;
          }
        | `Baseline _ -> assert false)
      rows
  | _ -> assert false

let brute_force_reference ?(scale = Scenario.bench) () =
  let cfg = Scenario.config scale in
  let attack =
    Scenario.Brute_force
      { strategy = Adversary.Brute_force.Remaining; rate = 5.; identities = 50 }
  in
  (Scenario.compare ~cfg scale attack).Scenario.ratios.Scenario.friction

let to_table rows =
  let table =
    Table.create
      [
        "compromised";
        "defections";
        "honest rebuild votes";
        "friction";
        "cost ratio";
        "delay ratio";
      ]
  in
  List.iter
    (fun r ->
      Table.add_row table
        [
          Report.pct r.fraction;
          string_of_int r.defections;
          string_of_int r.honest_votes;
          Report.ratio r.friction;
          Report.ratio r.cost_ratio;
          Report.ratio r.delay_ratio;
        ])
    rows;
  table
