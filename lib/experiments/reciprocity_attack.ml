module Table = Repro_prelude.Table

type row = {
  fraction : float;
  defections : int;
  honest_votes : int;
  friction : float;
  cost_ratio : float;
  delay_ratio : float;
}

(* Each row sweeps the baseline's seeds, so its ratios compare like with
   like; its counters average over those runs, rounded, as
   {!Scenario.mean_summaries} does for counts. *)
let sweep ?(scale = Scenario.bench) ?(fractions = [ 0.1; 0.2; 0.3 ]) ?(rate = 5.) () =
  let cfg = Scenario.config scale in
  let baseline, sweeps =
    Runner.both
      (fun () -> (Scenario.sweep ~cfg scale Scenario.No_attack).Scenario.mean)
      (fun () ->
        Runner.map
          (fun fraction -> Scenario.sweep ~cfg scale (Scenario.Reciprocity { fraction; rate }))
          fractions)
  in
  List.map2
    (fun fraction (s : Scenario.sweep) ->
      let counter name =
        let total =
          List.fold_left (fun acc r -> acc + List.assoc name r.Scenario.adversary) 0 s.runs
        in
        int_of_float (Float.round (float_of_int total /. float_of_int (List.length s.runs)))
      in
      let c = Scenario.ratios ~baseline ~attack:s.mean in
      {
        fraction;
        defections = counter "defections";
        honest_votes = counter "honest_votes";
        friction = c.Scenario.friction;
        cost_ratio = c.Scenario.cost_ratio;
        delay_ratio = c.Scenario.delay_ratio;
      })
    fractions sweeps

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
