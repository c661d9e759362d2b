module Duration = Repro_prelude.Duration
module Table = Repro_prelude.Table

type point = {
  coverage : float;
  duration : float;
  access_failure : float;
  delay_ratio : float;
  friction : float;
}

let default_durations = List.map Duration.of_days [ 2.; 10.; 45.; 90.; 180. ]
let default_coverages = [ 0.1; 0.3; 0.5; 1.0 ]
let recuperation = Duration.of_days 30.

let sweep ?(scale = Scenario.bench) ?(durations = default_durations)
    ?(coverages = default_coverages) () =
  let cfg = Scenario.config scale in
  let grid =
    List.concat_map
      (fun coverage -> List.map (fun duration -> (coverage, duration)) durations)
      coverages
  in
  (* The baseline and every grid point are independent averaged runs: one
     job each, fanned out over Runner workers, merged in grid order. *)
  let summaries =
    Runner.map
      (fun attack -> (Scenario.sweep ~cfg scale attack).Scenario.mean)
      (Scenario.No_attack
      :: List.map
           (fun (coverage, duration) ->
             Scenario.Pipe_stoppage { coverage; duration; recuperation })
           grid)
  in
  match summaries with
  | [] -> assert false
  | baseline :: attacked ->
    List.map2
      (fun (coverage, duration) summary ->
        let c = Scenario.ratios ~baseline ~attack:summary in
        {
          coverage;
          duration;
          access_failure = c.Scenario.access_failure;
          delay_ratio = c.Scenario.delay_ratio;
          friction = c.Scenario.friction;
        })
      grid attacked

let metric_table ~header value points =
  let table = Table.create [ "coverage"; "attack duration"; header ] in
  List.iter
    (fun p ->
      Table.add_row table [ Report.pct p.coverage; Report.days p.duration; value p ])
    points;
  table

let fig3_table = metric_table ~header:"access failure prob." (fun p -> Report.sci p.access_failure)
let fig4_table = metric_table ~header:"delay ratio" (fun p -> Report.ratio p.delay_ratio)
let fig5_table = metric_table ~header:"coeff. of friction" (fun p -> Report.ratio p.friction)
