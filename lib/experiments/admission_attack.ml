module Duration = Repro_prelude.Duration
module Table = Repro_prelude.Table

type point = {
  coverage : float;
  duration : float;
  access_failure : float;
  delay_ratio : float;
  friction : float;
}

let default_durations =
  List.map Duration.of_days [ 10.; 45.; 90.; 180.; 365.; 730. ]

let default_coverages = [ 0.1; 0.5; 1.0 ]
let recuperation = Duration.of_days 30.

(* Garbage is free to the adversary, so it sends enough per victim-AU-day
   that, even through the 0.9 random-drop filter, one invitation is
   admitted almost every day (1 - 0.9^24 = 0.92) and the refractory
   period stays continuously triggered. *)
let default_rate = 24.

let sweep ?(scale = Scenario.bench) ?(durations = default_durations)
    ?(coverages = default_coverages) ?(rate = default_rate) () =
  let cfg = Scenario.config scale in
  let grid =
    List.concat_map
      (fun coverage -> List.map (fun duration -> (coverage, duration)) durations)
      coverages
  in
  (* Baseline and grid points fan out over Runner workers as one job
     list, merged back in grid order. *)
  let summaries =
    Runner.map
      (fun attack -> (Scenario.sweep ~cfg scale attack).Scenario.mean)
      (Scenario.No_attack
      :: List.map
           (fun (coverage, duration) ->
             Scenario.Admission_flood { coverage; duration; recuperation; rate })
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

let fig6_table = metric_table ~header:"access failure prob." (fun p -> Report.sci p.access_failure)
let fig7_table = metric_table ~header:"delay ratio" (fun p -> Report.ratio p.delay_ratio)
let fig8_table = metric_table ~header:"coeff. of friction" (fun p -> Report.ratio p.friction)
