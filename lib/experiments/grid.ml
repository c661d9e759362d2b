module Duration = Repro_prelude.Duration
module Table = Repro_prelude.Table

type family = {
  name : string;
  durations : float list;
  coverages : float list;
  attack : coverage:float -> duration:float -> Scenario.attack;
}

let recuperation = Duration.of_days 30.

let stoppage =
  {
    name = "pipe stoppage";
    durations = List.map Duration.of_days [ 2.; 10.; 45.; 90.; 180. ];
    coverages = [ 0.1; 0.3; 0.5; 1.0 ];
    attack =
      (fun ~coverage ~duration ->
        Scenario.Pipe_stoppage { coverage; duration; recuperation });
  }

(* Garbage is free to the adversary, so it sends enough per victim-AU-day
   that, even through the 0.9 random-drop filter, one invitation is
   admitted almost every day (1 - 0.9^24 = 0.92) and the refractory
   period stays continuously triggered. *)
let admission =
  {
    name = "admission flood";
    durations = List.map Duration.of_days [ 10.; 45.; 90.; 180.; 365.; 730. ];
    coverages = [ 0.1; 0.5; 1.0 ];
    attack =
      (fun ~coverage ~duration ->
        Scenario.Admission_flood { coverage; duration; recuperation; rate = 24. });
  }

type point = {
  coverage : float;
  duration : float;
  access_failure : float;
  delay_ratio : float;
  friction : float;
}

let sweep ?(scale = Scenario.bench) ?durations ?coverages family =
  let cfg = Scenario.config scale in
  let durations = Option.value durations ~default:family.durations in
  let grid =
    List.concat_map
      (fun coverage -> List.map (fun duration -> (coverage, duration)) durations)
      (Option.value coverages ~default:family.coverages)
  in
  (* The baseline and every grid point are independent averaged runs: one
     job each, fanned out over Runner workers, merged in grid order. *)
  let summaries =
    Runner.map
      (fun attack -> (Scenario.sweep ~cfg scale attack).Scenario.mean)
      (Scenario.No_attack
      :: List.map (fun (coverage, duration) -> family.attack ~coverage ~duration) grid)
  in
  let baseline = List.hd summaries in
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
    grid (List.tl summaries)

type measure = {
  metric : string;
  title : string;
  axis : string;
  header : string;
  render : float -> string;
  value : point -> float;
}

let access_failure =
  {
    metric = "access_failure";
    title = "Access failure";
    axis = "access failure probability";
    header = "access failure prob.";
    render = Report.sci;
    value = (fun p -> p.access_failure);
  }

let delay_ratio =
  {
    metric = "delay_ratio";
    title = "Delay ratio";
    axis = "delay ratio";
    header = "delay ratio";
    render = Report.ratio;
    value = (fun p -> p.delay_ratio);
  }

let friction =
  {
    metric = "friction";
    title = "Coefficient of friction";
    axis = "coefficient of friction";
    header = "coeff. of friction";
    render = Report.ratio;
    value = (fun p -> p.friction);
  }

let table measure points =
  let table = Table.create [ "coverage"; "attack duration"; measure.header ] in
  List.iter
    (fun p ->
      Table.add_row table
        [ Report.pct p.coverage; Report.days p.duration; measure.render (measure.value p) ])
    points;
  table
