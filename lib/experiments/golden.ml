module B = Obs.Baseline
module Json = Obs.Json
module Table = Repro_prelude.Table

type sweeps = {
  stoppage : Grid.point list Lazy.t;
  admission : Grid.point list Lazy.t;
  baseline : Baseline.point list Lazy.t;
  effort : Effort_attack.row list Lazy.t;
}

let sweeps ~scale =
  {
    stoppage = lazy (Grid.sweep ~scale Grid.stoppage);
    admission = lazy (Grid.sweep ~scale Grid.admission);
    baseline = lazy (Baseline.sweep ~scale ());
    effort = lazy (Effort_attack.sweep ~scale ());
  }

let config_fingerprint (scale : Scenario.scale) =
  [
    ("peers", Json.Int scale.Scenario.peers);
    ("aus", Json.Int scale.Scenario.aus);
    ("quorum", Json.Int scale.Scenario.quorum);
    ("max_disagree", Json.Int scale.Scenario.max_disagree);
    ("outer_circle", Json.Int scale.Scenario.outer_circle);
    ("reference_target", Json.Int scale.Scenario.reference_target);
    ("years", Json.Float scale.Scenario.years);
    ("runs", Json.Int scale.Scenario.runs);
    ("seed", Json.Int scale.Scenario.seed);
  ]

(* -- Metric naming -------------------------------------------------------

   Names double as series-point keys: the bracketed coordinates use the
   same formatting as the printed tables (Report.pct, Report.days,
   Report.months), so a drifted metric is findable in the reproduce
   output by eye. *)

let duration_key ~coverage ~duration metric =
  Printf.sprintf "%s[cov=%s,days=%s]" metric (Report.pct coverage)
    (Report.days duration)

let fig2_key ~interval ~mttf_years ~collection metric =
  Printf.sprintf "%s[int=%s,mttf=%gy,aus=%d]" metric (Report.months interval)
    mttf_years collection

let table1_key ~strategy ~collection metric =
  Printf.sprintf "%s[strategy=%s,aus=%d]" metric
    (Format.asprintf "%a" Adversary.Brute_force.pp_strategy strategy)
    collection

let higher = B.Higher_is_worse

(* Headline aggregates over the figure's own grid: the extreme in the
   metric's bad direction plus the mean, so both a localized spike and a
   broad shift of the whole curve drift a compact, readable metric. *)
let headline name direction values =
  match List.filter Float.is_finite values with
  | [] -> []
  | finite ->
    let worst =
      match direction with
      | B.Higher_is_worse -> List.fold_left Float.max neg_infinity finite
      | B.Lower_is_worse | B.Neutral -> List.fold_left Float.min infinity finite
    in
    let mean = List.fold_left ( +. ) 0. finite /. float_of_int (List.length finite) in
    [ (direction, name ^ ".worst", worst); (B.Neutral, name ^ ".mean", mean) ]

let baseline_metrics points =
  headline "access_failure" higher
    (List.map (fun (p : Baseline.point) -> p.Baseline.access_failure) points)
  @ List.concat_map
      (fun (p : Baseline.point) ->
        let key =
          fig2_key ~interval:p.Baseline.interval ~mttf_years:p.Baseline.mttf_years
            ~collection:p.Baseline.collection
        in
        [
          (higher, key "af", p.Baseline.access_failure);
          (B.Neutral, key "af_min", p.Baseline.afp_min);
          (B.Neutral, key "af_max", p.Baseline.afp_max);
        ])
      points

let grid_metrics (measure : Grid.measure) points =
  let value = measure.Grid.value and metric = measure.Grid.metric in
  headline metric higher (List.map value points)
  @ List.map
      (fun (p : Grid.point) ->
        let key = duration_key ~coverage:p.Grid.coverage ~duration:p.Grid.duration in
        (higher, key metric, value p))
      points

let effort_metrics rows =
  let lower = B.Lower_is_worse in
  let measures =
    [
      ("friction", higher, fun (r : Effort_attack.row) -> r.Effort_attack.friction);
      ("cost_ratio", lower, fun r -> r.Effort_attack.cost_ratio);
      ("delay_ratio", higher, fun r -> r.Effort_attack.delay_ratio);
      ("access_failure", higher, fun r -> r.Effort_attack.access_failure);
    ]
  in
  List.concat_map
    (fun (name, direction, value) -> headline name direction (List.map value rows))
    measures
  @ List.concat_map
      (fun (r : Effort_attack.row) ->
        List.map
          (fun (name, direction, value) ->
            ( direction,
              table1_key ~strategy:r.Effort_attack.strategy
                ~collection:r.Effort_attack.collection name,
              value r ))
          measures)
      rows

(* -- The figure table ---------------------------------------------------- *)

type figure = {
  name : string;
  table : sweeps -> Table.t;
  metrics : sweeps -> (B.direction * string * float) list;
  plot : (dir:string -> sweeps -> unit) option;
}

(* Three figures over one family's sweep; plotting any of them writes
   all three, as they come from the same points. *)
let grid_figures points family named =
  let plot ~dir s =
    List.iter
      (fun (name, measure) -> Plot.write_grid ~dir ~name family measure (points s))
      named
  in
  List.map
    (fun (name, measure) ->
      {
        name;
        table = (fun s -> Grid.table measure (points s));
        metrics = (fun s -> grid_metrics measure (points s));
        plot = Some plot;
      })
    named

let figures =
  let baseline s = Lazy.force s.baseline and effort s = Lazy.force s.effort in
  [
    {
      name = "fig2";
      table = (fun s -> Baseline.to_table (baseline s));
      metrics = (fun s -> baseline_metrics (baseline s));
      plot = Some (fun ~dir s -> Plot.write_baseline ~dir ~name:"fig2" (baseline s));
    };
  ]
  @ grid_figures
      (fun s -> Lazy.force s.stoppage)
      Grid.stoppage
      [ ("fig3", Grid.access_failure); ("fig4", Grid.delay_ratio); ("fig5", Grid.friction) ]
  @ grid_figures
      (fun s -> Lazy.force s.admission)
      Grid.admission
      [ ("fig6", Grid.access_failure); ("fig7", Grid.delay_ratio); ("fig8", Grid.friction) ]
  @ [
      {
        name = "table1";
        table = (fun s -> Effort_attack.to_table (effort s));
        metrics = (fun s -> effort_metrics (effort s));
        plot = None;
      };
    ]

let targets = List.map (fun f -> f.name) figures

let capture_figure ?tolerance_pct sweeps ~scale figure =
  B.make ~experiment:figure.name ~config:(config_fingerprint scale)
    (List.map
       (fun (direction, name, value) -> B.metric ~direction ?tolerance_pct name value)
       (figure.metrics sweeps))

let capture ?tolerance_pct sweeps ~scale target =
  match List.find_opt (fun f -> f.name = target) figures with
  | Some figure -> Ok (capture_figure ?tolerance_pct sweeps ~scale figure)
  | None ->
    Error
      (Printf.sprintf "unknown baseline target %S (known: %s)" target
         (String.concat " " targets))
