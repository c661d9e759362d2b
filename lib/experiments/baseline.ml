module Duration = Repro_prelude.Duration
module Table = Repro_prelude.Table

type point = {
  interval : float;
  mttf_years : float;
  collection : int;
  access_failure : float;
  afp_min : float;
  afp_max : float;
}

let default_intervals = List.map Duration.of_months [ 1.; 2.; 3.; 6. ]
let default_mttfs = [ 1.; 3.; 5. ]
let collections (scale : Scenario.scale) = [ scale.Scenario.aus; 3 * scale.Scenario.aus ]

let sweep ?(scale = Scenario.bench) ?(intervals = default_intervals)
    ?(mttfs = default_mttfs) ?collections:(colls = collections scale) () =
  let grid =
    List.concat_map
      (fun collection ->
        List.concat_map
          (fun mttf_years ->
            List.map (fun interval -> (collection, mttf_years, interval)) intervals)
          mttfs)
      colls
  in
  (* Every grid point is an independent sweep of runs: fan out over
     Runner workers, results merged back in grid order. *)
  Runner.map
    (fun (collection, mttf_years, interval) ->
      let cfg =
        {
          (Scenario.config scale) with
          Lockss.Config.aus = collection;
          inter_poll_interval = interval;
          disk_mttf_years = mttf_years;
        }
      in
      let sweep = Scenario.sweep ~cfg scale Scenario.No_attack in
      {
        interval;
        mttf_years;
        collection;
        access_failure = sweep.Scenario.mean.Lockss.Metrics.access_failure_probability;
        afp_min = sweep.Scenario.afp_min;
        afp_max = sweep.Scenario.afp_max;
      })
    grid

let to_table points =
  let table =
    Table.create
      [ "inter-poll interval"; "disk MTTF"; "AUs"; "access failure prob."; "min"; "max" ]
  in
  List.iter
    (fun p ->
      Table.add_row table
        [
          Report.months p.interval;
          Printf.sprintf "%.0fy" p.mttf_years;
          string_of_int p.collection;
          Report.sci p.access_failure;
          Report.sci p.afp_min;
          Report.sci p.afp_max;
        ])
    points;
  table
