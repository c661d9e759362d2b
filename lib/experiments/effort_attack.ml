module Table = Repro_prelude.Table

type row = {
  strategy : Adversary.Brute_force.strategy;
  collection : int;
  friction : float;
  cost_ratio : float;
  delay_ratio : float;
  access_failure : float;
}

(* Five attempts per refractory period: the expected number needed to get
   one invitation past the 0.8 in-debt drop probability. *)
let default_rate = 5.

let strategies =
  [ Adversary.Brute_force.Intro; Adversary.Brute_force.Remaining; Adversary.Brute_force.Full ]

let sweep ?(scale = Scenario.bench) ?collections ?(rate = default_rate)
    ?(identities = 50) () =
  let collections =
    match collections with
    | Some c -> c
    | None -> [ scale.Scenario.aus; 3 * scale.Scenario.aus ]
  in
  (* One job per (collection, attack) cell, the per-collection baseline
     included, all fanned out over Runner workers at once. *)
  let cells =
    List.concat_map
      (fun collection ->
        let cfg = { (Scenario.config scale) with Lockss.Config.aus = collection } in
        (collection, cfg, None)
        :: List.map (fun strategy -> (collection, cfg, Some strategy)) strategies)
      collections
  in
  let summaries =
    Runner.map
      (fun (_, cfg, strategy) ->
        let attack =
          match strategy with
          | None -> Scenario.No_attack
          | Some strategy -> Scenario.Brute_force { strategy; rate; identities }
        in
        (Scenario.sweep ~cfg scale attack).Scenario.mean)
      cells
  in
  let by_cell = List.combine cells summaries in
  List.filter_map
    (fun ((collection, _, strategy), summary) ->
      match strategy with
      | None -> None
      | Some strategy ->
        let baseline =
          match
            List.find_opt
              (fun ((c, _, s), _) -> c = collection && s = None)
              by_cell
          with
          | Some (_, baseline) -> baseline
          | None -> assert false
        in
        let c = Scenario.ratios ~baseline ~attack:summary in
        Some
          {
            strategy;
            collection;
            friction = c.Scenario.friction;
            cost_ratio = c.Scenario.cost_ratio;
            delay_ratio = c.Scenario.delay_ratio;
            access_failure = c.Scenario.access_failure;
          })
    by_cell

let to_table rows =
  let table =
    Table.create
      [ "defection"; "AUs"; "coeff. friction"; "cost ratio"; "delay ratio"; "access failure" ]
  in
  List.iter
    (fun r ->
      Table.add_row table
        [
          Format.asprintf "%a" Adversary.Brute_force.pp_strategy r.strategy;
          string_of_int r.collection;
          Report.ratio r.friction;
          Report.ratio r.cost_ratio;
          Report.ratio r.delay_ratio;
          Report.sci r.access_failure;
        ])
    rows;
  table
