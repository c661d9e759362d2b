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
  (* One job per (collection, attack) cell, each collection's baseline
     first, all fanned out over Runner workers at once; results come
     back in job order, so each baseline is found by position. *)
  let attacks =
    Scenario.No_attack
    :: List.map (fun strategy -> Scenario.Brute_force { strategy; rate; identities }) strategies
  in
  let summaries =
    Array.of_list
      (Runner.map
         (fun (cfg, attack) -> (Scenario.sweep ~cfg scale attack).Scenario.mean)
         (List.concat_map
            (fun collection ->
              let cfg = { (Scenario.config scale) with Lockss.Config.aus = collection } in
              List.map (fun attack -> (cfg, attack)) attacks)
            collections))
  in
  List.concat
    (List.mapi
       (fun i collection ->
         let first = i * List.length attacks in
         let baseline = summaries.(first) in
         List.mapi
           (fun j strategy ->
             let c = Scenario.ratios ~baseline ~attack:summaries.(first + 1 + j) in
             {
               strategy;
               collection;
               friction = c.Scenario.friction;
               cost_ratio = c.Scenario.cost_ratio;
               delay_ratio = c.Scenario.delay_ratio;
               access_failure = c.Scenario.access_failure;
             })
           strategies)
       collections)

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
