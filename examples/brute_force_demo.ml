(* Brute-force effortful adversary demo: reproduces one collection's rows
   of Table 1, showing why full protocol participation (NONE) is the
   attacker's best strategy and why that is fine for the defenders.

   Usage: dune exec examples/brute_force_demo.exe *)

module Scenario = Experiments.Scenario
module Brute_force = Adversary.Brute_force

let () =
  let scale = { Scenario.bench with Scenario.runs = 1 } in
  let cfg = Scenario.config scale in
  Format.printf
    "Brute-force adversary vs %d peers x %d AUs for %g years; defection points:@."
    cfg.Lockss.Config.loyal_peers cfg.Lockss.Config.aus scale.Scenario.years;
  let baseline = (Scenario.sweep ~cfg scale Scenario.No_attack).Scenario.mean in
  let table =
    Repro_prelude.Table.create
      [ "defection"; "friction"; "cost ratio"; "delay ratio"; "access failure" ]
  in
  List.iter
    (fun strategy ->
      let attack = Scenario.Brute_force { strategy; rate = 5.; identities = 50 } in
      let summary = (Scenario.sweep ~cfg scale attack).Scenario.mean in
      let c = Scenario.ratios ~baseline ~attack:summary in
      Repro_prelude.Table.add_row table
        [
          Format.asprintf "%a" Brute_force.pp_strategy strategy;
          Experiments.Report.ratio c.Scenario.friction;
          Experiments.Report.ratio c.Scenario.cost_ratio;
          Experiments.Report.ratio c.Scenario.delay_ratio;
          Experiments.Report.sci c.Scenario.access_failure;
        ])
    [ Brute_force.Intro; Brute_force.Remaining; Brute_force.Full ];
  Repro_prelude.Table.print table;
  Format.printf
    "@.Deserting early (INTRO) wastes little defender effort but costs the attacker@.the \
     most per unit of damage; full participation (NONE) is cheapest for the@.attacker yet \
     still cannot dent preservation — the paper's central result.@."
