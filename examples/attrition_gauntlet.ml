(* The attrition gauntlet: one deployment, every adversary in the paper
   (and the retained-defense subversion adversary), one scoreboard.

   Usage: dune exec examples/attrition_gauntlet.exe *)

module Duration = Repro_prelude.Duration
module Table = Repro_prelude.Table
module Scenario = Experiments.Scenario
module Report = Experiments.Report

let () =
  let scale = { Scenario.bench with Scenario.runs = 1 } in
  let cfg = Scenario.config scale in
  Format.printf
    "Attrition gauntlet: %d peers x %d AUs, %g simulated years per adversary.@.@."
    cfg.Lockss.Config.loyal_peers cfg.Lockss.Config.aus scale.Scenario.years;
  let baseline = (Scenario.sweep ~cfg scale Scenario.No_attack).Scenario.mean in
  let table =
    Table.create
      [ "adversary"; "access failure"; "delay"; "friction"; "cost ratio"; "verdict" ]
  in
  let verdict (c : Scenario.comparison) =
    if c.Scenario.delay_ratio > 3. || c.Scenario.access_failure > 0.01 then "degrades"
    else if c.Scenario.friction > 1.5 then "costs effort only"
    else "shrugged off"
  in
  let contend name attack =
    let summary = (Scenario.sweep ~cfg scale attack).Scenario.mean in
    let c = Scenario.ratios ~baseline ~attack:summary in
    Table.add_row table
      [
        name;
        Report.sci c.Scenario.access_failure;
        Report.ratio c.Scenario.delay_ratio;
        Report.ratio c.Scenario.friction;
        Report.ratio c.Scenario.cost_ratio;
        verdict c;
      ]
  in
  let day = Duration.of_days in
  contend "pipe stoppage 50% x 90d"
    (Scenario.Pipe_stoppage { coverage = 0.5; duration = day 90.; recuperation = day 30. });
  contend "pipe stoppage 100% x 180d"
    (Scenario.Pipe_stoppage { coverage = 1.0; duration = day 180.; recuperation = day 30. });
  contend "admission flood 100%"
    (Scenario.Admission_flood
       { coverage = 1.0; duration = Duration.of_years 2.; recuperation = day 30.; rate = 24. });
  contend "vote flood" (Scenario.Vote_flood { rate = 10. });
  contend "brute force INTRO"
    (Scenario.Brute_force { strategy = Adversary.Brute_force.Intro; rate = 5.; identities = 50 });
  contend "brute force REMAINING"
    (Scenario.Brute_force
       { strategy = Adversary.Brute_force.Remaining; rate = 5.; identities = 50 });
  contend "brute force NONE"
    (Scenario.Brute_force { strategy = Adversary.Brute_force.Full; rate = 5.; identities = 50 });
  contend "everything at once"
    (Scenario.Combined
       [
         Scenario.Pipe_stoppage { coverage = 0.5; duration = day 90.; recuperation = day 30. };
         Scenario.Admission_flood
           { coverage = 1.0; duration = Duration.of_years 2.; recuperation = day 30.; rate = 24. };
         Scenario.Brute_force
           { strategy = Adversary.Brute_force.Full; rate = 5.; identities = 50 };
       ]);
  Table.print table;
  (* Subversion plays for different stakes (silent corruption), so it gets
     its own lines. *)
  Format.printf "@.content subversion (stealth, 30%% of peers compromised):@.";
  List.iter
    (fun strategy ->
      let r =
        Scenario.run ~cfg ~seed:scale.Scenario.seed ~years:scale.Scenario.years
          (Scenario.Subversion { fraction = 0.3; strategy })
      in
      let counter name = List.assoc name r.Scenario.adversary in
      Format.printf "  %a: %d corrupt votes, %d alarms, %d silently corrupted replicas@."
        Adversary.Subversion.pp_strategy strategy (counter "corrupt_votes")
        r.Scenario.summary.Lockss.Metrics.polls_alarmed (counter "corrupted_replicas"))
    [ Adversary.Subversion.Aggressive; Adversary.Subversion.Patient ];
  Format.printf
    "@.No adversary silently corrupts content; the loudest merely raise the@.preservation \
     bill by a bounded constant — the paper's bottom line.@."
