(* Pipe-stoppage attack demo: a network-level adversary silences most of
   the population in repeating waves; the run is compared with an
   identical unattacked deployment, reporting the paper's metrics.

   Usage: dune exec examples/pipe_stoppage_demo.exe *)

module Duration = Repro_prelude.Duration
module Scenario = Experiments.Scenario

let () =
  let scale = { Scenario.bench with Scenario.runs = 1 } in
  let cfg = Scenario.config scale in
  let attack =
    Scenario.Pipe_stoppage
      {
        coverage = 0.7;
        duration = Duration.of_days 90.;
        recuperation = Duration.of_days 30.;
      }
  in
  Format.printf
    "Pipe stoppage: 70%% of %d peers silenced for 90-day waves (30-day recuperation)@."
    cfg.Lockss.Config.loyal_peers;
  Format.printf "Simulating %g years, attack vs. no-attack baseline...@."
    scale.Scenario.years;
  let c = (Scenario.compare ~cfg scale attack).Scenario.ratios in
  Format.printf "@.baseline:@.%a@." Lockss.Metrics.pp_summary c.Scenario.baseline;
  Format.printf "@.under attack:@.%a@." Lockss.Metrics.pp_summary c.Scenario.attack;
  Format.printf
    "@.access failure probability: %.2e (baseline %.2e)@.delay ratio: %.2f@.coefficient \
     of friction: %.2f@."
    c.Scenario.access_failure
    c.Scenario.baseline.Lockss.Metrics.access_failure_probability c.Scenario.delay_ratio
    c.Scenario.friction;
  Format.printf
    "@.The attack slows auditing while it lasts, but untargeted windows let peers@.catch \
     up: preservation degrades gracefully rather than failing.@."
