module Engine = Narses.Engine
module Rng = Repro_prelude.Rng

type t = {
  population : Lockss.Population.t;
  rng : Rng.t;
  coverage : float;
  attack_duration : float;
  recuperation : float;
  mutable victims : Narses.Topology.node list;
  mutable cycles : int;
}

let begin_cycle t () =
  let rec begin_cycle_inner () =
    let victims =
      Minions.sample_fraction t.rng t.coverage (Lockss.Population.loyal_nodes t.population)
    in
    let partition = Lockss.Population.partition t.population in
    List.iter (Narses.Partition.stop partition) victims;
    t.victims <- victims;
    let engine = Lockss.Population.engine t.population in
    ignore
      (Engine.schedule_in engine ~after:t.attack_duration (fun () ->
           List.iter (Narses.Partition.restore partition) victims;
           t.victims <- [];
           t.cycles <- t.cycles + 1;
           ignore (Engine.schedule_in engine ~after:t.recuperation begin_cycle_inner)))
  in
  begin_cycle_inner ()

let attach population ~coverage ~attack_duration ~recuperation =
  if coverage <= 0. || coverage > 1. then
    invalid_arg "Pipe_stoppage.attach: coverage must be in (0,1]";
  if attack_duration <= 0. then invalid_arg "Pipe_stoppage.attach: attack_duration";
  if recuperation < 0. then invalid_arg "Pipe_stoppage.attach: recuperation";
  let t =
    {
      population;
      rng = Lockss.Population.split_rng population;
      coverage;
      attack_duration;
      recuperation;
      victims = [];
      cycles = 0;
    }
  in
  let engine = Lockss.Population.engine population in
  ignore (Engine.schedule engine ~at:(Engine.now engine) (begin_cycle t));
  t

let cycles t = t.cycles
let currently_stopped t = List.length t.victims
