module Engine = Narses.Engine
module Rng = Repro_prelude.Rng
module Duration = Repro_prelude.Duration

(* Adversary identities start far above any loyal node index. *)
let first_fresh_identity = 1_000_000

type t = {
  population : Lockss.Population.t;
  rng : Rng.t;
  minions : Narses.Topology.node array;
  coverage : float;
  attack_duration : float;
  recuperation : float;
  period : float;  (* seconds between garbage invitations per victim-AU *)
  mutable next_identity : int;
  mutable sent : int;
}

let fresh_identity t =
  let id = t.next_identity in
  t.next_identity <- id + 1;
  id

let shot t victim au =
  let minion = Rng.pick t.rng t.minions in
  Minions.send (Lockss.Population.ctx t.population) ~src:minion ~dst:victim
    ~identity:(fresh_identity t) ~au
    (Lockss.Message.Garbage { claimed_bytes = 1024 });
  t.sent <- t.sent + 1

let rec begin_cycle t () =
  let engine = Lockss.Population.engine t.population in
  let victims =
    Minions.sample_fraction t.rng t.coverage (Lockss.Population.loyal_nodes t.population)
  in
  (* Lanes send garbage at the configured rate while this attack window
     lasts. *)
  Minions.lanes ~until:(Engine.now engine +. t.attack_duration) t.population t.rng
    ~period:t.period victims (shot t);
  ignore
    (Engine.schedule_in engine
       ~after:(t.attack_duration +. t.recuperation)
       (begin_cycle t))

let attach population ~minions ~coverage ~attack_duration ~recuperation
    ~invitations_per_victim_au_per_day =
  if coverage <= 0. || coverage > 1. then
    invalid_arg "Admission_flood.attach: coverage must be in (0,1]";
  if minions = [] then invalid_arg "Admission_flood.attach: needs at least one minion";
  if invitations_per_victim_au_per_day <= 0. then
    invalid_arg "Admission_flood.attach: rate must be positive";
  let t =
    {
      population;
      rng = Lockss.Population.split_rng population;
      minions = Array.of_list minions;
      coverage;
      attack_duration;
      recuperation;
      period = Duration.day /. invitations_per_victim_au_per_day;
      next_identity = first_fresh_identity;
      sent = 0;
    }
  in
  let engine = Lockss.Population.engine population in
  ignore (Engine.schedule engine ~at:(Engine.now engine) (begin_cycle t));
  t

let invitations_sent t = t.sent
