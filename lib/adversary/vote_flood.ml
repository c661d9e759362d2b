module Rng = Repro_prelude.Rng
module Duration = Repro_prelude.Duration

(* Yet another identity space, disjoint from the other adversaries'. *)
let first_identity = 3_000_000

type t = {
  population : Lockss.Population.t;
  rng : Rng.t;
  minions : Narses.Topology.node array;
  period : float;
  mutable next_identity : int;
  mutable sent : int;
}

let shot t victim au =
  let identity = t.next_identity in
  t.next_identity <- identity + 1;
  let minion = Rng.pick t.rng t.minions in
  (* Seeded runs depend on this draw order: the vote's nonce, then the
     guessed poll id. *)
  let nonce = Rng.bits64 t.rng in
  (* A guessed poll id: real ids are per-poller counters, so collisions
     with an open poll are essentially impossible, and even a collision
     fails the per-candidate match. *)
  let poll_id = Rng.int t.rng 1_000_000 in
  let vote =
    {
      Lockss.Vote.voter = identity;
      nonce;
      proof = Effort.Proof.forged ~claimed_cost:1.0;
      snapshot = [];
      nominations = [];
      bogus = true;
    }
  in
  Minions.send (Lockss.Population.ctx t.population) ~src:minion ~dst:victim ~identity ~au
    (Lockss.Message.Vote_msg { poll_id; vote });
  t.sent <- t.sent + 1

let attach population ~minions ~votes_per_victim_au_per_day =
  if minions = [] then invalid_arg "Vote_flood.attach: needs at least one minion";
  if votes_per_victim_au_per_day <= 0. then
    invalid_arg "Vote_flood.attach: rate must be positive";
  let t =
    {
      population;
      rng = Lockss.Population.split_rng population;
      minions = Array.of_list minions;
      period = Duration.day /. votes_per_victim_au_per_day;
      next_identity = first_identity;
      sent = 0;
    }
  in
  Minions.lanes population t.rng ~period:t.period
    (Lockss.Population.loyal_nodes population)
    (shot t);
  t

let votes_sent t = t.sent
