module Rng = Repro_prelude.Rng

type t = { cost : float; byproduct : int64 * int64; genuine : bool }

let generate ~rng ~cost =
  if cost < 0. then invalid_arg "Proof.generate: negative cost";
  { cost; byproduct = (Rng.bits64 rng, Rng.bits64 rng); genuine = true }

let cost t = t.cost
let byproduct t = t.byproduct
let meets t ~required = t.genuine && t.cost >= required

let forged ~claimed_cost = { cost = claimed_cost; byproduct = (0L, 0L); genuine = false }
let is_genuine t = t.genuine
