module Rng = Repro_prelude.Rng

type node = int
type t = { bandwidth : float array; latency : float array }

let bandwidth_choices_bps = [| 1.5e6; 10.0e6; 100.0e6 |]

let create ~rng ~nodes =
  if nodes <= 0 then invalid_arg "Topology.create: nodes must be positive";
  let bandwidth = Array.init nodes (fun _ -> Rng.pick rng bandwidth_choices_bps) in
  let latency = Array.init nodes (fun _ -> Rng.uniform rng ~lo:0.0005 ~hi:0.015) in
  { bandwidth; latency }

let node_count t = Array.length t.bandwidth
let bandwidth_bps t n = t.bandwidth.(n)
let path_latency t ~src ~dst = t.latency.(src) +. t.latency.(dst)

let transfer_time t ~src ~dst ~bytes =
  let bits = 8. *. float_of_int bytes in
  let bottleneck = min t.bandwidth.(src) t.bandwidth.(dst) in
  path_latency t ~src ~dst +. (bits /. bottleneck)
