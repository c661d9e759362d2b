module Int_tbl = Repro_prelude.Keyed_tbl.Int

type t = {
  au : Ids.Au_id.t;
  blocks : int;
  deviations : int Int_tbl.t;  (* block -> non-zero version *)
}

let create ~au ~blocks =
  if blocks <= 0 then invalid_arg "Replica.create: blocks must be positive";
  { au; blocks; deviations = Int_tbl.create 4 }

let au t = t.au
let block_count t = t.blocks

let check_block t block =
  if block < 0 || block >= t.blocks then invalid_arg "Replica: block out of range"

let version t block =
  check_block t block;
  match Int_tbl.find_opt t.deviations block with None -> 0 | Some v -> v

let is_damaged t = Int_tbl.length t.deviations > 0

let damaged_blocks t =
  Int_tbl.fold (fun block v acc -> (block, v) :: acc) t.deviations []
  |> List.sort compare

let damage t ~block ~version =
  check_block t block;
  if version = 0 then invalid_arg "Replica.damage: version 0 is the publisher content";
  let was_clean = not (is_damaged t) in
  Int_tbl.replace t.deviations block version;
  was_clean

let write t ~block ~version =
  check_block t block;
  let was_damaged = is_damaged t in
  if version = 0 then Int_tbl.remove t.deviations block
  else Int_tbl.replace t.deviations block version;
  was_damaged && not (is_damaged t)

let snapshot = damaged_blocks
