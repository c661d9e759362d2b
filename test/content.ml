module Rng = Repro_prelude.Rng

type t = { blocks : bytes array }

let synthesize ~rng ~blocks ~block_bytes =
  if blocks <= 0 || block_bytes <= 0 then
    invalid_arg "Content.synthesize: dimensions must be positive";
  let make_block () =
    Bytes.init block_bytes (fun _ -> Char.chr (Rng.int rng 256))
  in
  { blocks = Array.init blocks (fun _ -> make_block ()) }

let block_count t = Array.length t.blocks

let block t i =
  if i < 0 || i >= Array.length t.blocks then invalid_arg "Content.block: out of range";
  Bytes.to_string t.blocks.(i)

let copy t = { blocks = Array.map Bytes.copy t.blocks }

let corrupt t ~rng ~block =
  if block < 0 || block >= Array.length t.blocks then
    invalid_arg "Content.corrupt: out of range";
  let b = t.blocks.(block) in
  let i = Rng.int rng (Bytes.length b) in
  (* XOR with a non-zero byte always changes the content. *)
  let flip = 1 + Rng.int rng 255 in
  Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor flip))

let write t ~block ~content =
  if block < 0 || block >= Array.length t.blocks then
    invalid_arg "Content.write: out of range";
  if String.length content <> Bytes.length t.blocks.(block) then
    invalid_arg "Content.write: wrong block size";
  t.blocks.(block) <- Bytes.of_string content

let vote t ~nonce =
  let _, hashes =
    Array.fold_left
      (fun (ctx, acc) b ->
        let ctx = Sha1.feed ctx (Bytes.to_string b) in
        (ctx, Sha1.peek ctx :: acc))
      (Sha1.feed (Sha1.init ()) nonce, [])
      t.blocks
  in
  List.rev hashes

let first_divergence t ~nonce ~vote:theirs =
  let mine = Array.of_list (vote t ~nonce) in
  let theirs = Array.of_list theirs in
  let n = min (Array.length mine) (Array.length theirs) in
  let rec scan i =
    if i >= n then if Array.length mine = Array.length theirs then None else Some n
    else if String.equal mine.(i) theirs.(i) then scan (i + 1)
    else Some i
  in
  scan 0
