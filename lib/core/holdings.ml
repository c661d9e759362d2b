type t =
  | Full of { peers : int; aus : int }
  | Sparse of { peers : int; per_au : int array array }

let full ~peers ~aus = Full { peers; aus }

let sparse ~peers per_au =
  Array.iter
    (fun holders ->
      for i = 1 to Array.length holders - 1 do
        if holders.(i - 1) >= holders.(i) then
          invalid_arg "Holdings.sparse: holder sets must be strictly ascending"
      done)
    per_au;
  Sparse { peers; per_au }

let peers = function Full { peers; _ } | Sparse { peers; _ } -> peers

let holds t ~peer ~au =
  match t with
  | Full { peers; aus } -> peer >= 0 && peer < peers && au >= 0 && au < aus
  | Sparse { per_au; _ } ->
    let holders = per_au.(au) in
    let lo = ref 0 and hi = ref (Array.length holders) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if holders.(mid) < peer then lo := mid + 1 else hi := mid
    done;
    !lo < Array.length holders && holders.(!lo) = peer

let replicas = function
  | Full { peers; aus } -> peers * aus
  | Sparse { per_au; _ } ->
    Array.fold_left (fun acc holders -> acc + Array.length holders) 0 per_au

let fill_holders t ~au ~limit ~excluding into =
  match t with
  | Full { peers; _ } ->
    let bound = min peers limit in
    let skip = excluding >= 0 && excluding < bound in
    let n = if skip then bound - 1 else bound in
    if n > Array.length into then invalid_arg "Holdings.fill_holders: buffer too short";
    for i = 0 to n - 1 do
      into.(i) <- (if skip && i >= excluding then i + 1 else i)
    done;
    n
  | Sparse { per_au; _ } ->
    let n = ref 0 in
    Array.iter
      (fun h ->
        if h < limit && h <> excluding then begin
          into.(!n) <- h;
          incr n
        end)
      per_au.(au);
    !n
