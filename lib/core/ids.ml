module Identity = struct
  type t = int

  let compare = Int.compare
  let equal = Int.equal
  let pp ppf id = Format.fprintf ppf "peer-%d" id
end

module Au_id = struct
  type t = int

  let compare = Int.compare
  let equal = Int.equal
  let pp ppf id = Format.fprintf ppf "au-%d" id
end
