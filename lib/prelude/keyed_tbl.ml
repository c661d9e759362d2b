module Int = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash = Hashtbl.hash
end)

module Int2 = Hashtbl.Make (struct
  type t = int * int

  let equal ((a1, b1) : t) (a2, b2) = a1 = a2 && b1 = b2
  let hash = Hashtbl.hash
end)

module Int3 = Hashtbl.Make (struct
  type t = int * int * int

  let equal ((a1, b1, c1) : t) (a2, b2, c2) = a1 = a2 && b1 = b2 && c1 = c2
  let hash = Hashtbl.hash
end)
