type t = { stopped : bool array; mutable count : int }

let create ~nodes =
  if nodes <= 0 then invalid_arg "Partition.create: nodes must be positive";
  { stopped = Array.make nodes false; count = 0 }

let stop t n =
  if not t.stopped.(n) then begin
    t.stopped.(n) <- true;
    t.count <- t.count + 1
  end

let restore t n =
  if t.stopped.(n) then begin
    t.stopped.(n) <- false;
    t.count <- t.count - 1
  end

let restore_all t =
  Array.iteri (fun i _ -> t.stopped.(i) <- false) t.stopped;
  t.count <- 0

let blocked t ~src ~dst = t.stopped.(src) || t.stopped.(dst)
let stopped_count t = t.count
