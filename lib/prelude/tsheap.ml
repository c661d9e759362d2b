(* Structure-of-arrays binary min-heap on (time, seq) keys.

   Sift loops use the hole technique: the moving entry is held in
   locals and slots shift into the hole, so a sift of depth d does d
   lane reads and d lane writes instead of 3d swaps. Comparisons are
   monomorphic float/int operators on flat lanes and every lane is
   unboxed, so a lane write is a plain store — the entire point of
   this module; see the .mli. *)

type t = {
  mutable time : float array;
  mutable seq : int array;
  mutable payload : int array;
  mutable size : int;
}

let create () = { time = [||]; seq = [||]; payload = [||]; size = 0 }
let length t = t.size
let[@inline] is_empty t = t.size = 0

let grow t =
  let cap = Array.length t.seq in
  let ncap = if cap = 0 then 16 else 2 * cap in
  let ntime = Array.make ncap 0. in
  let nseq = Array.make ncap 0 in
  let npayload = Array.make ncap 0 in
  Array.blit t.time 0 ntime 0 t.size;
  Array.blit t.seq 0 nseq 0 t.size;
  Array.blit t.payload 0 npayload 0 t.size;
  t.time <- ntime;
  t.seq <- nseq;
  t.payload <- npayload

let add t ~time ~seq payload =
  if t.size = Array.length t.seq then grow t;
  let times = t.time and seqs = t.seq and payloads = t.payload in
  (* Sift up with a hole: parents later in (time, seq) order shift down
     until the new entry's slot is found. *)
  let i = ref t.size in
  t.size <- t.size + 1;
  let continue_ = ref true in
  while !continue_ && !i > 0 do
    let parent = (!i - 1) / 2 in
    let pt = Array.unsafe_get times parent in
    if time < pt || (time = pt && seq < Array.unsafe_get seqs parent) then begin
      Array.unsafe_set times !i pt;
      Array.unsafe_set seqs !i (Array.unsafe_get seqs parent);
      Array.unsafe_set payloads !i (Array.unsafe_get payloads parent);
      i := parent
    end
    else continue_ := false
  done;
  Array.unsafe_set times !i time;
  Array.unsafe_set seqs !i seq;
  Array.unsafe_set payloads !i payload

let[@inline] min_time t =
  if t.size = 0 then invalid_arg "Tsheap.min_time: empty heap";
  Array.unsafe_get t.time 0

let[@inline] min_seq t =
  if t.size = 0 then invalid_arg "Tsheap.min_seq: empty heap";
  Array.unsafe_get t.seq 0

let[@inline] min_payload t =
  if t.size = 0 then invalid_arg "Tsheap.min_payload: empty heap";
  Array.unsafe_get t.payload 0

let drop_min t =
  if t.size = 0 then invalid_arg "Tsheap.drop_min: empty heap";
  let last = t.size - 1 in
  t.size <- last;
  if last > 0 then begin
    let times = t.time and seqs = t.seq and payloads = t.payload in
    (* Move the last entry into the root's hole, sifting the hole down
       toward the smaller child until the entry fits. *)
    let mt = Array.unsafe_get times last in
    let ms = Array.unsafe_get seqs last in
    let mp = Array.unsafe_get payloads last in
    let i = ref 0 in
    let continue_ = ref true in
    while !continue_ do
      let l = (2 * !i) + 1 in
      if l >= last then continue_ := false
      else begin
        (* Pick the smaller child. *)
        let r = l + 1 in
        let c =
          if r < last then begin
            let lt = Array.unsafe_get times l and rt = Array.unsafe_get times r in
            if rt < lt || (rt = lt && Array.unsafe_get seqs r < Array.unsafe_get seqs l)
            then r
            else l
          end
          else l
        in
        let ct = Array.unsafe_get times c in
        if ct < mt || (ct = mt && Array.unsafe_get seqs c < ms) then begin
          Array.unsafe_set times !i ct;
          Array.unsafe_set seqs !i (Array.unsafe_get seqs c);
          Array.unsafe_set payloads !i (Array.unsafe_get payloads c);
          i := c
        end
        else continue_ := false
      end
    done;
    Array.unsafe_set times !i mt;
    Array.unsafe_set seqs !i ms;
    Array.unsafe_set payloads !i mp
  end

let pop t =
  if t.size = 0 then None
  else begin
    let p = min_payload t in
    drop_min t;
    Some p
  end

let clear t =
  t.time <- [||];
  t.seq <- [||];
  t.payload <- [||];
  t.size <- 0
