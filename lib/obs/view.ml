type t = {
  kind : string;
  time : float;
  poller : int option;
  voter : int option;
  claimed : int option;
  peer : int option;
  from_ : int option;
  au : int option;
  poll_id : int option;
  inner_candidates : int option;
  votes : int option;
  seconds : float option;
  role : string option;
  phase : string option;
  outcome : string option;
}

type shape = Text | Number | Integer

(* The projection: a view field per key, at its slot's index, with the
   shape its value must have. Keep it in the order of [make]'s
   arguments. *)
let keys =
  [|
    ("kind", Text);
    ("t", Number);
    ("poller", Integer);
    ("voter", Integer);
    ("claimed", Integer);
    ("peer", Integer);
    ("from", Integer);
    ("au", Integer);
    ("poll_id", Integer);
    ("inner_candidates", Integer);
    ("votes", Integer);
    ("seconds", Number);
    ("role", Text);
    ("phase", Text);
    ("outcome", Text);
  |]

let slots =
  let table = Hashtbl.create 32 in
  Array.iteri (fun slot (key, _) -> Hashtbl.replace table key slot) keys;
  table

let slot_of_key key = match Hashtbl.find slots key with slot -> slot | exception Not_found -> -1
let has valid slot = valid land (1 lsl slot) <> 0
let opt valid slot v = if has valid slot then Some v else None

let make ~valid ~kind ~time ~poller ~voter ~claimed ~peer ~from_ ~au ~poll_id
    ~inner_candidates ~votes ~seconds ~role ~phase ~outcome =
  if not (has valid 0) then None
  else
    Some
      {
        kind;
        time = (if has valid 1 then time else 0.);
        poller = opt valid 2 poller;
        voter = opt valid 3 voter;
        claimed = opt valid 4 claimed;
        peer = opt valid 5 peer;
        from_ = opt valid 6 from_;
        au = opt valid 7 au;
        poll_id = opt valid 8 poll_id;
        inner_candidates = opt valid 9 inner_candidates;
        votes = opt valid 10 votes;
        seconds = opt valid 11 seconds;
        role = opt valid 12 role;
        phase = opt valid 13 phase;
        outcome = opt valid 14 outcome;
      }

(* One pass over the object's members; as with [Json.member], the first
   binding of a key wins, whatever its type. The binary decoder
   ([Btrace.iter_views]) applies the same rule to the same slots. *)
let of_json = function
  | Json.Assoc members ->
    let seen = ref 0 and valid = ref 0 in
    let kind = ref "" and time = ref 0. and poller = ref 0 and voter = ref 0 in
    let claimed = ref 0 and peer = ref 0 and from_ = ref 0 and au = ref 0 in
    let poll_id = ref 0 and inner_candidates = ref 0 and votes = ref 0 in
    let seconds = ref 0. and role = ref "" and phase = ref "" and outcome = ref "" in
    let text slot s =
      match slot with 0 -> kind := s | 12 -> role := s | 13 -> phase := s | _ -> outcome := s
    in
    let number slot f = if slot = 1 then time := f else seconds := f in
    let integer slot n =
      match slot with
      | 2 -> poller := n
      | 3 -> voter := n
      | 4 -> claimed := n
      | 5 -> peer := n
      | 6 -> from_ := n
      | 7 -> au := n
      | 8 -> poll_id := n
      | 9 -> inner_candidates := n
      | _ -> votes := n
    in
    List.iter
      (fun (key, v) ->
        let slot = slot_of_key key in
        let bit = 1 lsl slot in
        if slot >= 0 && !seen land bit = 0 then begin
          seen := !seen lor bit;
          match (snd keys.(slot), v) with
          | Text, Json.String s ->
            valid := !valid lor bit;
            text slot s
          | Number, Json.Int n ->
            valid := !valid lor bit;
            number slot (float_of_int n)
          | Number, Json.Float f ->
            valid := !valid lor bit;
            number slot f
          | Integer, Json.Int n ->
            valid := !valid lor bit;
            integer slot n
          | _ -> ()
        end)
      members;
    make ~valid:!valid ~kind:!kind ~time:!time ~poller:!poller ~voter:!voter
      ~claimed:!claimed ~peer:!peer ~from_:!from_ ~au:!au ~poll_id:!poll_id
      ~inner_candidates:!inner_candidates ~votes:!votes ~seconds:!seconds ~role:!role
      ~phase:!phase ~outcome:!outcome
  | _ -> None
