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

(* One pass over the object's members; as with [Json.member], the first
   binding of a key wins, whatever its type. *)
let of_json = function
  | Json.Assoc members ->
    let seen = ref 0 in
    let first bit cell conv v =
      if !seen land bit = 0 then begin
        seen := !seen lor bit;
        cell := conv v
      end
    in
    let kind = ref None and time = ref None and poller = ref None and voter = ref None in
    let claimed = ref None and peer = ref None and from_ = ref None and au = ref None in
    let poll_id = ref None and inner_candidates = ref None and votes = ref None in
    let seconds = ref None and role = ref None and phase = ref None and outcome = ref None in
    List.iter
      (fun (key, v) ->
        match key with
        | "kind" -> first 0x1 kind Json.string_value v
        | "t" -> first 0x2 time Json.to_float v
        | "poller" -> first 0x4 poller Json.to_int v
        | "voter" -> first 0x8 voter Json.to_int v
        | "claimed" -> first 0x10 claimed Json.to_int v
        | "peer" -> first 0x20 peer Json.to_int v
        | "from" -> first 0x40 from_ Json.to_int v
        | "au" -> first 0x80 au Json.to_int v
        | "poll_id" -> first 0x100 poll_id Json.to_int v
        | "inner_candidates" -> first 0x200 inner_candidates Json.to_int v
        | "votes" -> first 0x400 votes Json.to_int v
        | "seconds" -> first 0x800 seconds Json.to_float v
        | "role" -> first 0x1000 role Json.string_value v
        | "phase" -> first 0x2000 phase Json.string_value v
        | "outcome" -> first 0x4000 outcome Json.string_value v
        | _ -> ())
      members;
    Option.map
      (fun kind ->
        {
          kind;
          time = Option.value ~default:0. !time;
          poller = !poller;
          voter = !voter;
          claimed = !claimed;
          peer = !peer;
          from_ = !from_;
          au = !au;
          poll_id = !poll_id;
          inner_candidates = !inner_candidates;
          votes = !votes;
          seconds = !seconds;
          role = !role;
          phase = !phase;
          outcome = !outcome;
        })
      !kind
  | _ -> None
