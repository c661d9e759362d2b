module Duration = Repro_prelude.Duration

type phase = Admission | Solicitation | Voting | Evaluation | Repair

let all_phases = [ Admission; Solicitation; Voting; Evaluation; Repair ]
let phase_count = List.length all_phases

let phase_index = function
  | Admission -> 0
  | Solicitation -> 1
  | Voting -> 2
  | Evaluation -> 3
  | Repair -> 4

let phase_to_string = function
  | Admission -> "admission"
  | Solicitation -> "solicitation"
  | Voting -> "voting"
  | Evaluation -> "evaluation"
  | Repair -> "repair"

let phase_of_string = function
  | "admission" -> Some Admission
  | "solicitation" -> Some Solicitation
  | "voting" -> Some Voting
  | "evaluation" -> Some Evaluation
  | "repair" -> Some Repair
  | _ -> None

type entry = {
  peer : int;
  spent_loyal : float array;
  spent_adversary : float array;
  received : float array;
  mutable polls_started : int;
  mutable polls_succeeded : int;
  mutable polls_inquorate : int;
  mutable polls_alarmed : int;
  mutable votes_sent : int;
  mutable invitations_admitted : int;
  mutable invitations_accepted : int;
  mutable invitations_refused : int;
  mutable invitations_dropped : int;
  mutable repairs : int;
}

let sum = Array.fold_left ( +. ) 0.
let spent_loyal_total e = sum e.spent_loyal
let spent_adversary_total e = sum e.spent_adversary
let received_total e = sum e.received

type t = { peers : (int, entry) Hashtbl.t }

let create () = { peers = Hashtbl.create 64 }

let entry t peer =
  match Hashtbl.find t.peers peer with
  | e -> e
  | exception Not_found ->
    let e =
      {
        peer;
        spent_loyal = Array.make phase_count 0.;
        spent_adversary = Array.make phase_count 0.;
        received = Array.make phase_count 0.;
        polls_started = 0;
        polls_succeeded = 0;
        polls_inquorate = 0;
        polls_alarmed = 0;
        votes_sent = 0;
        invitations_admitted = 0;
        invitations_accepted = 0;
        invitations_refused = 0;
        invitations_dropped = 0;
        repairs = 0;
      }
    in
    Hashtbl.replace t.peers peer e;
    e

let feed_view t (v : View.t) =
  match v.View.kind with
  | "effort_charged" -> (
    match
      (v.View.peer, Option.bind v.View.phase phase_of_string, v.View.role, v.View.seconds)
    with
    | Some peer, Some phase, Some role, Some seconds ->
      let e = entry t peer in
      let bucket =
        if String.equal role "adversary" then e.spent_adversary else e.spent_loyal
      in
      let i = phase_index phase in
      bucket.(i) <- bucket.(i) +. seconds
    | _ -> ())
  | "effort_received" -> (
    match (v.View.peer, Option.bind v.View.phase phase_of_string, v.View.seconds) with
    | Some peer, Some phase, Some seconds ->
      let e = entry t peer in
      let i = phase_index phase in
      e.received.(i) <- e.received.(i) +. seconds
    | _ -> ())
  | "poll_started" -> (
    match v.View.poller with
    | Some poller -> let e = entry t poller in
      e.polls_started <- e.polls_started + 1
    | None -> ())
  | "poll_concluded" -> (
    match (v.View.poller, v.View.outcome) with
    | Some poller, Some outcome ->
      let e = entry t poller in
      (match outcome with
      | "success" -> e.polls_succeeded <- e.polls_succeeded + 1
      | "inquorate" -> e.polls_inquorate <- e.polls_inquorate + 1
      | "alarmed" -> e.polls_alarmed <- e.polls_alarmed + 1
      | _ -> ())
    | _ -> ())
  | "vote_sent" -> (
    match v.View.voter with
    | Some voter -> let e = entry t voter in
      e.votes_sent <- e.votes_sent + 1
    | None -> ())
  | "invitation_admitted" -> (
    match v.View.voter with
    | Some voter ->
      let e = entry t voter in
      e.invitations_admitted <- e.invitations_admitted + 1
    | None -> ())
  | "invitation_accepted" -> (
    match v.View.voter with
    | Some voter ->
      let e = entry t voter in
      e.invitations_accepted <- e.invitations_accepted + 1
    | None -> ())
  | "invitation_refused" -> (
    match v.View.voter with
    | Some voter ->
      let e = entry t voter in
      e.invitations_refused <- e.invitations_refused + 1
    | None -> ())
  | "invitation_dropped" -> (
    match v.View.voter with
    | Some voter ->
      let e = entry t voter in
      e.invitations_dropped <- e.invitations_dropped + 1
    | None -> ())
  | "repair_applied" -> (
    match v.View.poller with
    | Some poller -> let e = entry t poller in
      e.repairs <- e.repairs + 1
    | None -> ())
  | _ -> ()

let entries t =
  Hashtbl.fold (fun _ e acc -> e :: acc) t.peers []
  |> List.sort (fun a b -> compare a.peer b.peer)

let find t peer = Hashtbl.find_opt t.peers peer

type totals = {
  loyal_effort : float;
  adversary_effort : float;
  received_effort : float;
  total_polls_started : int;
  total_polls_succeeded : int;
  total_polls_inquorate : int;
  total_polls_alarmed : int;
  total_votes_sent : int;
  total_invitations_admitted : int;
  peer_count : int;
}

let totals t =
  Hashtbl.fold
    (fun _ e acc ->
      {
        loyal_effort = acc.loyal_effort +. spent_loyal_total e;
        adversary_effort = acc.adversary_effort +. spent_adversary_total e;
        received_effort = acc.received_effort +. received_total e;
        total_polls_started = acc.total_polls_started + e.polls_started;
        total_polls_succeeded = acc.total_polls_succeeded + e.polls_succeeded;
        total_polls_inquorate = acc.total_polls_inquorate + e.polls_inquorate;
        total_polls_alarmed = acc.total_polls_alarmed + e.polls_alarmed;
        total_votes_sent = acc.total_votes_sent + e.votes_sent;
        total_invitations_admitted =
          acc.total_invitations_admitted + e.invitations_admitted;
        peer_count = acc.peer_count + 1;
      })
    t.peers
    {
      loyal_effort = 0.;
      adversary_effort = 0.;
      received_effort = 0.;
      total_polls_started = 0;
      total_polls_succeeded = 0;
      total_polls_inquorate = 0;
      total_polls_alarmed = 0;
      total_votes_sent = 0;
      total_invitations_admitted = 0;
      peer_count = 0;
    }

let safe_div a b = if b > 0. then a /. b else infinity

let cost_ratio t =
  let s = totals t in
  safe_div s.adversary_effort s.loyal_effort

let effort_per_successful_poll t =
  let s = totals t in
  safe_div s.loyal_effort (float_of_int s.total_polls_succeeded)

type reconciliation = {
  loyal_delta : float;
  adversary_delta : float;
  polls_succeeded_delta : int;
  polls_inquorate_delta : int;
  polls_alarmed_delta : int;
  votes_delta : int;
  invitations_delta : int;
  ok : bool;
}

let float_tolerance = 1e-6

let relative_delta a b =
  let scale = Float.max 1. (Float.abs b) in
  Float.abs (a -. b) /. scale

let reconcile t ~loyal_effort ~adversary_effort ~polls_succeeded ~polls_inquorate
    ~polls_alarmed ~votes_supplied ~invitations_considered =
  let s = totals t in
  let loyal_delta = relative_delta s.loyal_effort loyal_effort in
  let adversary_delta = relative_delta s.adversary_effort adversary_effort in
  let polls_succeeded_delta = s.total_polls_succeeded - polls_succeeded in
  let polls_inquorate_delta = s.total_polls_inquorate - polls_inquorate in
  let polls_alarmed_delta = s.total_polls_alarmed - polls_alarmed in
  let votes_delta = s.total_votes_sent - votes_supplied in
  let invitations_delta = s.total_invitations_admitted - invitations_considered in
  {
    loyal_delta;
    adversary_delta;
    polls_succeeded_delta;
    polls_inquorate_delta;
    polls_alarmed_delta;
    votes_delta;
    invitations_delta;
    ok =
      loyal_delta <= float_tolerance
      && adversary_delta <= float_tolerance
      && polls_succeeded_delta = 0 && polls_inquorate_delta = 0
      && polls_alarmed_delta = 0 && votes_delta = 0 && invitations_delta = 0;
  }

let pp_reconciliation ppf r =
  Format.fprintf ppf
    "ledger vs metrics: %s (loyal %.2e, adversary %.2e, polls %+d/%+d/%+d, votes %+d, \
     invitations %+d)"
    (if r.ok then "reconciled" else "MISMATCH")
    r.loyal_delta r.adversary_delta r.polls_succeeded_delta r.polls_inquorate_delta
    r.polls_alarmed_delta r.votes_delta r.invitations_delta

let reconciliation_to_json r =
  Json.Assoc
    [
      ("ok", Json.Bool r.ok);
      ("loyal_delta", Json.Float r.loyal_delta);
      ("adversary_delta", Json.Float r.adversary_delta);
      ("polls_succeeded_delta", Json.Int r.polls_succeeded_delta);
      ("polls_inquorate_delta", Json.Int r.polls_inquorate_delta);
      ("polls_alarmed_delta", Json.Int r.polls_alarmed_delta);
      ("votes_delta", Json.Int r.votes_delta);
      ("invitations_delta", Json.Int r.invitations_delta);
    ]

let phase_assoc values =
  List.map (fun p -> (phase_to_string p, Json.Float values.(phase_index p))) all_phases

let entry_to_json e =
  Json.Assoc
    [
      ("peer", Json.Int e.peer);
      ("spent_loyal", Json.Assoc (phase_assoc e.spent_loyal));
      ("spent_adversary", Json.Assoc (phase_assoc e.spent_adversary));
      ("received", Json.Assoc (phase_assoc e.received));
      ("spent_loyal_total", Json.Float (spent_loyal_total e));
      ("spent_adversary_total", Json.Float (spent_adversary_total e));
      ("received_total", Json.Float (received_total e));
      ("polls_started", Json.Int e.polls_started);
      ("polls_succeeded", Json.Int e.polls_succeeded);
      ("polls_inquorate", Json.Int e.polls_inquorate);
      ("polls_alarmed", Json.Int e.polls_alarmed);
      ("votes_sent", Json.Int e.votes_sent);
      ("invitations_admitted", Json.Int e.invitations_admitted);
      ("invitations_accepted", Json.Int e.invitations_accepted);
      ("invitations_refused", Json.Int e.invitations_refused);
      ("invitations_dropped", Json.Int e.invitations_dropped);
      ("repairs", Json.Int e.repairs);
    ]

let to_json t =
  let s = totals t in
  Json.Assoc
    [
      ( "totals",
        Json.Assoc
          [
            ("loyal_effort", Json.Float s.loyal_effort);
            ("adversary_effort", Json.Float s.adversary_effort);
            ("received_effort", Json.Float s.received_effort);
            ("cost_ratio", Json.Float (cost_ratio t));
            ("effort_per_successful_poll", Json.Float (effort_per_successful_poll t));
            ("polls_started", Json.Int s.total_polls_started);
            ("polls_succeeded", Json.Int s.total_polls_succeeded);
            ("polls_inquorate", Json.Int s.total_polls_inquorate);
            ("polls_alarmed", Json.Int s.total_polls_alarmed);
            ("votes_sent", Json.Int s.total_votes_sent);
            ("peers", Json.Int s.peer_count);
          ] );
      ("peers", Json.List (List.map entry_to_json (entries t)));
    ]

let pp ppf t =
  let s = totals t in
  Format.fprintf ppf "@[<v>";
  Format.fprintf ppf
    "%5s  %10s  %10s  %10s  %5s  %12s  %5s  %13s@," "peer" "spent" "adv" "recvd"
    "polls" "ok/inq/alarm" "votes" "acc/ref/drop";
  List.iter
    (fun e ->
      Format.fprintf ppf "%5d  %10s  %10s  %10s  %5d  %4d/%3d/%4d  %5d  %4d/%4d/%3d@,"
        e.peer
        (Format.asprintf "%a" Duration.pp (spent_loyal_total e))
        (Format.asprintf "%a" Duration.pp (spent_adversary_total e))
        (Format.asprintf "%a" Duration.pp (received_total e))
        e.polls_started e.polls_succeeded e.polls_inquorate e.polls_alarmed e.votes_sent
        e.invitations_accepted e.invitations_refused e.invitations_dropped)
    (entries t);
  Format.fprintf ppf
    "total: %d peers, loyal %a, adversary %a (cost ratio %.3g), %d polls (%d ok, %d \
     inquorate, %d alarmed), %d votes@]"
    s.peer_count Duration.pp s.loyal_effort Duration.pp s.adversary_effort (cost_ratio t)
    s.total_polls_started s.total_polls_succeeded s.total_polls_inquorate
    s.total_polls_alarmed s.total_votes_sent
