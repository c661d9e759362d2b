module Duration = Repro_prelude.Duration

type outcome = Success | Inquorate | Alarmed

let outcome_to_string = function
  | Success -> "success"
  | Inquorate -> "inquorate"
  | Alarmed -> "alarmed"

let outcome_of_string = function
  | "success" -> Some Success
  | "inquorate" -> Some Inquorate
  | "alarmed" -> Some Alarmed
  | _ -> None

type span = {
  poller : int;
  au : int;
  poll_id : int;
  started_at : float;
  inner_candidates : int;
  mutable solicitations : int;
  mutable invitations_accepted : int;
  mutable invitations_refused : int;
  mutable invitations_dropped : int;
  mutable votes : int;
  mutable first_vote_at : float option;
  mutable evaluation_at : float option;
  mutable votes_at_evaluation : int;
  mutable repairs : int;
  mutable first_repair_at : float option;
  mutable concluded_at : float option;
  mutable outcome : outcome option;
  mutable effort_spent : float;
  mutable effort_received : float;
  mutable late_events : int;
}

let solicitation_duration span =
  Option.map (fun at -> at -. span.started_at) span.evaluation_at

let evaluation_duration span =
  match span.evaluation_at with
  | None -> None
  | Some start -> (
    match (span.first_repair_at, span.concluded_at) with
    | Some stop, _ | None, Some stop -> Some (stop -. start)
    | None, None -> None)

let repair_duration span =
  match (span.first_repair_at, span.concluded_at) with
  | Some start, Some stop -> Some (stop -. start)
  | _ -> None

let total_duration span = Option.map (fun at -> at -. span.started_at) span.concluded_at

type anomaly =
  | Malformed_line of { line : int; error : string }
  | Orphan_event of { kind : string; poller : int; au : int; poll_id : int; time : float }
  | Abandoned_poll of { poller : int; au : int; poll_id : int; started_at : float }
  | Duplicate_conclusion of { poller : int; au : int; poll_id : int; time : float }
  | Poller_event_after_conclusion of {
      kind : string;
      poller : int;
      au : int;
      poll_id : int;
      time : float;
    }

let pp_anomaly ppf = function
  | Malformed_line { line; error } ->
    Format.fprintf ppf "line %d: malformed trace line (%s)" line error
  | Orphan_event { kind; poller; au; poll_id; time } ->
    Format.fprintf ppf "[%a] %s for poll %d by %d on au %d, which never started"
      Duration.pp time kind poll_id poller au
  | Abandoned_poll { poller; au; poll_id; started_at } ->
    Format.fprintf ppf
      "poll %d by %d on au %d (started %a) superseded without a conclusion" poll_id
      poller au Duration.pp started_at
  | Duplicate_conclusion { poller; au; poll_id; time } ->
    Format.fprintf ppf "[%a] duplicate conclusion for poll %d by %d on au %d" Duration.pp
      time poll_id poller au
  | Poller_event_after_conclusion { kind; poller; au; poll_id; time } ->
    Format.fprintf ppf "[%a] %s by poller %d after poll %d on au %d concluded"
      Duration.pp time kind poller poll_id au

let anomaly_to_json = function
  | Malformed_line { line; error } ->
    Json.Assoc
      [
        ("anomaly", Json.String "malformed_line");
        ("line", Json.Int line);
        ("error", Json.String error);
      ]
  | Orphan_event { kind; poller; au; poll_id; time } ->
    Json.Assoc
      [
        ("anomaly", Json.String "orphan_event");
        ("kind", Json.String kind);
        ("poller", Json.Int poller);
        ("au", Json.Int au);
        ("poll_id", Json.Int poll_id);
        ("t", Json.Float time);
      ]
  | Abandoned_poll { poller; au; poll_id; started_at } ->
    Json.Assoc
      [
        ("anomaly", Json.String "abandoned_poll");
        ("poller", Json.Int poller);
        ("au", Json.Int au);
        ("poll_id", Json.Int poll_id);
        ("t", Json.Float started_at);
      ]
  | Duplicate_conclusion { poller; au; poll_id; time } ->
    Json.Assoc
      [
        ("anomaly", Json.String "duplicate_conclusion");
        ("poller", Json.Int poller);
        ("au", Json.Int au);
        ("poll_id", Json.Int poll_id);
        ("t", Json.Float time);
      ]
  | Poller_event_after_conclusion { kind; poller; au; poll_id; time } ->
    Json.Assoc
      [
        ("anomaly", Json.String "poller_event_after_conclusion");
        ("kind", Json.String kind);
        ("poller", Json.Int poller);
        ("au", Json.Int au);
        ("poll_id", Json.Int poll_id);
        ("t", Json.Float time);
      ]

type key = int * int * int

type t = {
  open_spans : (key, span) Hashtbl.t;
  (* The latest open poll per (poller, au): a second start on the same
     pair supersedes — and thereby abandons — the first. *)
  open_by_pair : (int * int, span) Hashtbl.t;
  closed : (key, span) Hashtbl.t;
  mutable closed_rev : span list;
  mutable anomalies_rev : anomaly list;
  orphans : (key, unit) Hashtbl.t;
  mutable orphan_events : int;
  mutable late : int;
  mutable events : int;
}

let create () =
  {
    open_spans = Hashtbl.create 256;
    open_by_pair = Hashtbl.create 256;
    closed = Hashtbl.create 1024;
    closed_rev = [];
    anomalies_rev = [];
    orphans = Hashtbl.create 64;
    orphan_events = 0;
    late = 0;
    events = 0;
  }

let add_anomaly t a = t.anomalies_rev <- a :: t.anomalies_rev

let note_malformed t ~line ~error = add_anomaly t (Malformed_line { line; error })

let close t span =
  Hashtbl.replace t.closed (span.poller, span.au, span.poll_id) span;
  t.closed_rev <- span :: t.closed_rev

let lookup t key =
  match Hashtbl.find_opt t.open_spans key with
  | Some s -> `Open s
  | None -> (
    match Hashtbl.find_opt t.closed key with Some s -> `Closed s | None -> `Unknown)

let note_orphan t ~kind ~time ((poller, au, poll_id) as key) =
  t.orphan_events <- t.orphan_events + 1;
  if not (Hashtbl.mem t.orphans key) then begin
    Hashtbl.replace t.orphans key ();
    add_anomaly t (Orphan_event { kind; poller; au; poll_id; time })
  end

(* The open span for [key], or [None] after accounting for the event
   against a closed one: a poller must fall silent after concluding
   (anomaly if not), while voter-side events legitimately cross the
   conclusion in flight (late, informational). Returning the span
   rather than taking an update callback keeps the per-event cost to
   the one [Some] cell — the callbacks captured [time] and allocated a
   closure per event. *)
let open_span t ~kind ~time ~emitter ((poller, au, poll_id) as key) =
  match Hashtbl.find t.open_spans key with
  | span -> Some span
  | exception Not_found -> (
    match Hashtbl.find t.closed key with
    | span ->
      if emitter = poller then
        add_anomaly t (Poller_event_after_conclusion { kind; poller; au; poll_id; time })
      else begin
        span.late_events <- span.late_events + 1;
        t.late <- t.late + 1
      end;
      None
    | exception Not_found ->
      note_orphan t ~kind ~time key;
      None)

let start_span t ~time ~poller ~au ~poll_id ~inner_candidates =
  (match Hashtbl.find_opt t.open_by_pair (poller, au) with
  | Some prev when prev.poll_id <> poll_id ->
    add_anomaly t
      (Abandoned_poll
         {
           poller = prev.poller;
           au = prev.au;
           poll_id = prev.poll_id;
           started_at = prev.started_at;
         });
    Hashtbl.remove t.open_spans (prev.poller, prev.au, prev.poll_id);
    close t prev
  | _ -> ());
  if not (Hashtbl.mem t.open_spans (poller, au, poll_id)) then begin
    let span =
      {
        poller;
        au;
        poll_id;
        started_at = time;
        inner_candidates;
        solicitations = 0;
        invitations_accepted = 0;
        invitations_refused = 0;
        invitations_dropped = 0;
        votes = 0;
        first_vote_at = None;
        evaluation_at = None;
        votes_at_evaluation = 0;
        repairs = 0;
        first_repair_at = None;
        concluded_at = None;
        outcome = None;
        effort_spent = 0.;
        effort_received = 0.;
        late_events = 0;
      }
    in
    Hashtbl.replace t.open_spans (poller, au, poll_id) span;
    Hashtbl.replace t.open_by_pair (poller, au) span
  end

let conclude t ~time ~poller ~au ~poll_id ~outcome =
  let key = (poller, au, poll_id) in
  match lookup t key with
  | `Open span ->
    span.concluded_at <- Some time;
    span.outcome <- outcome;
    Hashtbl.remove t.open_spans key;
    (match Hashtbl.find_opt t.open_by_pair (poller, au) with
    | Some s when s == span -> Hashtbl.remove t.open_by_pair (poller, au)
    | _ -> ());
    close t span
  | `Closed span -> (
    match span.concluded_at with
    | Some _ -> add_anomaly t (Duplicate_conclusion { poller; au; poll_id; time })
    | None ->
      (* A conclusion for a span we wrote off as abandoned: keep the
         Abandoned_poll anomaly (the supersession really happened) but
         complete the record. *)
      span.concluded_at <- Some time;
      span.outcome <- outcome)
  | `Unknown -> note_orphan t ~kind:"poll_concluded" ~time key

(* The (emitter, au, poll_id) correlation triple, shaped as the span
   key. Top level so the per-event call allocates only the result. *)
let triple (v : View.t) emitter =
  match (emitter, v.View.au, v.View.poll_id) with
  | Some p, Some a, Some id -> Some (p, a, id)
  | _ -> None

let feed_view t (v : View.t) =
  t.events <- t.events + 1;
  let kind = v.View.kind in
  let time = v.View.time in
  match kind with
  | "poll_started" -> (
    match triple v v.View.poller with
    | Some (poller, au, poll_id) ->
      let inner_candidates = Option.value ~default:0 v.View.inner_candidates in
      start_span t ~time ~poller ~au ~poll_id ~inner_candidates
    | None -> ())
  | "solicitation_sent" -> (
    match triple v v.View.poller with
    | Some ((poller, _, _) as key) -> (
      match open_span t ~kind ~time ~emitter:poller key with
      | Some span -> span.solicitations <- span.solicitations + 1
      | None -> ())
    | None -> ())
  | "invitation_dropped" -> (
    match (triple v v.View.claimed, v.View.voter) with
    | Some key, Some voter -> (
      match open_span t ~kind ~time ~emitter:voter key with
      | Some span -> span.invitations_dropped <- span.invitations_dropped + 1
      | None -> ())
    | _ -> ())
  | "invitation_refused" -> (
    match (triple v v.View.poller, v.View.voter) with
    | Some key, Some voter -> (
      match open_span t ~kind ~time ~emitter:voter key with
      | Some span -> span.invitations_refused <- span.invitations_refused + 1
      | None -> ())
    | _ -> ())
  | "invitation_accepted" -> (
    match (triple v v.View.poller, v.View.voter) with
    | Some key, Some voter -> (
      match open_span t ~kind ~time ~emitter:voter key with
      | Some span -> span.invitations_accepted <- span.invitations_accepted + 1
      | None -> ())
    | _ -> ())
  | "vote_sent" -> (
    match (triple v v.View.poller, v.View.voter) with
    | Some key, Some voter -> (
      match open_span t ~kind ~time ~emitter:voter key with
      | Some span ->
        span.votes <- span.votes + 1;
        if span.first_vote_at = None then span.first_vote_at <- Some time
      | None -> ())
    | _ -> ())
  | "evaluation_started" -> (
    match triple v v.View.poller with
    | Some ((poller, _, _) as key) -> (
      match open_span t ~kind ~time ~emitter:poller key with
      | Some span ->
        if span.evaluation_at = None then begin
          span.evaluation_at <- Some time;
          span.votes_at_evaluation <- Option.value ~default:0 v.View.votes
        end
      | None -> ())
    | None -> ())
  | "repair_applied" -> (
    match triple v v.View.poller with
    | Some ((poller, _, _) as key) -> (
      match open_span t ~kind ~time ~emitter:poller key with
      | Some span ->
        span.repairs <- span.repairs + 1;
        if span.first_repair_at = None then span.first_repair_at <- Some time
      | None -> ())
    | None -> ())
  | "poll_concluded" -> (
    match triple v v.View.poller with
    | Some (poller, au, poll_id) ->
      let outcome = Option.bind v.View.outcome outcome_of_string in
      conclude t ~time ~poller ~au ~poll_id ~outcome
    | None -> ())
  | "effort_charged" -> (
    match (triple v v.View.poller, v.View.peer, v.View.seconds) with
    | Some key, Some peer, Some seconds -> (
      match open_span t ~kind ~time ~emitter:peer key with
      | Some span -> span.effort_spent <- span.effort_spent +. seconds
      | None -> ())
    | _ -> ())
  | "effort_received" -> (
    (* The event names both endpoints but not which is the poller:
       resolve against the spans we know. Receipts the poller emits
       (vote proofs) key on [peer]; receipts a voter emits (intro and
       remaining proofs) key on [from]. *)
    match (v.View.peer, v.View.from_, v.View.au, v.View.poll_id, v.View.seconds) with
    | Some peer, Some from_, Some au, Some poll_id, Some seconds -> (
      let k_poller = (peer, au, poll_id) and k_voter = (from_, au, poll_id) in
      match (lookup t k_poller, lookup t k_voter) with
      | `Open span, _ | _, `Open span ->
        span.effort_received <- span.effort_received +. seconds
      | `Closed _, _ ->
        (* The receiver was the poller: it must not book receipts
           after its own conclusion. *)
        add_anomaly t
          (Poller_event_after_conclusion { kind; poller = peer; au; poll_id; time })
      | _, `Closed span ->
        span.late_events <- span.late_events + 1;
        t.late <- t.late + 1
      | `Unknown, `Unknown -> note_orphan t ~kind ~time k_voter)
    | _ -> ())
  | _ -> ()

let closed_spans t = List.rev t.closed_rev

let open_spans t =
  Hashtbl.fold (fun _ s acc -> s :: acc) t.open_spans []
  |> List.sort (fun a b -> compare (a.started_at, a.poller, a.au) (b.started_at, b.poller, b.au))

let spans t =
  List.sort
    (fun a b -> compare (a.started_at, a.poller, a.au, a.poll_id) (b.started_at, b.poller, b.au, b.poll_id))
    (closed_spans t @ open_spans t)

let anomalies t = List.rev t.anomalies_rev
let anomaly_count t = List.length t.anomalies_rev
let orphan_events t = t.orphan_events
let late_events t = t.late
let event_count t = t.events

let span_to_json span =
  let opt_float name = function
    | None -> (name, Json.Null)
    | Some v -> (name, Json.Float v)
  in
  Json.Assoc
    [
      ("poller", Json.Int span.poller);
      ("au", Json.Int span.au);
      ("poll_id", Json.Int span.poll_id);
      ("started_at", Json.Float span.started_at);
      ("inner_candidates", Json.Int span.inner_candidates);
      ("solicitations", Json.Int span.solicitations);
      ("invitations_accepted", Json.Int span.invitations_accepted);
      ("invitations_refused", Json.Int span.invitations_refused);
      ("invitations_dropped", Json.Int span.invitations_dropped);
      ("votes", Json.Int span.votes);
      opt_float "first_vote_at" span.first_vote_at;
      opt_float "evaluation_at" span.evaluation_at;
      ("votes_at_evaluation", Json.Int span.votes_at_evaluation);
      ("repairs", Json.Int span.repairs);
      opt_float "first_repair_at" span.first_repair_at;
      opt_float "concluded_at" span.concluded_at;
      ( "outcome",
        match span.outcome with
        | None -> Json.Null
        | Some o -> Json.String (outcome_to_string o) );
      ("effort_spent", Json.Float span.effort_spent);
      ("effort_received", Json.Float span.effort_received);
      ("late_events", Json.Int span.late_events);
    ]
