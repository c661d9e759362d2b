module Json = Obs.Json
module Btrace = Obs.Btrace

(* -- Enumerations -------------------------------------------------------- *)

(* A closed set of payload tokens: every encoding spells a value the same
   way, and the binary encoding resolves each spelling to an atom
   registered once here. The lookup runs per event on the binary sink's
   hot path: spellings are string literals, so comparing addresses finds
   the atom without a string comparison, and the loops are top-level
   functions, not closures. *)
type 'a enum = { values : 'a list; spell : 'a -> string; atoms : (string * Btrace.atom) list }

let enum values spell =
  { values; spell; atoms = List.map (fun v -> (spell v, Btrace.atom (spell v))) values }

let parse e s = List.find_opt (fun v -> String.equal (e.spell v) s) e.values

let rec atom_by_value s = function
  | (s', a) :: rest -> if String.equal s s' then a else atom_by_value s rest
  | [] -> invalid_arg ("Trace: unregistered token " ^ s)

let rec atom_by_address s atoms = function
  | (s', a) :: rest -> if s == s' then a else atom_by_address s atoms rest
  | [] -> atom_by_value s atoms

let enum_atom e v = atom_by_address (e.spell v) e.atoms e.atoms

(* -- Effort taxonomy ---------------------------------------------------- *)

type effort_role = Loyal | Adversary

let effort_role_to_string = function Loyal -> "loyal" | Adversary -> "adversary"
let role_enum = enum [ Loyal; Adversary ] effort_role_to_string

type effort_phase = Admission | Solicitation | Voting | Evaluation | Repair

let effort_phase_to_string = function
  | Admission -> "admission"
  | Solicitation -> "solicitation"
  | Voting -> "voting"
  | Evaluation -> "evaluation"
  | Repair -> "repair"

let all_effort_phases = [ Admission; Solicitation; Voting; Evaluation; Repair ]
let phase_enum = enum all_effort_phases effort_phase_to_string

(* -- Admission paths ---------------------------------------------------- *)

type admission_path =
  | Admitted_introduced
  | Admitted_unknown
  | Admitted_known of Grade.t

let admission_path_of_decision = function
  | `Introduced -> Admitted_introduced
  | `Unknown -> Admitted_unknown
  | `Known g -> Admitted_known g

let admission_path_to_string = function
  | Admitted_introduced -> "introduced"
  | Admitted_unknown -> "unknown"
  | Admitted_known Grade.Debt -> "known_debt"
  | Admitted_known Grade.Even -> "known_even"
  | Admitted_known Grade.Credit -> "known_credit"

let path_enum =
  enum
    [
      Admitted_introduced;
      Admitted_unknown;
      Admitted_known Grade.Debt;
      Admitted_known Grade.Even;
      Admitted_known Grade.Credit;
    ]
    admission_path_to_string


(* -- Reject reasons ------------------------------------------------------ *)

type reject_reason =
  | Bad_au
  | Not_held
  | Unknown_poll
  | Uninvited
  | Wrong_state
  | Wrong_phase
  | Unknown_session
  | Stale_closed
  | Bad_block

let reject_reason_to_string = function
  | Bad_au -> "bad_au"
  | Not_held -> "not_held"
  | Unknown_poll -> "unknown_poll"
  | Uninvited -> "uninvited"
  | Wrong_state -> "wrong_state"
  | Wrong_phase -> "wrong_phase"
  | Unknown_session -> "unknown_session"
  | Stale_closed -> "stale_closed"
  | Bad_block -> "bad_block"

let all_reject_reasons =
  [ Bad_au; Not_held; Unknown_poll; Uninvited; Wrong_state; Wrong_phase; Unknown_session;
    Stale_closed; Bad_block ]

let reject_enum = enum all_reject_reasons reject_reason_to_string

let drop_enum =
  enum
    [ Admission.Refractory; Admission.Random_drop; Admission.Known_rate_limited ]
    (function
      | Admission.Refractory -> "refractory"
      | Admission.Random_drop -> "random_drop"
      | Admission.Known_rate_limited -> "known_rate_limited")

let outcome_enum =
  enum
    [ Metrics.Success; Metrics.Inquorate; Metrics.Alarmed ]
    (function
      | Metrics.Success -> "success"
      | Metrics.Inquorate -> "inquorate"
      | Metrics.Alarmed -> "alarmed")

type event =
  | Poll_started of { poller : Ids.Identity.t; au : Ids.Au_id.t; poll_id : int; inner_candidates : int }
  | Solicitation_sent of {
      poller : Ids.Identity.t;
      voter : Ids.Identity.t;
      au : Ids.Au_id.t;
      poll_id : int;
      attempt : int;
    }
  | Invitation_dropped of {
      voter : Ids.Identity.t;
      claimed : Ids.Identity.t;
      au : Ids.Au_id.t;
      poll_id : int;
      reason : Admission.drop_reason;
    }
  | Invitation_admitted of {
      voter : Ids.Identity.t;
      claimed : Ids.Identity.t;
      au : Ids.Au_id.t;
      poll_id : int option;  (** [None] for unsolicited (garbage) invitations *)
      path : admission_path;
    }
  | Invitation_refused of {
      voter : Ids.Identity.t;
      poller : Ids.Identity.t;
      au : Ids.Au_id.t;
      poll_id : int;
    }
  | Invitation_accepted of {
      voter : Ids.Identity.t;
      poller : Ids.Identity.t;
      au : Ids.Au_id.t;
      poll_id : int;
    }
  | Vote_sent of { voter : Ids.Identity.t; poller : Ids.Identity.t; au : Ids.Au_id.t; poll_id : int }
  | Poll_sampled of {
      poller : Ids.Identity.t;
      au : Ids.Au_id.t;
      poll_id : int;
      invited : Ids.Identity.t list;
      reference : Ids.Identity.t list;
    }
  | Evaluation_started of { poller : Ids.Identity.t; au : Ids.Au_id.t; poll_id : int; votes : int }
  | Repair_applied of {
      poller : Ids.Identity.t;
      au : Ids.Au_id.t;
      poll_id : int;
      block : int;
      version : int;
      clean : bool;
    }
  | Poll_concluded of {
      poller : Ids.Identity.t;
      au : Ids.Au_id.t;
      poll_id : int;
      outcome : Metrics.poll_outcome;
    }
  | Effort_charged of {
      peer : Ids.Identity.t;
      role : effort_role;
      phase : effort_phase;
      poller : Ids.Identity.t option;
      au : Ids.Au_id.t option;
      poll_id : int option;
      seconds : float;
    }
  | Effort_received of {
      peer : Ids.Identity.t;
      from_ : Ids.Identity.t;
      phase : effort_phase;
      au : Ids.Au_id.t;
      poll_id : int;
      seconds : float;
    }
  | Message_rejected of {
      peer : Ids.Identity.t;
      from_ : Ids.Identity.t;
      au : Ids.Au_id.t;
      poll_id : int option;
      msg_kind : string;
      reason : reject_reason;
    }
  | Fault_dropped of { src : Ids.Identity.t; dst : Ids.Identity.t }
  | Fault_duplicated of { src : Ids.Identity.t; dst : Ids.Identity.t }
  | Fault_delayed of { src : Ids.Identity.t; dst : Ids.Identity.t; extra : float }
  | Partition_dropped of { src : Ids.Identity.t; dst : Ids.Identity.t }
  | Fault_corrupted of { src : Ids.Identity.t; dst : Ids.Identity.t }
  | Fault_replayed of { src : Ids.Identity.t; dst : Ids.Identity.t; extra : float }
  | Fault_stale of { src : Ids.Identity.t; dst : Ids.Identity.t; extra : float }
  | Fault_stray of { src : Ids.Identity.t; dst : Ids.Identity.t }
  | Node_crashed of { node : Ids.Identity.t }
  | Node_restarted of { node : Ids.Identity.t }
  | Invariant_violated of {
      invariant : string;
      peer : Ids.Identity.t option;
      au : Ids.Au_id.t option;
      poll_id : int option;
      detail : string;
    }

(* Severity is declared ahead of the bus so subscriptions can carry an
   interest level and [emit] can skip event construction outright. *)
type severity = Debug | Info | Warn

let severity_rank = function Debug -> 0 | Info -> 1 | Warn -> 2
let severity_to_string = function Debug -> "debug" | Info -> "info" | Warn -> "warn"
let severity_enum = enum [ Debug; Info; Warn ] severity_to_string

let severity_of_string s =
  match String.lowercase_ascii s with "warning" -> Some Warn | s -> parse severity_enum s

type t = {
  mutable subscribers : (time:float -> event -> unit) list;
  (* Minimum interest across subscribers — only meaningful when the
     subscriber list is non-empty. *)
  mutable min_interest : severity;
}

let create () = { subscribers = []; min_interest = Warn }

let subscribe ?(interest = Debug) t f =
  (match t.subscribers with
  | [] -> t.min_interest <- interest
  | _ ->
    if severity_rank interest < severity_rank t.min_interest then
      t.min_interest <- interest);
  t.subscribers <- f :: t.subscribers

(* [bound] is the highest severity the event under construction could
   have — declared at the call site, so when every subscriber asked for
   something stricter the thunk is never run and the emit allocates
   nothing. The default [Warn] (the top severity) disables skipping,
   which is always sound. *)
let emit ?(bound = Warn) t ~now thunk =
  match t.subscribers with
  | [] -> ()
  | subscribers ->
    if severity_rank bound >= severity_rank t.min_interest then begin
      let event = thunk () in
      List.iter (fun f -> f ~time:now event) subscribers
    end

(* -- The schema ---------------------------------------------------------- *)

(* Every kind is described once, in [schemas], as a list of typed
   fields. Each codec — JSON value, binary, decoding, the
   analyzer view — and the [involves]/[au_of] projections walk that
   description; none names a kind. The field order is the encoding
   order. *)

(* What an integer names: [involves] matches identities, [au_of] reads
   the AU. *)
type role = Num | Peer | Au

type _ ty =
  | Int : role -> int ty
  | Float : float ty
  | Bool : bool ty
  | Text : string ty  (** free text, escaped in JSON *)
  | Enum : 'a enum -> 'a ty  (** a token from a closed set *)
  | Peers : Ids.Identity.t list ty

(* An optional field is omitted from every encoding when [None]. *)
type _ shape = Req : 'a ty -> 'a shape | Opt : 'a ty -> 'a option shape

type 'a field = {
  key : string;
  shape : 'a shape;
  get : event -> 'a;
  atom : Btrace.atom;
}

(* A kind's field list, typed by the curried constructor it feeds:
   [F.[ a; b ]] is a list literal over these constructors. *)
module F = struct
  type 'k t = [] : event t | ( :: ) : 'a field * 'k t -> ('a -> 'k) t
end

type schema =
  | Schema : {
      name : string;
      atom : Btrace.atom;
      severity : event -> severity;
      fields : 'k F.t;
      make : 'k;
    }
      -> schema

let kind name severity fields make =
  Schema { name; atom = Btrace.atom name; severity; fields; make }

let field shape key get =
  { key; shape; get; atom = Btrace.atom key }

let req ty = field (Req ty)
let opt ty = field (Opt ty)
let int key get = req (Int Num) key get
let peer key get = req (Int Peer) key get
let au get = req (Int Au) "au" get
let always severity _ = severity
let wrong () = invalid_arg "Trace: field read from another kind"

(* The eight message-fault kinds share two shapes. *)
let link name src dst make = kind name (always Debug) F.[ peer "src" src; peer "dst" dst ] make

let delayed name src dst extra make =
  kind name (always Debug) F.[ peer "src" src; peer "dst" dst; req Float "extra" extra ] make

let schemas =
  [|
    kind "poll_started" (always Info)
      F.
        [
          peer "poller" (function Poll_started r -> r.poller | _ -> wrong ());
          au (function Poll_started r -> r.au | _ -> wrong ());
          int "poll_id" (function Poll_started r -> r.poll_id | _ -> wrong ());
          int "inner_candidates" (function Poll_started r -> r.inner_candidates | _ -> wrong ());
        ]
      (fun poller au poll_id inner_candidates ->
        Poll_started { poller; au; poll_id; inner_candidates });
    kind "solicitation_sent" (always Debug)
      F.
        [
          peer "poller" (function Solicitation_sent r -> r.poller | _ -> wrong ());
          peer "voter" (function Solicitation_sent r -> r.voter | _ -> wrong ());
          au (function Solicitation_sent r -> r.au | _ -> wrong ());
          int "poll_id" (function Solicitation_sent r -> r.poll_id | _ -> wrong ());
          int "attempt" (function Solicitation_sent r -> r.attempt | _ -> wrong ());
        ]
      (fun poller voter au poll_id attempt ->
        Solicitation_sent { poller; voter; au; poll_id; attempt });
    kind "invitation_dropped" (always Info)
      F.
        [
          peer "voter" (function Invitation_dropped r -> r.voter | _ -> wrong ());
          peer "claimed" (function Invitation_dropped r -> r.claimed | _ -> wrong ());
          au (function Invitation_dropped r -> r.au | _ -> wrong ());
          int "poll_id" (function Invitation_dropped r -> r.poll_id | _ -> wrong ());
          req (Enum drop_enum) "reason" (function Invitation_dropped r -> r.reason | _ -> wrong ());
        ]
      (fun voter claimed au poll_id reason ->
        Invitation_dropped { voter; claimed; au; poll_id; reason });
    kind "invitation_admitted" (always Debug)
      F.
        [
          peer "voter" (function Invitation_admitted r -> r.voter | _ -> wrong ());
          peer "claimed" (function Invitation_admitted r -> r.claimed | _ -> wrong ());
          au (function Invitation_admitted r -> r.au | _ -> wrong ());
          opt (Int Num) "poll_id" (function Invitation_admitted r -> r.poll_id | _ -> wrong ());
          req (Enum path_enum) "path" (function Invitation_admitted r -> r.path | _ -> wrong ());
        ]
      (fun voter claimed au poll_id path ->
        Invitation_admitted { voter; claimed; au; poll_id; path });
    kind "invitation_refused" (always Debug)
      F.
        [
          peer "voter" (function Invitation_refused r -> r.voter | _ -> wrong ());
          peer "poller" (function Invitation_refused r -> r.poller | _ -> wrong ());
          au (function Invitation_refused r -> r.au | _ -> wrong ());
          int "poll_id" (function Invitation_refused r -> r.poll_id | _ -> wrong ());
        ]
      (fun voter poller au poll_id -> Invitation_refused { voter; poller; au; poll_id });
    kind "invitation_accepted" (always Debug)
      F.
        [
          peer "voter" (function Invitation_accepted r -> r.voter | _ -> wrong ());
          peer "poller" (function Invitation_accepted r -> r.poller | _ -> wrong ());
          au (function Invitation_accepted r -> r.au | _ -> wrong ());
          int "poll_id" (function Invitation_accepted r -> r.poll_id | _ -> wrong ());
        ]
      (fun voter poller au poll_id -> Invitation_accepted { voter; poller; au; poll_id });
    kind "vote_sent" (always Debug)
      F.
        [
          peer "voter" (function Vote_sent r -> r.voter | _ -> wrong ());
          peer "poller" (function Vote_sent r -> r.poller | _ -> wrong ());
          au (function Vote_sent r -> r.au | _ -> wrong ());
          int "poll_id" (function Vote_sent r -> r.poll_id | _ -> wrong ());
        ]
      (fun voter poller au poll_id -> Vote_sent { voter; poller; au; poll_id });
    kind "poll_sampled" (always Debug)
      F.
        [
          peer "poller" (function Poll_sampled r -> r.poller | _ -> wrong ());
          au (function Poll_sampled r -> r.au | _ -> wrong ());
          int "poll_id" (function Poll_sampled r -> r.poll_id | _ -> wrong ());
          req Peers "invited" (function Poll_sampled r -> r.invited | _ -> wrong ());
          req Peers "reference" (function Poll_sampled r -> r.reference | _ -> wrong ());
        ]
      (fun poller au poll_id invited reference ->
        Poll_sampled { poller; au; poll_id; invited; reference });
    kind "evaluation_started" (always Debug)
      F.
        [
          peer "poller" (function Evaluation_started r -> r.poller | _ -> wrong ());
          au (function Evaluation_started r -> r.au | _ -> wrong ());
          int "poll_id" (function Evaluation_started r -> r.poll_id | _ -> wrong ());
          int "votes" (function Evaluation_started r -> r.votes | _ -> wrong ());
        ]
      (fun poller au poll_id votes -> Evaluation_started { poller; au; poll_id; votes });
    kind "repair_applied" (always Info)
      F.
        [
          peer "poller" (function Repair_applied r -> r.poller | _ -> wrong ());
          au (function Repair_applied r -> r.au | _ -> wrong ());
          int "poll_id" (function Repair_applied r -> r.poll_id | _ -> wrong ());
          int "block" (function Repair_applied r -> r.block | _ -> wrong ());
          int "version" (function Repair_applied r -> r.version | _ -> wrong ());
          req Bool "clean" (function Repair_applied r -> r.clean | _ -> wrong ());
        ]
      (fun poller au poll_id block version clean ->
        Repair_applied { poller; au; poll_id; block; version; clean });
    kind "poll_concluded"
      (function Poll_concluded { outcome = Metrics.Success; _ } -> Info | _ -> Warn)
      F.
        [
          peer "poller" (function Poll_concluded r -> r.poller | _ -> wrong ());
          au (function Poll_concluded r -> r.au | _ -> wrong ());
          int "poll_id" (function Poll_concluded r -> r.poll_id | _ -> wrong ());
          req (Enum outcome_enum) "outcome" (function
            | Poll_concluded r -> r.outcome
            | _ -> wrong ());
        ]
      (fun poller au poll_id outcome -> Poll_concluded { poller; au; poll_id; outcome });
    kind "effort_charged" (always Debug)
      F.
        [
          peer "peer" (function Effort_charged r -> r.peer | _ -> wrong ());
          req (Enum role_enum) "role" (function Effort_charged r -> r.role | _ -> wrong ());
          req (Enum phase_enum) "phase" (function Effort_charged r -> r.phase | _ -> wrong ());
          opt (Int Peer) "poller" (function Effort_charged r -> r.poller | _ -> wrong ());
          opt (Int Au) "au" (function Effort_charged r -> r.au | _ -> wrong ());
          opt (Int Num) "poll_id" (function Effort_charged r -> r.poll_id | _ -> wrong ());
          req Float "seconds" (function Effort_charged r -> r.seconds | _ -> wrong ());
        ]
      (fun peer role phase poller au poll_id seconds ->
        Effort_charged { peer; role; phase; poller; au; poll_id; seconds });
    kind "effort_received" (always Debug)
      F.
        [
          peer "peer" (function Effort_received r -> r.peer | _ -> wrong ());
          peer "from" (function Effort_received r -> r.from_ | _ -> wrong ());
          req (Enum phase_enum) "phase" (function Effort_received r -> r.phase | _ -> wrong ());
          au (function Effort_received r -> r.au | _ -> wrong ());
          int "poll_id" (function Effort_received r -> r.poll_id | _ -> wrong ());
          req Float "seconds" (function Effort_received r -> r.seconds | _ -> wrong ());
        ]
      (fun peer from_ phase au poll_id seconds ->
        Effort_received { peer; from_; phase; au; poll_id; seconds });
    kind "message_rejected" (always Debug)
      F.
        [
          peer "peer" (function Message_rejected r -> r.peer | _ -> wrong ());
          peer "from" (function Message_rejected r -> r.from_ | _ -> wrong ());
          au (function Message_rejected r -> r.au | _ -> wrong ());
          opt (Int Num) "poll_id" (function Message_rejected r -> r.poll_id | _ -> wrong ());
          req Text "msg_kind" (function Message_rejected r -> r.msg_kind | _ -> wrong ());
          req (Enum reject_enum) "reason" (function Message_rejected r -> r.reason | _ -> wrong ());
        ]
      (fun peer from_ au poll_id msg_kind reason ->
        Message_rejected { peer; from_; au; poll_id; msg_kind; reason });
    link "fault_dropped"
      (function Fault_dropped r -> r.src | _ -> wrong ())
      (function Fault_dropped r -> r.dst | _ -> wrong ())
      (fun src dst -> Fault_dropped { src; dst });
    link "fault_duplicated"
      (function Fault_duplicated r -> r.src | _ -> wrong ())
      (function Fault_duplicated r -> r.dst | _ -> wrong ())
      (fun src dst -> Fault_duplicated { src; dst });
    delayed "fault_delayed"
      (function Fault_delayed r -> r.src | _ -> wrong ())
      (function Fault_delayed r -> r.dst | _ -> wrong ())
      (function Fault_delayed r -> r.extra | _ -> wrong ())
      (fun src dst extra -> Fault_delayed { src; dst; extra });
    link "partition_dropped"
      (function Partition_dropped r -> r.src | _ -> wrong ())
      (function Partition_dropped r -> r.dst | _ -> wrong ())
      (fun src dst -> Partition_dropped { src; dst });
    link "fault_corrupted"
      (function Fault_corrupted r -> r.src | _ -> wrong ())
      (function Fault_corrupted r -> r.dst | _ -> wrong ())
      (fun src dst -> Fault_corrupted { src; dst });
    delayed "fault_replayed"
      (function Fault_replayed r -> r.src | _ -> wrong ())
      (function Fault_replayed r -> r.dst | _ -> wrong ())
      (function Fault_replayed r -> r.extra | _ -> wrong ())
      (fun src dst extra -> Fault_replayed { src; dst; extra });
    delayed "fault_stale"
      (function Fault_stale r -> r.src | _ -> wrong ())
      (function Fault_stale r -> r.dst | _ -> wrong ())
      (function Fault_stale r -> r.extra | _ -> wrong ())
      (fun src dst extra -> Fault_stale { src; dst; extra });
    link "fault_stray"
      (function Fault_stray r -> r.src | _ -> wrong ())
      (function Fault_stray r -> r.dst | _ -> wrong ())
      (fun src dst -> Fault_stray { src; dst });
    kind "node_crashed" (always Info)
      F.[ peer "node" (function Node_crashed r -> r.node | _ -> wrong ()) ]
      (fun node -> Node_crashed { node });
    kind "node_restarted" (always Info)
      F.[ peer "node" (function Node_restarted r -> r.node | _ -> wrong ()) ]
      (fun node -> Node_restarted { node });
    kind "invariant_violated" (always Warn)
      F.
        [
          req Text "invariant" (function Invariant_violated r -> r.invariant | _ -> wrong ());
          opt (Int Peer) "peer" (function Invariant_violated r -> r.peer | _ -> wrong ());
          opt (Int Au) "au" (function Invariant_violated r -> r.au | _ -> wrong ());
          opt (Int Num) "poll_id" (function Invariant_violated r -> r.poll_id | _ -> wrong ());
          req Text "detail" (function Invariant_violated r -> r.detail | _ -> wrong ());
        ]
      (fun invariant peer au poll_id detail ->
        Invariant_violated { invariant; peer; au; poll_id; detail });
  |]

(* The one per-kind dispatch outside the schema: the match is exhaustive,
   so a new constructor cannot be forgotten here, and the suites'
   all-kinds round-trips fail on an entry out of order. *)
let index = function
  | Poll_started _ -> 0
  | Solicitation_sent _ -> 1
  | Invitation_dropped _ -> 2
  | Invitation_admitted _ -> 3
  | Invitation_refused _ -> 4
  | Invitation_accepted _ -> 5
  | Vote_sent _ -> 6
  | Poll_sampled _ -> 7
  | Evaluation_started _ -> 8
  | Repair_applied _ -> 9
  | Poll_concluded _ -> 10
  | Effort_charged _ -> 11
  | Effort_received _ -> 12
  | Message_rejected _ -> 13
  | Fault_dropped _ -> 14
  | Fault_duplicated _ -> 15
  | Fault_delayed _ -> 16
  | Partition_dropped _ -> 17
  | Fault_corrupted _ -> 18
  | Fault_replayed _ -> 19
  | Fault_stale _ -> 20
  | Fault_stray _ -> 21
  | Node_crashed _ -> 22
  | Node_restarted _ -> 23
  | Invariant_violated _ -> 24

let schema_of event = Array.unsafe_get schemas (index event)

(* -- Pretty-printing ----------------------------------------------------- *)

let pp_peer = Ids.Identity.pp
let pp_au = Ids.Au_id.pp
let pp_duration = Repro_prelude.Duration.pp

let pp_correlation ppf (poller, au, poll_id) =
  Option.iter (Format.fprintf ppf " poll %d") poll_id;
  Option.iter (Format.fprintf ppf " by %a" pp_peer) poller;
  Option.iter (Format.fprintf ppf " on %a" pp_au) au

let pp_event ppf = function
  | Poll_started { poller; au; poll_id; inner_candidates } ->
    Format.fprintf ppf "poll %d started by %a on %a (%d inner candidates)" poll_id pp_peer
      poller pp_au au inner_candidates
  | Solicitation_sent { poller; voter; au; poll_id; attempt } ->
    Format.fprintf ppf "poll %d: %a solicits %a on %a (attempt %d)" poll_id pp_peer poller
      pp_peer voter pp_au au attempt
  | Invitation_dropped { voter; claimed; au; poll_id; reason } ->
    Format.fprintf ppf "poll %d: %a drops invitation claimed by %a on %a (%s)" poll_id pp_peer
      voter pp_peer claimed pp_au au
      (match reason with
      | Admission.Refractory -> "refractory"
      | Admission.Random_drop -> "random drop"
      | Admission.Known_rate_limited -> "per-peer rate limit")
  | Invitation_admitted { voter; claimed; au; poll_id; path } ->
    Format.fprintf ppf "%s: %a admits invitation claimed by %a on %a (%s)"
      (match poll_id with Some id -> Printf.sprintf "poll %d" id | None -> "garbage")
      pp_peer voter pp_peer claimed pp_au au (admission_path_to_string path)
  | Invitation_refused { voter; poller; au; poll_id } ->
    Format.fprintf ppf "poll %d: %a refuses %a on %a (busy)" poll_id pp_peer voter pp_peer
      poller pp_au au
  | Invitation_accepted { voter; poller; au; poll_id } ->
    Format.fprintf ppf "poll %d: %a accepts %a on %a" poll_id pp_peer voter pp_peer poller
      pp_au au
  | Vote_sent { voter; poller; au; poll_id } ->
    Format.fprintf ppf "poll %d: %a votes for %a on %a" poll_id pp_peer voter pp_peer poller
      pp_au au
  | Poll_sampled { poller; au; poll_id; invited; reference } ->
    Format.fprintf ppf "poll %d: %a samples %d of %d reference peers on %a" poll_id pp_peer
      poller (List.length invited) (List.length reference) pp_au au
  | Evaluation_started { poller; au; poll_id; votes } ->
    Format.fprintf ppf "poll %d: %a evaluates %d votes on %a" poll_id pp_peer poller votes
      pp_au au
  | Repair_applied { poller; au; poll_id; block; version; clean } ->
    Format.fprintf ppf "poll %d: %a repairs %a block %d to version %d%s" poll_id pp_peer poller
      pp_au au block version
      (if clean then " (replica clean)" else "")
  | Poll_concluded { poller; au; poll_id; outcome } ->
    Format.fprintf ppf "poll %d: %a concludes on %a: %s" poll_id pp_peer poller pp_au au
      (match outcome with
      | Metrics.Success -> "success"
      | Metrics.Inquorate -> "inquorate"
      | Metrics.Alarmed -> "ALARM")
  | Effort_charged { peer; role; phase; poller; au; poll_id; seconds } ->
    Format.fprintf ppf "effort: %a (%s) spends %a on %s%a" pp_peer peer
      (effort_role_to_string role) pp_duration seconds (effort_phase_to_string phase)
      pp_correlation (poller, au, poll_id)
  | Effort_received { peer; from_; phase; au; poll_id; seconds } ->
    Format.fprintf ppf "effort: %a proves %a of %s effort to %a%a" pp_peer from_ pp_duration
      seconds (effort_phase_to_string phase) pp_peer peer pp_correlation
      (None, Some au, Some poll_id)
  | Message_rejected { peer; from_; au; poll_id; msg_kind; reason } ->
    Format.fprintf ppf "%a rejects %s from %a (%s)%a" pp_peer peer msg_kind pp_peer from_
      (reject_reason_to_string reason) pp_correlation (None, Some au, poll_id)
  | Fault_dropped { src; dst } ->
    Format.fprintf ppf "fault: message %a -> %a dropped" pp_peer src pp_peer dst
  | Fault_duplicated { src; dst } ->
    Format.fprintf ppf "fault: message %a -> %a duplicated" pp_peer src pp_peer dst
  | Fault_delayed { src; dst; extra } ->
    Format.fprintf ppf "fault: message %a -> %a delayed by %a" pp_peer src pp_peer dst
      pp_duration extra
  | Partition_dropped { src; dst } ->
    Format.fprintf ppf "partition: message %a -> %a blocked" pp_peer src pp_peer dst
  | Fault_corrupted { src; dst } ->
    Format.fprintf ppf "fault: message %a -> %a corrupted" pp_peer src pp_peer dst
  | Fault_replayed { src; dst; extra } ->
    Format.fprintf ppf "fault: message %a -> %a replayed after %a" pp_peer src pp_peer dst
      pp_duration extra
  | Fault_stale { src; dst; extra } ->
    Format.fprintf ppf "fault: message %a -> %a replayed stale after %a" pp_peer src pp_peer
      dst pp_duration extra
  | Fault_stray { src; dst } ->
    Format.fprintf ppf "fault: stray message forged %a -> %a" pp_peer src pp_peer dst
  | Node_crashed { node } -> Format.fprintf ppf "fault: %a crashed" pp_peer node
  | Node_restarted { node } -> Format.fprintf ppf "fault: %a restarted" pp_peer node
  | Invariant_violated { invariant; peer; au; poll_id; detail } ->
    Format.fprintf ppf "INVARIANT %s violated%a: %s" invariant pp_correlation
      (peer, au, poll_id) detail

(* -- Taxonomy ---------------------------------------------------------- *)

let kind event = match schema_of event with Schema s -> s.name
let severity event = match schema_of event with Schema s -> s.severity event
let all_kinds = Array.to_list (Array.map (fun (Schema s) -> s.name) schemas)

let mentions (type a) id (shape : a shape) (v : a) =
  match shape with
  | Req (Int Peer) -> Ids.Identity.equal id v
  | Opt (Int Peer) -> Option.equal Ids.Identity.equal (Some id) v
  | Req Peers -> List.exists (Ids.Identity.equal id) v
  | _ -> false

let rec involves_in : type k. event -> Ids.Identity.t -> k F.t -> bool =
 fun event id -> function
  | [] -> false
  | f :: rest -> mentions id f.shape (f.get event) || involves_in event id rest

let involves event id = match schema_of event with Schema s -> involves_in event id s.fields

let rec au_in : type k. event -> k F.t -> Ids.Au_id.t option =
 fun event -> function
  | [] -> None
  | { shape = Req (Int Au); get; _ } :: _ -> Some (get event)
  | { shape = Opt (Int Au); get; _ } :: _ -> get event
  | _ :: rest -> au_in event rest

let au_of event = match schema_of event with Schema s -> au_in event s.fields

(* -- JSON values ----------------------------------------------------- *)

let json_value (type a) (ty : a ty) (v : a) =
  match ty with
  | Int _ -> Json.Int v
  | Float -> Json.Float v
  | Bool -> Json.Bool v
  | Text -> Json.String v
  | Enum e -> Json.String (e.spell v)
  | Peers -> Json.List (List.map (fun i -> Json.Int i) v)

let rec json_fields : type k. event -> k F.t -> (string * Json.t) list =
 fun event -> function
  | [] -> []
  | f :: rest -> (
    match (f.shape, f.get event) with
    | Req ty, v -> (f.key, json_value ty v) :: json_fields event rest
    | Opt ty, Some v -> (f.key, json_value ty v) :: json_fields event rest
    | Opt _, None -> json_fields event rest)

let to_json ~time event =
  match schema_of event with
  | Schema s ->
    Json.Assoc
      (("t", Json.Float time)
      :: ("severity", Json.String (severity_to_string (s.severity event)))
      :: ("kind", Json.String s.name)
      :: json_fields event s.fields)

let of_json_value (type a) (ty : a ty) json : a option =
  match ty with
  | Int _ -> Json.to_int json
  | Float -> Json.to_float json
  | Bool -> Json.to_bool json
  | Text -> Json.string_value json
  | Enum e -> Option.bind (Json.string_value json) (parse e)
  | Peers -> (
    match json with
    | Json.List items ->
      let ints = List.filter_map Json.to_int items in
      if List.length ints = List.length items then Some ints else None
    | _ -> None)

let missing key = Error (Printf.sprintf "missing or malformed field %S" key)

(* Optional fields are omitted when unknown; [null] is accepted too so
   hand-written traces can be explicit. *)
let json_field (type a) json (f : a field) : (a, string) result =
  match (f.shape, Json.member f.key json) with
  | Req ty, Some j -> ( match of_json_value ty j with Some v -> Ok v | None -> missing f.key)
  | Req _, None -> missing f.key
  | Opt _, (None | Some Json.Null) -> Ok None
  | Opt ty, Some j -> (
    match of_json_value ty j with
    | Some v -> Ok (Some v)
    | None -> Error (Printf.sprintf "malformed optional field %S" f.key))

let rec decode_json : type k. Json.t -> k F.t -> k -> (event, string) result =
 fun json fields make ->
  match fields with
  | [] -> Ok make
  | f :: rest -> Result.bind (json_field json f) (fun v -> decode_json json rest (make v))

let by_name = Hashtbl.create 32
let () = Array.iter (fun (Schema s as schema) -> Hashtbl.replace by_name s.name schema) schemas

let of_json json =
  match
    ( Option.bind (Json.member "t" json) Json.to_float,
      Option.bind (Json.member "kind" json) Json.string_value )
  with
  | None, _ -> missing "t"
  | _, None -> missing "kind"
  | Some time, Some name -> (
    match Hashtbl.find_opt by_name name with
    | None -> Error (Printf.sprintf "unknown event kind %S" name)
    | Some (Schema s) -> Result.map (fun e -> (time, e)) (decode_json json s.fields s.make))

(* -- Analyzer views ----------------------------------------------------- *)

(* [to_view] projects the fields whose keys the analyzers read, so
   [Obs.View.of_json (to_json ~time e)] and [to_view ~time e] agree by
   construction. Each kind's projection is assembled once, at start-up,
   from getters found by key: per event it costs a call per field the
   kind has and one record. *)

(* What an analyzer view field holds. *)
type _ slot = Num_slot : int slot | Float_slot : float slot | Token_slot : string slot

let view_value : type a b. b slot -> a shape -> (event -> a) -> (event -> b option) option =
 fun slot shape get ->
  match (slot, shape) with
  | Num_slot, Req (Int _) -> Some (fun e -> Some (get e))
  | Num_slot, Opt (Int _) -> Some get
  | Float_slot, Req Float -> Some (fun e -> Some (get e))
  | Token_slot, Req (Enum en) -> Some (fun e -> Some (en.spell (get e)))
  | _ -> None

let rec view_getter : type k b. b slot -> string -> k F.t -> (event -> b option) option =
 fun slot key -> function
  | [] -> None
  | f :: _ when String.equal f.key key -> view_value slot f.shape f.get
  | _ :: rest -> view_getter slot key rest

let ap getter e = match getter with Some g -> g e | None -> None

let build_view (Schema s) =
  let int key = view_getter Num_slot key s.fields in
  let token key = view_getter Token_slot key s.fields in
  let poller = int "poller" and voter = int "voter" and claimed = int "claimed" in
  let peer = int "peer" and from_ = int "from" and au = int "au" in
  let poll_id = int "poll_id" and inner_candidates = int "inner_candidates" in
  let votes = int "votes" and seconds = view_getter Float_slot "seconds" s.fields in
  let role = token "role" and phase = token "phase" and outcome = token "outcome" in
  let kind = s.name in
  fun ~time e ->
    {
      Obs.View.kind;
      time;
      poller = ap poller e;
      voter = ap voter e;
      claimed = ap claimed e;
      peer = ap peer e;
      from_ = ap from_ e;
      au = ap au e;
      poll_id = ap poll_id e;
      inner_candidates = ap inner_candidates e;
      votes = ap votes e;
      seconds = ap seconds e;
      role = ap role e;
      phase = ap phase e;
      outcome = ap outcome e;
    }

let views = Array.map build_view schemas
let to_view ~time event = (Array.unsafe_get views (index event)) ~time event

(* -- Sinks ------------------------------------------------------------- *)

type sink = time:float -> event -> unit

let severity_at_least min s = severity_rank s >= severity_rank min

let pretty_sink ?(min_severity = Debug) ppf ~time event =
  if severity_at_least min_severity (severity event) then
    Format.fprintf ppf "[%a] [%s] %a@." pp_duration time
      (severity_to_string (severity event))
      pp_event event

(* The binary writer assembles the record field by field, byte-identical
   to [Btrace.write (to_json ~time event)] — intern ids included — with
   every recurring string resolved through an atom. *)
let a_t = Btrace.atom "t"
let a_severity = Btrace.atom "severity"
let a_kind = Btrace.atom "kind"

let rec bin_ids w = function
  | [] -> ()
  | x :: rest ->
    Btrace.put_int w x;
    bin_ids w rest

let bin_value (type a) w key (ty : a ty) (v : a) =
  Btrace.put_atom w key;
  match ty with
  | Int _ -> Btrace.put_int w v
  | Float -> Btrace.put_float w v
  | Bool -> Btrace.put_bool w v
  | Text -> Btrace.put_string w v
  | Enum e -> Btrace.put_atom w (enum_atom e v)
  | Peers ->
    Btrace.put_list_header w (List.length v);
    bin_ids w v

let rec present : type k. event -> k F.t -> int =
 fun event -> function
  | [] -> 0
  | { shape = Opt _; get; _ } :: rest ->
    Bool.to_int (Option.is_some (get event)) + present event rest
  | _ :: rest -> 1 + present event rest

let rec bin_fields : type k. Btrace.writer -> event -> k F.t -> unit =
 fun w event -> function
  | [] -> ()
  | f :: rest ->
    (match (f.shape, f.get event) with
    | Req ty, v -> bin_value w f.atom ty v
    | Opt ty, Some v -> bin_value w f.atom ty v
    | Opt _, None -> ());
    bin_fields w event rest

let write_binary w ~time event =
  match schema_of event with
  | Schema s ->
    Btrace.begin_record w;
    Btrace.put_assoc_header w (3 + present event s.fields);
    Btrace.put_atom w a_t;
    Btrace.put_float w time;
    Btrace.put_atom w a_severity;
    Btrace.put_atom w (enum_atom severity_enum (s.severity event));
    Btrace.put_atom w a_kind;
    Btrace.put_atom w s.atom;
    bin_fields w event s.fields;
    Btrace.end_record w ~now:time ()

let binary_sink ?(min_severity = Debug) writer ~time event =
  if severity_at_least min_severity (severity event) then write_binary writer ~time event

let filter_sink ?min_severity ?peer ?au ?kinds inner ~time event =
  let pass =
    (match min_severity with
    | None -> true
    | Some min -> severity_at_least min (severity event))
    && (match peer with None -> true | Some id -> involves event id)
    && (match au with
       | None -> true
       | Some a -> (
         match au_of event with
         | Some event_au -> Ids.Au_id.equal a event_au
         | None -> false))
    && match kinds with None -> true | Some ks -> List.mem (kind event) ks
  in
  if pass then inner ~time event

(* -- Recording --------------------------------------------------------- *)

type record = { events : (float * event) list; dropped : int }

let recorder ?(capacity = 65_536) t =
  if capacity <= 0 then invalid_arg "Trace.recorder: capacity must be positive";
  let ring = Array.make capacity None in
  let next = ref 0 in
  let total = ref 0 in
  subscribe t (fun ~time event ->
      ring.(!next) <- Some (time, event);
      next := (!next + 1) mod capacity;
      incr total);
  fun () ->
    let retained = min !total capacity in
    let start = (!next - retained + capacity) mod capacity in
    let events =
      List.init retained (fun i ->
          match ring.((start + i) mod capacity) with
          | Some entry -> entry
          | None -> assert false)
    in
    { events; dropped = !total - retained }
