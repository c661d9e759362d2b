(* One QCheck generator over every trace event kind, shared by the
   observability and trace-pipeline suites, and the two helpers the
   suites that read a run report share. Identities and AUs mostly
   come from a small range, so the same peers and AUs recur across
   events, and sometimes from a wide one, so the binary encoding's
   varints and the intern table see multi-byte values. Floats stay finite: a non-finite
   float renders as JSON null, which no event field accepts. *)

module Trace = Lockss.Trace
open QCheck2.Gen

let peer = frequency [ (4, int_range 0 40); (1, int_range 0 100_000) ]
let au = frequency [ (4, int_range 0 8); (1, int_range 0 5_000) ]
let count = frequency [ (5, int_range 0 300); (1, int_range (-50) 1_000_000) ]
let peers = list_size (int_bound 12) peer

let seconds =
  frequency
    [
      (3, float_bound_inclusive 1e6);
      (1, oneofl [ 0.; 0.25; 432.5; 259_200.; 1e13; 0.000_123_456_789; 5_831_999.734_210_6 ]);
    ]

(* Free text: arbitrary bytes, including quotes, backslashes and control
   characters the JSON writer must escape, and lengths past the binary
   encoding's 64-byte intern cut-off. *)
let text = frequency [ (3, string_size ~gen:char (int_bound 80)); (1, oneofl [ ""; "quorum" ]) ]

let msg_kind =
  oneofl
    [
      "poll"; "poll_ack"; "poll_proof"; "vote"; "repair_request"; "repair"; "evaluation_receipt";
      "garbage";
    ]

let role = oneofl [ Trace.Loyal; Trace.Adversary ]
let phase = oneofl Trace.all_effort_phases
let reason = oneofl Trace.all_reject_reasons

let drop_reason =
  oneofl Lockss.Admission.[ Refractory; Random_drop; Known_rate_limited ]

let path =
  oneofl
    Trace.
      [
        Admitted_introduced;
        Admitted_unknown;
        Admitted_known Lockss.Grade.Debt;
        Admitted_known Lockss.Grade.Even;
        Admitted_known Lockss.Grade.Credit;
      ]

let outcome = oneofl Lockss.Metrics.[ Success; Inquorate; Alarmed ]

let link make = map2 make peer peer
let timed make = map3 make peer peer seconds

(* One generator per kind; the trace-pipeline suite checks that a
   sample covers [Trace.all_kinds]. *)
let by_kind : Trace.event t list =
  Trace.
    [
      map4
        (fun poller au poll_id inner_candidates ->
          Poll_started { poller; au; poll_id; inner_candidates })
        peer au count count;
      (let* poller = peer and* voter = peer and* au = au and* poll_id = count in
       let+ attempt = count in
       Solicitation_sent { poller; voter; au; poll_id; attempt });
      (let* voter = peer and* claimed = peer and* au = au and* poll_id = count in
       let+ reason = drop_reason in
       Invitation_dropped { voter; claimed; au; poll_id; reason });
      (let* voter = peer and* claimed = peer and* au = au and* poll_id = option count in
       let+ path = path in
       Invitation_admitted { voter; claimed; au; poll_id; path });
      map4
        (fun voter poller au poll_id -> Invitation_refused { voter; poller; au; poll_id })
        peer peer au count;
      map4
        (fun voter poller au poll_id -> Invitation_accepted { voter; poller; au; poll_id })
        peer peer au count;
      map4
        (fun voter poller au poll_id -> Vote_sent { voter; poller; au; poll_id })
        peer peer au count;
      (let* poller = peer and* au = au and* poll_id = count and* invited = peers in
       let+ reference = peers in
       Poll_sampled { poller; au; poll_id; invited; reference });
      map4
        (fun poller au poll_id votes -> Evaluation_started { poller; au; poll_id; votes })
        peer au count count;
      (let* poller = peer and* au = au and* poll_id = count and* block = count in
       let+ version = count and+ clean = bool in
       Repair_applied { poller; au; poll_id; block; version; clean });
      map4
        (fun poller au poll_id outcome -> Poll_concluded { poller; au; poll_id; outcome })
        peer au count outcome;
      (let* peer = peer and* role = role and* phase = phase and* poller = option peer in
       let+ au = option au and+ poll_id = option count and+ seconds = seconds in
       Effort_charged { peer; role; phase; poller; au; poll_id; seconds });
      (let* peer = peer and* from_ = peer and* phase = phase and* au = au in
       let+ poll_id = count and+ seconds = seconds in
       Effort_received { peer; from_; phase; au; poll_id; seconds });
      (let* peer = peer and* from_ = peer and* au = au and* poll_id = option count in
       let+ msg_kind = msg_kind and+ reason = reason in
       Message_rejected { peer; from_; au; poll_id; msg_kind; reason });
      link (fun src dst -> Fault_dropped { src; dst });
      link (fun src dst -> Fault_duplicated { src; dst });
      timed (fun src dst extra -> Fault_delayed { src; dst; extra });
      link (fun src dst -> Partition_dropped { src; dst });
      link (fun src dst -> Fault_corrupted { src; dst });
      timed (fun src dst extra -> Fault_replayed { src; dst; extra });
      timed (fun src dst extra -> Fault_stale { src; dst; extra });
      link (fun src dst -> Fault_stray { src; dst });
      map (fun node -> Node_crashed { node }) peer;
      map (fun node -> Node_restarted { node }) peer;
      (let* invariant = text and* peer = option peer and* au = option au in
       let+ poll_id = option count and+ detail = text in
       Invariant_violated { invariant; peer; au; poll_id; detail });
    ]

let event = oneof by_kind

(* A timed event stream, times non-decreasing like a real trace, with
   runs of equal timestamps. *)
let stream =
  let step = frequency [ (2, return 0.); (3, float_bound_inclusive 5e4) ] in
  map
    (fun steps ->
      let _, events =
        List.fold_left
          (fun (now, acc) (dt, e) ->
            let now = now +. dt in
            (now, (now, e) :: acc))
          (0., []) steps
      in
      List.rev events)
    (list_size (int_range 1 60) (pair step event))

let print_stream s =
  String.concat "\n" (List.map (fun (time, e) -> Obs.Json.to_string (Trace.to_json ~time e)) s)

(* A fixed, seeded sample: the byte-parity digests are pinned over it. *)
let fixed_sample ~n =
  generate ~rand:(Random.State.make [| 20_051_005 |]) ~n
    (pair (float_bound_inclusive 3e7) event)

(* -- Run reports ---------------------------------------------------------- *)

(* [with_report_dir f] runs [f dir] on a fresh directory and removes it,
   with everything a run report wrote into it, afterwards. *)
let with_report_dir f =
  let dir = Filename.temp_dir "report" "" in
  let rec remove path =
    if Sys.is_directory path then begin
      Array.iter (fun name -> remove (Filename.concat path name)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path
  in
  Fun.protect ~finally:(fun () -> remove dir) (fun () -> f dir)

(* [jsonl path] is the JSONL rendering of a trace file in either
   encoding, one [Obs.Json.write] line per record: the bytes
   [lockss_sim trace-convert] writes. *)
let jsonl path =
  let buf = Buffer.create 4096 in
  ignore
    (Obs.Trace_file.iter path ~f:(fun ~line result ->
         match result with
         | Ok json ->
           Obs.Json.write buf json;
           Buffer.add_char buf '\n'
         | Error msg -> failwith (Printf.sprintf "%s:%d: %s" path line msg)));
  Buffer.contents buf
