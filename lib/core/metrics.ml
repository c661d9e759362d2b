module Stats = Repro_prelude.Stats
module Keyed_tbl = Repro_prelude.Keyed_tbl

type poll_outcome = Success | Inquorate | Alarmed

type t = {
  replicas : int;
  start : float;
  mutable damaged_now : int;
  damaged_integral : Stats.Time_weighted.t;
  mutable polls_succeeded : int;
  mutable polls_inquorate : int;
  mutable polls_alarmed : int;
  last_success : float Keyed_tbl.Int2.t;  (* (peer, au) -> time *)
  success_gaps : Stats.Acc.t;
  successes_by_peer : int Keyed_tbl.Int.t;
  mutable loyal_effort : float;
  mutable adversary_effort : float;
  mutable invitations_considered : int;
  mutable invitations_dropped : int;
  mutable repairs : int;
  mutable repair_underflows : int;
  mutable votes_supplied : int;
  mutable reads : int;
  mutable reads_failed : int;
}

let create ~replicas ~start =
  {
    replicas;
    start;
    damaged_now = 0;
    damaged_integral = Stats.Time_weighted.create ~start ~value:0.;
    polls_succeeded = 0;
    polls_inquorate = 0;
    polls_alarmed = 0;
    last_success = Keyed_tbl.Int2.create 256;
    success_gaps = Stats.Acc.create ();
    successes_by_peer = Keyed_tbl.Int.create 64;
    loyal_effort = 0.;
    adversary_effort = 0.;
    invitations_considered = 0;
    invitations_dropped = 0;
    repairs = 0;
    repair_underflows = 0;
    votes_supplied = 0;
    reads = 0;
    reads_failed = 0;
  }

let set_damaged t ~now count =
  t.damaged_now <- count;
  Stats.Time_weighted.update t.damaged_integral ~now ~value:(float_of_int count)

let on_replica_damaged t ~now = set_damaged t ~now (t.damaged_now + 1)

(* A repair event without a matching damage event (e.g. a double repair
   delivered by a buggy or adversarial supplier) must not abort the whole
   simulation: clamp at zero and count the anomaly so it stays visible in
   the summary. *)
let on_replica_repaired t ~now =
  if t.damaged_now > 0 then set_damaged t ~now (t.damaged_now - 1)
  else t.repair_underflows <- t.repair_underflows + 1

let on_poll_concluded t ~peer ~au ~now outcome =
  match outcome with
  | Inquorate -> t.polls_inquorate <- t.polls_inquorate + 1
  | Alarmed -> t.polls_alarmed <- t.polls_alarmed + 1
  | Success ->
    t.polls_succeeded <- t.polls_succeeded + 1;
    let prior =
      match Keyed_tbl.Int.find_opt t.successes_by_peer peer with None -> 0 | Some n -> n
    in
    Keyed_tbl.Int.replace t.successes_by_peer peer (prior + 1);
    let key = (peer, au) in
    (match Keyed_tbl.Int2.find_opt t.last_success key with
    | Some previous -> Stats.Acc.add t.success_gaps (now -. previous)
    | None -> ());
    Keyed_tbl.Int2.replace t.last_success key now

let successes_of t peer =
  match Keyed_tbl.Int.find_opt t.successes_by_peer peer with None -> 0 | Some n -> n

let charge_loyal t seconds = t.loyal_effort <- t.loyal_effort +. seconds
let charge_adversary t seconds = t.adversary_effort <- t.adversary_effort +. seconds
let on_invitation_considered t = t.invitations_considered <- t.invitations_considered + 1
let on_invitation_dropped t = t.invitations_dropped <- t.invitations_dropped + 1
let on_repair t = t.repairs <- t.repairs + 1

let on_read t ~failed =
  t.reads <- t.reads + 1;
  if failed then t.reads_failed <- t.reads_failed + 1
let on_vote_supplied t = t.votes_supplied <- t.votes_supplied + 1

type summary = {
  horizon : float;
  replicas : int;
  access_failure_probability : float;
  polls_succeeded : int;
  polls_inquorate : int;
  polls_alarmed : int;
  mean_success_gap : float;
  loyal_effort : float;
  adversary_effort : float;
  effort_per_successful_poll : float;
  invitations_considered : int;
  invitations_dropped : int;
  repairs : int;
  repair_underflows : int;
  votes_supplied : int;
  reads : int;
  reads_failed : int;
  empirical_read_failure : float;
}

(* -- Instantaneous samples (for the periodic sampler) ------------------- *)

type sample = {
  time : float;
  damaged_replicas : int;
  running_access_failure : float;
  cum_polls_succeeded : int;
  cum_polls_inquorate : int;
  cum_polls_alarmed : int;
  cum_invitations_considered : int;
  cum_invitations_dropped : int;
  cum_repairs : int;
  cum_repair_underflows : int;
  cum_votes_supplied : int;
  cum_reads : int;
  cum_reads_failed : int;
  cum_loyal_effort : float;
  cum_adversary_effort : float;
}

let sample t ~now =
  let mean_damaged = Stats.Time_weighted.mean t.damaged_integral ~now in
  {
    time = now;
    damaged_replicas = t.damaged_now;
    running_access_failure =
      (if Float.is_nan mean_damaged then 0.
       else mean_damaged /. float_of_int t.replicas);
    cum_polls_succeeded = t.polls_succeeded;
    cum_polls_inquorate = t.polls_inquorate;
    cum_polls_alarmed = t.polls_alarmed;
    cum_invitations_considered = t.invitations_considered;
    cum_invitations_dropped = t.invitations_dropped;
    cum_repairs = t.repairs;
    cum_repair_underflows = t.repair_underflows;
    cum_votes_supplied = t.votes_supplied;
    cum_reads = t.reads;
    cum_reads_failed = t.reads_failed;
    cum_loyal_effort = t.loyal_effort;
    cum_adversary_effort = t.adversary_effort;
  }

let finalize t ~now =
  let horizon = now -. t.start in
  let mean_damaged = Stats.Time_weighted.mean t.damaged_integral ~now in
  let access_failure_probability =
    if Float.is_nan mean_damaged then 0. else mean_damaged /. float_of_int t.replicas
  in
  let mean_success_gap =
    if Stats.Acc.count t.success_gaps = 0 then infinity
    else Stats.Acc.mean t.success_gaps
  in
  let effort_per_successful_poll =
    if t.polls_succeeded = 0 then infinity
    else t.loyal_effort /. float_of_int t.polls_succeeded
  in
  {
    horizon;
    replicas = t.replicas;
    access_failure_probability;
    polls_succeeded = t.polls_succeeded;
    polls_inquorate = t.polls_inquorate;
    polls_alarmed = t.polls_alarmed;
    mean_success_gap;
    loyal_effort = t.loyal_effort;
    adversary_effort = t.adversary_effort;
    effort_per_successful_poll;
    invitations_considered = t.invitations_considered;
    invitations_dropped = t.invitations_dropped;
    repairs = t.repairs;
    repair_underflows = t.repair_underflows;
    votes_supplied = t.votes_supplied;
    reads = t.reads;
    reads_failed = t.reads_failed;
    empirical_read_failure =
      (if t.reads = 0 then nan else float_of_int t.reads_failed /. float_of_int t.reads);
  }

let pp_summary ppf s =
  let module D = Repro_prelude.Duration in
  Format.fprintf ppf
    "@[<v>horizon: %a@ replicas: %d@ access failure probability: %.3e@ polls: %d ok, %d \
     inquorate, %d alarmed@ mean success gap: %a@ loyal effort: %.3e s@ adversary effort: \
     %.3e s@ effort / successful poll: %.2f s@ invitations: %d considered, %d dropped@ \
     repairs: %d%s@ votes supplied: %d@]"
    D.pp s.horizon s.replicas s.access_failure_probability s.polls_succeeded
    s.polls_inquorate s.polls_alarmed D.pp s.mean_success_gap s.loyal_effort
    s.adversary_effort s.effort_per_successful_poll s.invitations_considered
    s.invitations_dropped s.repairs
    (if s.repair_underflows > 0 then
       Printf.sprintf " (%d repair underflows!)" s.repair_underflows
     else "")
    s.votes_supplied
