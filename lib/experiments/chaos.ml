module Duration = Repro_prelude.Duration
module Table = Repro_prelude.Table
module Faults = Narses.Faults
module Engine = Narses.Engine

type mix = {
  loss : float;
  jitter : float;
  duplication : float;
  churn_per_day : float;
  downtime : float;
  corruption : float;
  replay : float;
  stale : float;
  stray : float;
  fault_seed : int;
}

let default_mix =
  {
    loss = 0.05;
    jitter = 0.5;
    duplication = 0.02;
    churn_per_day = 0.01;
    downtime = Duration.of_days 3.;
    corruption = 0.02;
    replay = 0.01;
    stale = 0.005;
    stray = 0.01;
    fault_seed = 7;
  }

let faults_config mix =
  {
    Faults.loss = mix.loss;
    jitter = mix.jitter;
    duplication = mix.duplication;
    churn_per_day = mix.churn_per_day;
    downtime = mix.downtime;
    corruption = mix.corruption;
    replay = mix.replay;
    stale = mix.stale;
    (* Stale messages resurface from well before any protocol timeout:
       three days matches the churn downtime scale. *)
    stale_delay = Duration.of_days 3.;
    stray = mix.stray;
    fault_seed = mix.fault_seed;
  }

let mix_to_json m =
  Obs.Json.Assoc
    [
      ("loss", Obs.Json.Float m.loss);
      ("jitter", Obs.Json.Float m.jitter);
      ("duplication", Obs.Json.Float m.duplication);
      ("churn_per_day", Obs.Json.Float m.churn_per_day);
      ("downtime", Obs.Json.Float m.downtime);
      ("corruption", Obs.Json.Float m.corruption);
      ("replay", Obs.Json.Float m.replay);
      ("stale", Obs.Json.Float m.stale);
      ("stray", Obs.Json.Float m.stray);
      ("fault_seed", Obs.Json.Int m.fault_seed);
    ]

type check = { name : string; ok : bool; detail : string }

type report = {
  checks : check list;
  faulty : Lockss.Metrics.summary;
  fault_free : Lockss.Metrics.summary;
  comparison : Scenario.comparison;
  injected_drops : int;
  injected_dups : int;
  injected_delays : int;
  injected_corruptions : int;
  injected_replays : int;
  injected_stales : int;
  injected_strays : int;
  crashes : int;
  restarts : int;
}

let all_green r = List.for_all (fun c -> c.ok) r.checks

(* Far above any legitimate run at these scales (the bench scale fires a
   few million events); only a genuine livelock can exhaust it. *)
let event_budget = 50_000_000

(* -- Invariants --------------------------------------------------------- *)

let check_no_stuck_poll population =
  let ctx = Lockss.Population.ctx population in
  let now = Engine.now (Lockss.Population.engine population) in
  let limit = 2. *. ctx.Lockss.Peer.cfg.Lockss.Config.inter_poll_interval in
  let stuck = ref [] in
  Array.iter
    (fun (peer : Lockss.Peer.t) ->
      Array.iter
        (fun (st : Lockss.Peer.au_state) ->
          match st.Lockss.Peer.current_poll with
          | Some poll when now -. poll.Lockss.Peer.started_at > limit ->
            stuck :=
              Printf.sprintf "peer %d au %d (age %.1f d)" peer.Lockss.Peer.identity
                st.Lockss.Peer.au
                ((now -. poll.Lockss.Peer.started_at) /. Duration.day)
              :: !stuck
          | _ -> ())
        peer.Lockss.Peer.aus)
    ctx.Lockss.Peer.peers;
  {
    name = "no stuck poll";
    ok = !stuck = [];
    detail =
      (match !stuck with
      | [] -> "every in-flight poll is younger than 2 inter-poll intervals"
      | l -> Printf.sprintf "%d polls stuck: %s" (List.length l) (String.concat "; " l));
  }

let check_pending_growth ~pending_mid ~pending_end =
  (* Leaked (never-cancelled, never-fired) timers accumulate linearly
     with poll count, so the steady-state pending population must not
     grow materially between the run's midpoint and its end. *)
  let allowance = max 64 (pending_mid / 2) in
  {
    name = "no leaked timeouts";
    ok = pending_end - pending_mid <= allowance;
    detail =
      Printf.sprintf "pending events mid-run %d, end %d (allowed growth %d)" pending_mid
        pending_end allowance;
  }

let check_conservation population ~pending_end =
  let ctx = Lockss.Population.ctx population in
  let net = ctx.Lockss.Peer.net in
  let sent = Narses.Net.sent_count net in
  let delivered = Narses.Net.delivered_count net in
  let dropped = Narses.Net.dropped_count net in
  let injected = Narses.Net.injected_count net in
  let dups =
    match Lockss.Population.faults population with
    | None -> 0
    | Some f -> Faults.duplicated_count f
  in
  (* Every copy a send produced (one per send, plus one per duplication,
     plus one per replay/stale re-injection from the delivery ring) is
     eventually delivered, dropped, or still scheduled in the engine. *)
  let in_flight = sent + dups + injected - delivered - dropped in
  {
    name = "message conservation";
    ok = in_flight >= 0 && in_flight <= pending_end;
    detail =
      Printf.sprintf
        "sent %d + dup %d + injected %d = delivered %d + dropped %d + in-flight %d" sent
        dups injected delivered dropped in_flight;
  }

let check_churn_accounting population =
  match Lockss.Population.faults population with
  | None -> { name = "churn accounting"; ok = true; detail = "no injector attached" }
  | Some f ->
    let crashes = Faults.crash_count f in
    let restarts = Faults.restart_count f in
    let down = Faults.down_count f in
    {
      name = "churn accounting";
      ok = crashes = restarts + down;
      detail = Printf.sprintf "crashes %d = restarts %d + still down %d" crashes restarts down;
    }

let check_leak_audit population =
  let ctx = Lockss.Population.ctx population in
  let engine = Lockss.Population.engine population in
  let leaks = Check.Leak.audit ~engine ~ctx in
  {
    name = "leak audit";
    ok = leaks = [];
    detail =
      (match leaks with
      | [] -> "engine live timers reconcile with protocol owner state"
      | v :: _ ->
        Printf.sprintf "%d leak violations, first: %s" (List.length leaks)
          v.Check.Invariant.detail);
  }

let check_liveness (faulty : Lockss.Metrics.summary) =
  {
    name = "liveness";
    ok = faulty.Lockss.Metrics.polls_succeeded > 0;
    detail =
      Printf.sprintf "%d polls succeeded under faults" faulty.Lockss.Metrics.polls_succeeded;
  }

let check_degradation ~(fault_free : Lockss.Metrics.summary)
    ~(faulty : Lockss.Metrics.summary) =
  (* The protocol's retry and repair machinery should absorb moderate
     fault mixes: damage may rise versus the perfect-network paired run,
     but it must stay bounded — within an order of magnitude of the
     fault-free level and below an absolute ceiling. *)
  let base = fault_free.Lockss.Metrics.access_failure_probability in
  let afp = faulty.Lockss.Metrics.access_failure_probability in
  let bound = Float.max 0.05 (10. *. Float.max base 0.005) in
  {
    name = "bounded degradation";
    ok = afp <= bound;
    detail =
      Printf.sprintf "access failure %.4f under faults vs %.4f fault-free (bound %.4f)"
        afp base bound;
  }

(* -- The harness -------------------------------------------------------- *)

let run ?(scale = Scenario.bench) ?(attack = Scenario.No_attack) mix =
  Faults.validate (faults_config mix);
  let base_cfg = Scenario.config scale in
  let cfg = { base_cfg with Lockss.Config.faults = Some (faults_config mix) } in
  let seed = scale.Scenario.seed in
  let horizon = Duration.of_years scale.Scenario.years in
  (* The faulted run and its fault-free pair share nothing (each builds
     its own population from the seed), so they run on two domains when
     available; results are deterministic either way. *)
  let (population, pending_mid, pending_end, faulty), fault_free =
    Runner.both
      (fun () ->
        let population = Scenario.build ~cfg ~seed attack in
        let engine = Lockss.Population.engine population in
        Lockss.Population.run ~max_events:event_budget population ~until:(horizon /. 2.);
        let pending_mid = Engine.pending engine in
        Lockss.Population.run ~max_events:event_budget population ~until:horizon;
        let pending_end = Engine.pending engine in
        (population, pending_mid, pending_end, Lockss.Population.summary population))
      (fun () ->
        (Scenario.run
           ~cfg:{ base_cfg with Lockss.Config.faults = None }
           ~seed ~years:scale.Scenario.years attack)
          .Scenario.summary)
  in
  let comparison = Scenario.ratios ~baseline:fault_free ~attack:faulty in
  let ( injected_drops,
        injected_dups,
        injected_delays,
        injected_corruptions,
        injected_replays,
        injected_stales,
        injected_strays,
        crashes,
        restarts ) =
    match Lockss.Population.faults population with
    | None -> (0, 0, 0, 0, 0, 0, 0, 0, 0)
    | Some f ->
      ( Faults.dropped_count f,
        Faults.duplicated_count f,
        Faults.delayed_count f,
        Faults.corrupted_count f,
        Faults.replayed_count f,
        Faults.stale_count f,
        Faults.stray_count f,
        Faults.crash_count f,
        Faults.restart_count f )
  in
  let checks =
    [
      check_liveness faulty;
      check_no_stuck_poll population;
      check_pending_growth ~pending_mid ~pending_end;
      check_conservation population ~pending_end;
      check_churn_accounting population;
      check_leak_audit population;
      check_degradation ~fault_free ~faulty;
    ]
  in
  {
    checks;
    faulty;
    fault_free;
    comparison;
    injected_drops;
    injected_dups;
    injected_delays;
    injected_corruptions;
    injected_replays;
    injected_stales;
    injected_strays;
    crashes;
    restarts;
  }

let pp_report ppf r =
  Format.fprintf ppf
    "Chaos run: %d faults injected (%d drops, %d dups, %d delays, %d corruptions, %d \
     replays, %d stales, %d strays), %d crashes, %d restarts@."
    (r.injected_drops + r.injected_dups + r.injected_delays + r.injected_corruptions
    + r.injected_replays + r.injected_stales + r.injected_strays)
    r.injected_drops r.injected_dups r.injected_delays r.injected_corruptions
    r.injected_replays r.injected_stales r.injected_strays r.crashes r.restarts;
  Format.fprintf ppf
    "  polls: %d ok / %d inquorate / %d alarmed under faults; %d ok fault-free@."
    r.faulty.Lockss.Metrics.polls_succeeded r.faulty.Lockss.Metrics.polls_inquorate
    r.faulty.Lockss.Metrics.polls_alarmed r.fault_free.Lockss.Metrics.polls_succeeded;
  Format.fprintf ppf "  delay ratio %.2f, friction %.2f@." r.comparison.Scenario.delay_ratio
    r.comparison.Scenario.friction;
  List.iter
    (fun c ->
      Format.fprintf ppf "  [%s] %-20s %s@." (if c.ok then "PASS" else "FAIL") c.name
        c.detail)
    r.checks;
  Format.fprintf ppf "  %s@."
    (if all_green r then "all invariants green" else "INVARIANT VIOLATION")

(* -- Attack-under-faults ablation --------------------------------------- *)

let stoppage_attack =
  let interval = Lockss.Config.default.Lockss.Config.inter_poll_interval in
  Scenario.Pipe_stoppage
    { coverage = 0.4; duration = 3. *. interval; recuperation = interval }

let ablation ?(scale = Scenario.bench) mix =
  let cfg = Scenario.config scale in
  let faulty_cfg = { cfg with Lockss.Config.faults = Some (faults_config mix) } in
  let cells =
    [
      ("fault-free", cfg, Scenario.No_attack);
      ("faults only", faulty_cfg, Scenario.No_attack);
      ("stoppage only", cfg, stoppage_attack);
      ("stoppage + faults", faulty_cfg, stoppage_attack);
    ]
  in
  let rows =
    Runner.map
      (fun (label, run_cfg, attack) ->
        let s =
          (Scenario.run ~cfg:run_cfg ~seed:scale.Scenario.seed
             ~years:scale.Scenario.years attack)
            .Scenario.summary
        in
        [
          label;
          Printf.sprintf "%.4f" s.Lockss.Metrics.access_failure_probability;
          string_of_int s.Lockss.Metrics.polls_succeeded;
          string_of_int s.Lockss.Metrics.polls_inquorate;
          string_of_int s.Lockss.Metrics.polls_alarmed;
        ])
      cells
  in
  let table =
    Table.create [ "condition"; "access failure"; "polls ok"; "inquorate"; "alarmed" ]
  in
  List.iter (Table.add_row table) rows;
  table
