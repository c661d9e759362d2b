module Duration = Repro_prelude.Duration
module Faults = Narses.Faults
module Trace = Lockss.Trace
module Population = Lockss.Population

type seed_report = {
  seed : int;
  polls_succeeded : int;
  rejected : int;
  rejected_by_reason : (string * int) list;
  injected : int;
  violations : Check.Invariant.violation list;
  handler_exn : string option;
}

type report = { mix : Chaos.mix; years : float; seeds : seed_report list }

let seed_clean s =
  s.handler_exn = None && s.violations = [] && s.polls_succeeded > 0

let all_clean r = List.for_all seed_clean r.seeds

let run_seed ~cfg ~attack ~years seed =
  let population = Scenario.build ~cfg ~seed attack in
  let auditor = Scenario.make_auditor ~cfg () in
  Check.Auditor.attach auditor (Population.trace population);
  let rejected = ref 0 in
  let by_reason = Hashtbl.create 16 in
  Trace.subscribe ~interest:Trace.Debug (Population.trace population)
    (fun ~time:_ event ->
      match event with
      | Trace.Message_rejected { reason; _ } ->
        incr rejected;
        let key = Trace.reject_reason_to_string reason in
        Hashtbl.replace by_reason key
          (1 + Option.value ~default:0 (Hashtbl.find_opt by_reason key))
      | _ -> ());
  let handler_exn =
    (* Any exception escaping a handler is precisely what the soak
       exists to catch: capture it instead of killing the whole sweep. *)
    try
      Population.run ~max_events:Chaos.event_budget population
        ~until:(Duration.of_years years);
      None
    with exn -> Some (Printexc.to_string exn)
  in
  let summary = Population.summary population in
  Check.Auditor.finish ~metrics:summary auditor;
  let leak_violations =
    (* A crashed run leaves arbitrary mid-flight state; the exception is
       already the failure, so only audit quiescent runs for leaks. *)
    if handler_exn = None then
      Check.Leak.audit
        ~engine:(Population.engine population)
        ~ctx:(Population.ctx population)
    else []
  in
  let injected =
    match Population.faults population with
    | None -> 0
    | Some f ->
      Faults.corrupted_count f + Faults.replayed_count f + Faults.stale_count f
      + Faults.stray_count f
  in
  {
    seed;
    polls_succeeded = summary.Lockss.Metrics.polls_succeeded;
    rejected = !rejected;
    rejected_by_reason =
      Hashtbl.fold (fun k v acc -> (k, v) :: acc) by_reason [] |> List.sort compare;
    injected;
    violations = Check.Auditor.violations auditor @ leak_violations;
    handler_exn;
  }

let run ?(scale = Scenario.bench) ?(attack = Scenario.No_attack) ~seeds mix =
  Faults.validate (Chaos.faults_config mix);
  let base_cfg = Scenario.config scale in
  let cfg =
    { base_cfg with Lockss.Config.faults = Some (Chaos.faults_config mix) }
  in
  let years = scale.Scenario.years in
  let seeds = Runner.map (run_seed ~cfg ~attack ~years) seeds in
  { mix; years; seeds }

let pp_report ppf r =
  Format.fprintf ppf "Soak: %d seeds x %.2f years under the full fault mix@."
    (List.length r.seeds) r.years;
  List.iter
    (fun s ->
      Format.fprintf ppf
        "  seed %-4d %s: %d polls ok, %d faults injected, %d messages rejected (%s)@."
        s.seed
        (if seed_clean s then "clean" else "DIRTY")
        s.polls_succeeded s.injected s.rejected
        (if s.rejected_by_reason = [] then "-"
         else
           String.concat ", "
             (List.map
                (fun (reason, n) -> Printf.sprintf "%s %d" reason n)
                s.rejected_by_reason));
      (match s.handler_exn with
      | Some exn -> Format.fprintf ppf "    handler exception: %s@." exn
      | None -> ());
      List.iter
        (fun v -> Format.fprintf ppf "    %a@." Check.Invariant.pp_violation v)
        s.violations)
    r.seeds;
  let dirty = List.filter (fun s -> not (seed_clean s)) r.seeds in
  Format.fprintf ppf "soak verdict: %s@."
    (if dirty = [] then "all seeds clean"
     else
       Printf.sprintf "%d/%d seeds dirty" (List.length dirty) (List.length r.seeds))

let report_json r =
  let seed_json s =
    Obs.Json.Assoc
      [
        ("seed", Obs.Json.Int s.seed);
        ("clean", Obs.Json.Bool (seed_clean s));
        ("polls_succeeded", Obs.Json.Int s.polls_succeeded);
        ("injected", Obs.Json.Int s.injected);
        ("rejected", Obs.Json.Int s.rejected);
        ( "rejected_by_reason",
          Obs.Json.Assoc
            (List.map (fun (k, v) -> (k, Obs.Json.Int v)) s.rejected_by_reason) );
        ( "handler_exn",
          match s.handler_exn with
          | None -> Obs.Json.Null
          | Some exn -> Obs.Json.String exn );
        ( "violations",
          Obs.Json.List (List.map Check.Invariant.violation_to_json s.violations) );
      ]
  in
  Obs.Json.Assoc
    [
      ("years", Obs.Json.Float r.years);
      ("seeds", Obs.Json.List (List.map seed_json r.seeds));
      ("clean", Obs.Json.Bool (all_clean r));
    ]
