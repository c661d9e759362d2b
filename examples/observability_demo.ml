(* Observability tour: one small deployment under an admission flood,
   watched three ways at once --

     1. a Sampler emitting a four-weekly CSV time series of the metrics,
        the same writer behind each run's metrics.csv under
        `lockss_sim run --report DIR`,
     2. a warn-level subscriber narrating troubled polls,
     3. event counts by kind, plus how many votes each evaluation
        gathered, tallied from the trace into local tables.

   Only the CSV streams to stdout during the run; the other two are
   held and printed after it, so each section's lines sit under its own
   heading. *)

module Duration = Repro_prelude.Duration
module Population = Lockss.Population
module Trace = Lockss.Trace

let () =
  let cfg =
    {
      Lockss.Config.default with
      Lockss.Config.loyal_peers = 20;
      aus = 2;
      quorum = 4;
      max_disagree = 1;
      outer_circle_size = 4;
      reference_list_target = 10;
    }
  in
  let population = Population.create ~seed:11 ~extra_nodes:5 cfg in
  ignore
    (Adversary.Admission_flood.attach population
       ~minions:(Population.extra_nodes population)
       ~coverage:1.0
       ~attack_duration:(Duration.of_days 60.)
       ~recuperation:(Duration.of_days 30.)
       ~invitations_per_victim_au_per_day:24.);
  let trace = Population.trace population in

  (* 1. Four-weekly metric samples as CSV on stdout. *)
  print_endline "-- four-weekly metric samples (CSV) --";
  let series =
    Obs.Series.create ~columns:Lockss.Sampler.columns (Obs.Sink.of_channel stdout)
  in
  let ctx = Population.ctx population in
  let sampler =
    Lockss.Sampler.attach
      ~engine:(Population.engine population)
      ~metrics:ctx.Lockss.Peer.metrics
      ~interval:(Duration.of_days 28.)
      (Lockss.Sampler.series_writer ~seed:11 series)
  in

  (* 2. Only warn-severity events (inquorate/alarmed polls). *)
  let troubled = Buffer.create 256 in
  Trace.subscribe ~interest:Trace.Warn trace (fun ~time event ->
      if Trace.severity event = Trace.Warn then
        Buffer.add_string troubled
          (Format.asprintf "[%a] [warn] %a\n" Duration.pp time Trace.pp_event event));

  (* 3. Counts tallied from the trace. *)
  let bump tbl key =
    Hashtbl.replace tbl key (1 + Option.value ~default:0 (Hashtbl.find_opt tbl key))
  in
  let events_by_kind = Hashtbl.create 32 and evaluations_by_votes = Hashtbl.create 16 in
  Trace.subscribe trace (fun ~time:_ event ->
      bump events_by_kind (Trace.kind event);
      match event with
      | Trace.Evaluation_started { votes; _ } -> bump evaluations_by_votes votes
      | _ -> ());


  Population.run population ~until:(Duration.of_years 0.5);
  Lockss.Sampler.stop sampler;
  Obs.Series.close series;

  print_endline "\n-- troubled polls (warn-level subscriber) --";
  print_string (Buffer.contents troubled);

  let print_sorted title pp tbl =
    Printf.printf "\n-- %s --\n" title;
    List.iter (fun (key, n) -> Printf.printf "%-28s %d\n" (pp key) n)
      (List.sort compare (List.of_seq (Hashtbl.to_seq tbl)))
  in
  print_sorted "events by kind" Fun.id events_by_kind;
  print_sorted "evaluations by votes gathered" string_of_int evaluations_by_votes;

  print_endline "\n-- end-of-run summary --";
  Format.printf "%a@." Lockss.Metrics.pp_summary (Population.summary population)
