(* Observability tour: one small deployment under an admission flood,
   watched three ways at once --

     1. a warn-level pretty sink narrating troubled polls to stdout,
     2. an Obs.Registry fed from the trace (event counts by kind, plus a
        histogram of votes gathered per evaluation),
     3. a Sampler emitting a weekly CSV time series of the metrics,

   which is the same machinery behind `lockss_sim run --report DIR` and
   every Experiments.Scenario run's report. *)

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

  (* 1. Pretty sink: only warn-severity events (inquorate/alarmed polls). *)
  print_endline "-- troubled polls (warn-level pretty sink) --";
  Trace.subscribe trace (Trace.pretty_sink ~min_severity:Trace.Warn Format.std_formatter);

  (* 2. Registry fed from the trace. *)
  let registry = Obs.Registry.create () in
  let votes_per_eval = Obs.Registry.histogram registry "votes_per_evaluation" in
  Trace.subscribe trace (fun ~time:_ event ->
      Obs.Registry.Counter.incr (Obs.Registry.counter registry ("events." ^ Trace.kind event));
      match event with
      | Trace.Evaluation_started { votes; _ } ->
        Obs.Registry.Histogram.observe votes_per_eval (float_of_int votes)
      | _ -> ());

  (* 3. Four-weekly metric samples as CSV on stdout. *)
  print_endline "\n-- four-weekly metric samples (CSV) --";
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

  Population.run population ~until:(Duration.of_years 0.5);
  Lockss.Sampler.stop sampler;
  Obs.Series.close series;

  print_endline "\n-- registry snapshot --";
  List.iter
    (fun (name, value) -> Printf.printf "%-28s %s\n" name (Obs.Json.to_string value))
    (Obs.Registry.snapshot registry);

  print_endline "\n-- end-of-run summary --";
  Format.printf "%a@." Lockss.Metrics.pp_summary (Population.summary population)
