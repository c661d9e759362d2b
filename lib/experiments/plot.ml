module Duration = Repro_prelude.Duration

let write_file ~dir ~name content =
  let path = Filename.concat dir name in
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc content)

(* Group [points] by [key] (insertion-ordered), one gnuplot index per
   group: a title comment, data lines, then the double blank line gnuplot
   uses as an index separator. *)
let dat ~series_of ~line points =
  let buf = Buffer.create 1024 in
  let seen = ref [] in
  let keys =
    List.filter_map
      (fun p ->
        let k = series_of p in
        if List.mem k !seen then None
        else begin
          seen := k :: !seen;
          Some k
        end)
      points
  in
  List.iter
    (fun key ->
      Buffer.add_string buf (Printf.sprintf "# series %s\n" key);
      List.iter
        (fun p -> if series_of p = key then Buffer.add_string buf (line p))
        points;
      Buffer.add_string buf "\n\n")
    keys;
  (Buffer.contents buf, keys)

(* Every figure is log-scaled in y; the grid figures' duration axis is
   log-scaled too. *)
let gp ~name ~title ~xlabel ~logx ~ylabel ~keys =
  let plots =
    List.mapi
      (fun i key ->
        Printf.sprintf "'%s.dat' index %d with linespoints title '%s'" name i key)
      keys
  in
  String.concat "\n"
    ([
       "set terminal png size 800,560";
       Printf.sprintf "set output '%s.png'" name;
       Printf.sprintf "set title '%s'" title;
       Printf.sprintf "set xlabel '%s'" xlabel;
       Printf.sprintf "set ylabel '%s'" ylabel;
     ]
    @ (if logx then [ "set logscale x" ] else [])
    @ [ "set logscale y"; "set key left top"; "plot " ^ String.concat ", \\\n     " plots; "" ])

let write_figure ~dir ~name ~title ~xlabel ~logx ~ylabel points ~series_of ~x ~y =
  let content, keys =
    dat points ~series_of ~line:(fun p -> Printf.sprintf "%g %g\n" (x p) (y p))
  in
  write_file ~dir ~name:(name ^ ".dat") content;
  write_file ~dir ~name:(name ^ ".gp") (gp ~name ~title ~xlabel ~logx ~ylabel ~keys)

let write_grid ~dir ~name (family : Grid.family) (measure : Grid.measure) points =
  write_figure ~dir ~name
    ~title:(Printf.sprintf "%s under %s" measure.Grid.title family.Grid.name)
    ~xlabel:"attack duration (days)" ~logx:true ~ylabel:measure.Grid.axis points
    ~series_of:(fun (p : Grid.point) -> Printf.sprintf "%.0f%%" (100. *. p.Grid.coverage))
    ~x:(fun p -> Duration.to_days p.Grid.duration)
    ~y:measure.Grid.value

let write_baseline ~dir ~name points =
  write_figure ~dir ~name ~title:"Baseline access failure vs inter-poll interval"
    ~xlabel:"inter-poll interval (months)" ~logx:false ~ylabel:"access failure probability"
    points
    ~series_of:(fun (p : Baseline.point) ->
      Printf.sprintf "MTTF %gy, %d AUs" p.Baseline.mttf_years p.Baseline.collection)
    ~x:(fun p -> Duration.to_months p.Baseline.interval)
    ~y:(fun p -> p.Baseline.access_failure)
