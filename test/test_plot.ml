(* Golden tests for the gnuplot figure writers and the rendered tables.

   Each case renders one figN.dat or figN.gp, or one target's printed
   table or CSV ([reproduce TARGET] and [--csv]), from a small seeded
   sweep and compares its MD5 against a pinned golden: these bytes are
   downstream of every simulation layer, so a drifted golden means a
   change moved the figures or tables the paper reproduction emits.

   Regenerate (only when figure output is MEANT to change) with:

     GOLDEN_REGEN=$PWD/test/goldens/plot.golden \
       dune exec test/test_plot.exe
*)

open Experiments

(* Under [dune runtest] the cwd is _build/default/test (the goldens are
   declared as test deps); under [dune exec] from the workspace root it
   is the root itself. *)
let golden_file =
  lazy
    (List.find Sys.file_exists [ "goldens/plot.golden"; "test/goldens/plot.golden" ])

(* Same micro scale the baseline tests pin: small enough that the four
   sweeps take seconds, large enough that every figure has distinct
   series. *)
let micro =
  {
    Scenario.peers = 15;
    aus = 2;
    quorum = 4;
    max_disagree = 1;
    outer_circle = 3;
    reference_target = 8;
    years = 1.;
    runs = 1;
    seed = 5;
  }

let with_temp_dir f =
  let dir = Filename.temp_file "plot_golden" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () ->
      Array.iter (fun n -> Sys.remove (Filename.concat dir n)) (Sys.readdir dir);
      Unix.rmdir dir)
    (fun () -> f dir)

let read path = In_channel.with_open_bin path In_channel.input_all

(* One sweeps value shared by every case, so each sweep runs once. *)
let sweeps = lazy (Golden.sweeps ~scale:micro)

(* Every figure's .dat and .gp, written by the figure table's own plot
   writer, then every target's table as printed and as CSV. *)
let cases () =
  let sweeps = Lazy.force sweeps in
  let plots =
    List.concat_map
      (fun (f : Golden.figure) ->
        match f.Golden.plot with
        | None -> []
        | Some plot ->
          with_temp_dir (fun dir ->
              plot ~dir sweeps;
              List.map
                (fun ext ->
                  let name = f.Golden.name ^ ext in
                  (name, read (Filename.concat dir name)))
                [ ".dat"; ".gp" ]))
      Golden.figures
  in
  let tables =
    List.concat_map
      (fun (f : Golden.figure) ->
        let table = f.Golden.table sweeps in
        [
          (f.Golden.name ^ ".table", Repro_prelude.Table.render table);
          (f.Golden.name ^ ".csv", Repro_prelude.Table.to_csv table);
        ])
      Golden.figures
  in
  plots @ tables

let digest s = Digest.to_hex (Digest.string s)

(* -- Golden plumbing ----------------------------------------------------- *)

let load_goldens path =
  In_channel.with_open_text path (fun ic ->
      let rec go acc =
        match In_channel.input_line ic with
        | None -> List.rev acc
        | Some line ->
          (match String.index_opt line '=' with
          | None -> go acc
          | Some i ->
            go
              ((String.sub line 0 i,
                String.sub line (i + 1) (String.length line - i - 1))
              :: acc))
      in
      go [])

let regen path =
  Out_channel.with_open_text path (fun oc ->
      List.iter
        (fun (name, content) ->
          let d = digest content in
          Printf.fprintf oc "%s=%s\n" name d;
          Printf.printf "%s=%s\n%!" name d)
        (cases ()))

let check_case goldens name content () =
  match List.assoc_opt name goldens with
  | None -> Alcotest.fail (Printf.sprintf "no golden pinned for %s" name)
  | Some expected ->
    let actual = digest content in
    if actual <> expected then
      Alcotest.fail
        (Printf.sprintf
           "%s drifted from its golden\n  pinned %s\n  actual %s\n\
            If the figure change is intended, regenerate with\n\
            GOLDEN_REGEN=$PWD/test/goldens/plot.golden dune exec \
            test/test_plot.exe\n--- emitted ---\n%s"
           name expected actual content)

let () =
  match Sys.getenv_opt "GOLDEN_REGEN" with
  | Some path when path <> "" -> regen path
  | _ ->
    let goldens = load_goldens (Lazy.force golden_file) in
    Alcotest.run "plot"
      [
        ( "goldens",
          List.map
            (fun (name, content) ->
              Alcotest.test_case name `Quick (check_case goldens name content))
            (cases ()) );
      ]
