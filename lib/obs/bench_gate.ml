type direction = Higher_is_worse | Lower_is_worse

type delta = {
  path : string;
  baseline : float;
  current : float;
  change_pct : float;
  direction : direction option;
  regressed : bool;
}

type report = {
  deltas : delta list;
  missing_tracked : string list;
  unpinned_tracked : string list;
  skipped : string list;
  degenerate_current : string list;
  added : string list;
  degenerate_subtrees : string list;
  threshold_pct : float;
  allow_degenerate_current : bool;
}

(* Members used to key list elements so the diff survives reordering. *)
let key_members = [ "variant"; "target"; "phase"; "bucket"; "name" ]

let element_key json =
  List.find_map
    (fun m -> Option.bind (Json.member m json) Json.string_value)
    key_members

let join prefix seg = if prefix = "" then seg else prefix ^ "." ^ seg

(* Flatten to (path, value) leaves, and separately collect the prefixes
   of objects carrying [("degenerate", true)] — benches mark a whole
   sub-document degenerate when the environment cannot exercise what the
   metric measures (e.g. a parallel sweep on a 1-core host). *)
let flatten_with_degenerate json =
  let acc = ref [] in
  let degenerate = ref [] in
  let rec go prefix (json : Json.t) =
    match json with
    | Int i -> acc := (prefix, float_of_int i) :: !acc
    | Float f -> acc := (prefix, f) :: !acc
    | Bool _ | Null | String _ -> ()
    | Assoc fields ->
      if List.exists (fun (k, v) -> k = "degenerate" && v = Json.Bool true) fields
      then degenerate := prefix :: !degenerate;
      List.iter (fun (k, v) -> go (join prefix k) v) fields
    | List items ->
      List.iteri
        (fun i item ->
          let seg =
            match element_key item with
            | Some key -> key
            | None -> string_of_int i
          in
          go (join prefix seg) item)
        items
  in
  go "" json;
  (List.rev !acc, List.rev !degenerate)

let flatten json = fst (flatten_with_degenerate json)

let last_segment path =
  match String.rindex_opt path '.' with
  | Some i -> String.sub path (i + 1) (String.length path - i - 1)
  | None -> path

(* The tracked-metric registry: direction of badness plus an optional
   neutral point. A neutral is the metric's natural no-effect value —
   for [overhead] and [slowdown] ratios that is 1.0: a baseline that
   happens to land *better* than neutral (chaos overhead 0.69, because
   faults drop messages) must not turn later drift back toward 1.0 into
   a failure. [speedup] deliberately has no neutral: collapsing from a
   2x speedup to 1x is a real loss of parallelism, so it gates against
   the baseline itself. *)
let tracked_of_path path =
  match last_segment path with
  | "overhead" -> Some (Higher_is_worse, Some 1.0)
  | "slowdown" -> Some (Higher_is_worse, Some 1.0)
  | "speedup" -> Some (Lower_is_worse, None)
  (* Allocation per simulated event is near machine-independent (the
     simulation is deterministic; only GC timing varies), so unlike raw
     seconds it is safe to gate. No neutral: any growth past the
     threshold is a genuine allocation regression. *)
  | "words_per_event" -> Some (Higher_is_worse, None)
  (* Resident words around a seeded population build: deterministic for
     the same reason, and gated the same way. *)
  | "live_words" -> Some (Higher_is_worse, None)
  | _ -> None

let change_pct ~baseline ~current =
  if Float.is_finite baseline && baseline <> 0. && Float.is_finite current then
    (current -. baseline) /. Float.abs baseline *. 100.
  else nan

let default_threshold_pct = 25.

(* A metric regresses only on movement past the reference point in its
   bad direction. The reference is the baseline, slackened to the
   neutral when the baseline is on the better side of it. *)
let regresses ~threshold_pct ~direction ~neutral ~baseline ~current =
  if not (Float.is_finite baseline && Float.is_finite current) then false
  else
    let frac = threshold_pct /. 100. in
    match direction with
    | Higher_is_worse ->
      let ref_ = match neutral with Some n -> Float.max baseline n | None -> baseline in
      current > ref_ +. (Float.abs ref_ *. frac)
    | Lower_is_worse ->
      let ref_ = match neutral with Some n -> Float.min baseline n | None -> baseline in
      current < ref_ -. (Float.abs ref_ *. frac)

let compare_json ?(threshold_pct = default_threshold_pct)
    ?(allow_degenerate_current = false) ~baseline ~current () =
  let base, base_deg = flatten_with_degenerate baseline in
  let cur, cur_deg = flatten_with_degenerate current in
  let under prefixes path =
    List.exists
      (fun d -> d = "" || path = d || String.starts_with ~prefix:(d ^ ".") path)
      prefixes
  in
  (* A path under a degenerate prefix in the *baseline* never had a real
     pin, so there is nothing to gate: skip. A path degenerate only in
     the *current* artifact is the opposite situation — an armed pin
     whose gate silently stopped measuring (e.g. a speedup baseline from
     a multicore runner, re-run on one core). That used to read as
     all-green; it is collected separately as [degenerate_current]. *)
  let base_degenerate path = under base_deg path in
  let cur_only_degenerate path = under cur_deg path && not (under base_deg path) in
  let cur_tbl = Hashtbl.create 64 in
  List.iter (fun (path, v) -> Hashtbl.replace cur_tbl path v) cur;
  let deltas, missing_tracked, skipped, degenerate_current =
    List.fold_left
      (fun (deltas, missing, skipped, deg_cur) (path, b) ->
        let tracked = tracked_of_path path in
        let skip = tracked <> None && base_degenerate path in
        let demoted = tracked <> None && (not skip) && cur_only_degenerate path in
        let deg_cur = if demoted then path :: deg_cur else deg_cur in
        match Hashtbl.find_opt cur_tbl path with
        | Some c ->
          let pct = change_pct ~baseline:b ~current:c in
          let regressed =
            match tracked with
            | None -> false
            | Some _ when skip || demoted -> false
            | Some (direction, neutral) ->
              regresses ~threshold_pct ~direction ~neutral ~baseline:b ~current:c
          in
          ( {
              path;
              baseline = b;
              current = c;
              change_pct = pct;
              direction = Option.map fst tracked;
              regressed;
            }
            :: deltas,
            missing,
            (if skip then path :: skipped else skipped),
            deg_cur )
        | None ->
          if tracked = None then (deltas, missing, skipped, deg_cur)
          else if skip then (deltas, missing, path :: skipped, deg_cur)
          else if demoted then (deltas, missing, skipped, deg_cur)
          else (deltas, path :: missing, skipped, deg_cur))
      ([], [], [], []) base
  in
  let base_tbl = Hashtbl.create 64 in
  List.iter (fun (path, _) -> Hashtbl.replace base_tbl path ()) base;
  let added =
    List.filter_map
      (fun (path, _) -> if Hashtbl.mem base_tbl path then None else Some path)
      cur
  in
  (* The mirror of [missing_tracked]: a tracked leaf the current artifact
     measures but the baseline never pinned gates nothing, so a pin that
     misses a variant must not pass. Under a degenerate prefix on either
     side there is no live measurement to pin. *)
  let unpinned_tracked =
    List.filter
      (fun path ->
        tracked_of_path path <> None
        && not (base_degenerate path || under cur_deg path))
      added
  in
  let degenerate_subtrees = List.sort_uniq String.compare (base_deg @ cur_deg) in
  {
    deltas = List.sort (fun a b -> compare a.path b.path) deltas;
    missing_tracked = List.rev missing_tracked;
    unpinned_tracked;
    skipped = List.rev skipped;
    degenerate_current = List.rev degenerate_current;
    added;
    degenerate_subtrees;
    threshold_pct;
    allow_degenerate_current;
  }

let regressions report = List.filter (fun d -> d.regressed) report.deltas

let ok report =
  regressions report = []
  && report.missing_tracked = []
  && report.unpinned_tracked = []
  && (report.allow_degenerate_current || report.degenerate_current = [])

let direction_to_json = function
  | None -> Json.Null
  | Some Higher_is_worse -> Json.String "higher_is_worse"
  | Some Lower_is_worse -> Json.String "lower_is_worse"

let delta_to_json d =
  Json.Assoc
    [
      ("path", Json.String d.path);
      ("baseline", Json.Float d.baseline);
      ("current", Json.Float d.current);
      ("change_pct", Json.Float d.change_pct);
      ("direction", direction_to_json d.direction);
      ("regressed", Json.Bool d.regressed);
    ]

let report_json report =
  Json.Assoc
    [
      ("ok", Json.Bool (ok report));
      ("threshold_pct", Json.Float report.threshold_pct);
      ("regressions", Json.List (List.map delta_to_json (regressions report)));
      ( "missing_tracked",
        Json.List (List.map (fun p -> Json.String p) report.missing_tracked) );
      ( "unpinned_tracked",
        Json.List (List.map (fun p -> Json.String p) report.unpinned_tracked) );
      ("skipped", Json.List (List.map (fun p -> Json.String p) report.skipped));
      ( "degenerate_current",
        Json.List (List.map (fun p -> Json.String p) report.degenerate_current) );
      ("allow_degenerate_current", Json.Bool report.allow_degenerate_current);
      ( "degenerate_subtrees",
        Json.List (List.map (fun p -> Json.String p) report.degenerate_subtrees) );
      ("added", Json.List (List.map (fun p -> Json.String p) report.added));
      ("deltas", Json.List (List.map delta_to_json report.deltas));
    ]

let pp_report ppf report =
  let skipped_tbl = Hashtbl.create 8 in
  List.iter (fun p -> Hashtbl.replace skipped_tbl p ()) report.skipped;
  let deg_cur_tbl = Hashtbl.create 8 in
  List.iter (fun p -> Hashtbl.replace deg_cur_tbl p ()) report.degenerate_current;
  let tracked = List.filter (fun d -> d.direction <> None) report.deltas in
  Format.fprintf ppf "@[<v>";
  Format.fprintf ppf "tracked metrics (threshold %.0f%%):@," report.threshold_pct;
  List.iter
    (fun d ->
      Format.fprintf ppf "  %-50s %10.4g -> %10.4g  %+7.1f%%  %s@," d.path d.baseline
        d.current d.change_pct
        (if d.regressed then "REGRESSED"
         else if Hashtbl.mem skipped_tbl d.path then "SKIPPED (degenerate)"
         else if Hashtbl.mem deg_cur_tbl d.path then
           if report.allow_degenerate_current then "DEGENERATE NOW [allowed]"
           else "DEGENERATE NOW"
         else "ok"))
    tracked;
  if tracked = [] then Format.fprintf ppf "  (none)@,";
  List.iter
    (fun path ->
      if not (List.exists (fun d -> d.path = path) report.deltas) then
        Format.fprintf ppf "  %-50s SKIPPED (degenerate)@," path)
    report.skipped;
  List.iter
    (fun path ->
      if not (List.exists (fun d -> d.path = path) report.deltas) then
        Format.fprintf ppf "  %-50s DEGENERATE NOW (pinned live in baseline)%s@,"
          path
          (if report.allow_degenerate_current then " [allowed]" else ""))
    report.degenerate_current;
  List.iter
    (fun path -> Format.fprintf ppf "  %-50s MISSING (tracked in baseline)@," path)
    report.missing_tracked;
  List.iter
    (fun path -> Format.fprintf ppf "  %-50s UNPINNED (absent from baseline)@," path)
    report.unpinned_tracked;
  let info = List.filter (fun d -> d.direction = None) report.deltas in
  let shown = List.filteri (fun i _ -> i < 20) info in
  if shown <> [] then begin
    Format.fprintf ppf "informational:@,";
    List.iter
      (fun d ->
        Format.fprintf ppf "  %-50s %10.4g -> %10.4g  %+7.1f%%@," d.path d.baseline
          d.current d.change_pct)
      shown;
    let rest = List.length info - List.length shown in
    if rest > 0 then Format.fprintf ppf "  ... and %d more@," rest
  end;
  if report.added <> [] then
    Format.fprintf ppf "new metrics: %s@," (String.concat ", " report.added);
  (* The verdict line names every degenerate subtree whose tracked
     metrics were skipped: an all-green gate that silently measured
     nothing (e.g. a speedup sweep on a 1-core host) must say so. *)
  let degenerate_note =
    match report.degenerate_subtrees with
    | [] -> ""
    | subtrees ->
      let name = function "" -> "(root)" | p -> p in
      Printf.sprintf " — %d degenerate subtree%s skipped: %s"
        (List.length subtrees)
        (if List.length subtrees = 1 then "" else "s")
        (String.concat ", " (List.map name subtrees))
  in
  Format.fprintf ppf "verdict: %s%s@]"
    (if ok report then "OK" else "REGRESSED")
    degenerate_note
