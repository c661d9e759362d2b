(* A [Gc.quick_stat] projection; words are floats as reported by the
   runtime. *)
type gc = {
  minor_words : float;
  promoted_words : float;
  major_words : float;
  minor_collections : int;
  major_collections : int;
  compactions : int;
  heap_words : int;
  top_heap_words : int;
}

let gc_now () =
  let s = Gc.quick_stat () in
  {
    minor_words = s.Gc.minor_words;
    promoted_words = s.Gc.promoted_words;
    major_words = s.Gc.major_words;
    minor_collections = s.Gc.minor_collections;
    major_collections = s.Gc.major_collections;
    compactions = s.Gc.compactions;
    heap_words = s.Gc.heap_words;
    top_heap_words = s.Gc.top_heap_words;
  }

(* Minor + major - promoted: total words allocated. *)
let allocated_words g = g.minor_words +. g.major_words -. g.promoted_words

let gc_to_json g =
  Json.Assoc
    [
      ("minor_words", Json.Float g.minor_words);
      ("promoted_words", Json.Float g.promoted_words);
      ("major_words", Json.Float g.major_words);
      ("allocated_words", Json.Float (allocated_words g));
      ("minor_collections", Json.Int g.minor_collections);
      ("major_collections", Json.Int g.major_collections);
      ("compactions", Json.Int g.compactions);
      ("heap_words", Json.Int g.heap_words);
      ("top_heap_words", Json.Int g.top_heap_words);
    ]

type domain_stat = {
  domain : int;
  busy_s : float;
  cpu_s : float;
  tasks : int;
  minor_words : float;
  minor_collections : int;
  major_collections : int;
}

type t = {
  clock : unit -> float;
  mutable phases_rev : (string * float ref) list;
  domains : (int, domain_stat ref) Hashtbl.t;
  mutable last_gc : gc option;
}

let create ?clock () =
  {
    clock =
      (match clock with Some c -> c | None -> Repro_prelude.Monotonic.now_s);
    phases_rev = [];
    domains = Hashtbl.create 8;
    last_gc = None;
  }

let phase_cell t name =
  match List.assoc_opt name t.phases_rev with
  | Some cell -> cell
  | None ->
    let cell = ref 0. in
    t.phases_rev <- (name, cell) :: t.phases_rev;
    cell

let add_phase_time t name seconds =
  let cell = phase_cell t name in
  cell := !cell +. seconds

let phase t name f =
  let start = t.clock () in
  Fun.protect
    ~finally:(fun () -> add_phase_time t name (t.clock () -. start))
    f

let phase_seconds t name =
  match List.assoc_opt name t.phases_rev with Some cell -> !cell | None -> 0.

let sample_gc t = t.last_gc <- Some (gc_now ())

let note_domain t ~domain ?(cpu_s = 0.) ?(minor_words = 0.)
    ?(minor_collections = 0) ?(major_collections = 0) ~busy_s ~tasks () =
  match Hashtbl.find_opt t.domains domain with
  | Some cell ->
    cell :=
      {
        domain;
        busy_s = !cell.busy_s +. busy_s;
        cpu_s = !cell.cpu_s +. cpu_s;
        tasks = !cell.tasks + tasks;
        minor_words = !cell.minor_words +. minor_words;
        minor_collections = !cell.minor_collections + minor_collections;
        major_collections = !cell.major_collections + major_collections;
      }
  | None ->
    Hashtbl.replace t.domains domain
      (ref
         {
           domain;
           busy_s;
           cpu_s;
           tasks;
           minor_words;
           minor_collections;
           major_collections;
         })

let domain_stats t =
  Hashtbl.fold (fun _ cell acc -> !cell :: acc) t.domains []
  |> List.sort (fun a b -> compare a.domain b.domain)

let phases t = List.rev t.phases_rev

let snapshot_json t =
  Json.Assoc
    [
      ( "phases",
        Json.Assoc (List.map (fun (name, cell) -> (name, Json.Float !cell)) (phases t))
      );
      ( "domains",
        Json.List
          (List.map
             (fun d ->
               Json.Assoc
                 [
                   ("domain", Json.Int d.domain);
                   ("busy_s", Json.Float d.busy_s);
                   ("cpu_s", Json.Float d.cpu_s);
                   ("tasks", Json.Int d.tasks);
                   ("minor_words", Json.Float d.minor_words);
                   ("minor_collections", Json.Int d.minor_collections);
                   ("major_collections", Json.Int d.major_collections);
                 ])
             (domain_stats t)) );
      ("gc", match t.last_gc with None -> Json.Null | Some g -> gc_to_json g);
    ]

let pp ppf t =
  Format.fprintf ppf "@[<v>";
  Format.fprintf ppf "phases:@,";
  List.iter
    (fun (name, cell) -> Format.fprintf ppf "  %-12s %8.3fs@," name !cell)
    (phases t);
  (match domain_stats t with
  | [] -> ()
  | stats ->
    Format.fprintf ppf "domains:@,";
    List.iter
      (fun d ->
        Format.fprintf ppf
          "  domain %d: busy %8.3fs (cpu %8.3fs) over %d tasks, %.3gM minor \
           words, %d minor / %d major collections@,"
          d.domain d.busy_s d.cpu_s d.tasks
          (d.minor_words /. 1e6)
          d.minor_collections d.major_collections)
      stats);
  (match t.last_gc with
  | None -> ()
  | Some g ->
    Format.fprintf ppf
      "gc: %.3gM words allocated, %d minor / %d major collections, heap %.3gM words@,"
      (allocated_words g /. 1e6)
      g.minor_collections g.major_collections
      (float_of_int g.heap_words /. 1e6));
  Format.fprintf ppf "@]"
