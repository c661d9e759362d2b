module Rng = Repro_prelude.Rng
module Duration = Repro_prelude.Duration

type config = {
  loss : float;
  jitter : float;
  duplication : float;
  churn_per_day : float;
  downtime : float;
  corruption : float;
  replay : float;
  stale : float;
  stale_delay : float;
  stray : float;
  fault_seed : int;
}

let none =
  {
    loss = 0.;
    jitter = 0.;
    duplication = 0.;
    churn_per_day = 0.;
    downtime = Duration.of_days 3.;
    corruption = 0.;
    replay = 0.;
    stale = 0.;
    stale_delay = Duration.of_days 3.;
    stray = 0.;
    fault_seed = 0;
  }

let is_none c =
  c.loss = 0. && c.jitter = 0. && c.duplication = 0. && c.churn_per_day = 0.
  && c.corruption = 0. && c.replay = 0. && c.stale = 0. && c.stray = 0.

let validate c =
  let check cond msg = if not cond then invalid_arg ("Faults: " ^ msg) in
  check (c.loss >= 0. && c.loss <= 1.) "loss must be a probability";
  check (c.jitter >= 0.) "jitter must be non-negative";
  check (c.duplication >= 0. && c.duplication <= 1.) "duplication must be a probability";
  check (c.churn_per_day >= 0.) "churn_per_day must be non-negative";
  check (c.churn_per_day = 0. || c.downtime > 0.) "downtime must be positive under churn";
  check (c.corruption >= 0. && c.corruption <= 1.) "corruption must be a probability";
  check (c.replay >= 0. && c.replay <= 1.) "replay must be a probability";
  check (c.stale >= 0. && c.stale <= 1.) "stale must be a probability";
  check (c.stale = 0. || c.stale_delay > 0.) "stale_delay must be positive under stale";
  check (c.stray >= 0. && c.stray <= 1.) "stray must be a probability"

type event =
  | Dropped of { src : int; dst : int }
  | Duplicated of { src : int; dst : int }
  | Delayed of { src : int; dst : int; extra : float }
  | Crashed of { node : int }
  | Restarted of { node : int }
  | Partition_blocked of { src : int; dst : int }
  | Corrupted of { src : int; dst : int }
  | Replayed of { src : int; dst : int; extra : float }
  | Stale of { src : int; dst : int; extra : float }
  | Stray of { src : int; dst : int }

type t = {
  cfg : config;
  engine : Engine.t;
  link_rng : Rng.t;  (* loss/jitter/duplication draws, in send order *)
  churn_rng : Rng.t;  (* split per node when churn starts *)
  content_rng : Rng.t;  (* corruption/replay/stale/stray draws *)
  down : bool array;
  mutable observer : (time:float -> event -> unit) option;
  mutable crash_hooks : (int -> unit) list;
  mutable restart_hooks : (int -> unit) list;
  mutable churn_started : bool;
  mutable dropped : int;
  mutable duplicated : int;
  mutable delayed : int;
  mutable crashes : int;
  mutable restarts : int;
  mutable corrupted : int;
  mutable replayed : int;
  mutable stales : int;
  mutable strays : int;
}

let create ~engine ~nodes cfg =
  validate cfg;
  if nodes <= 0 then invalid_arg "Faults.create: nodes must be positive";
  let root = Rng.create cfg.fault_seed in
  (* Splits taken in a fixed order so enabling the content faults does
     not perturb the pre-existing link/churn streams for a given seed. *)
  {
    cfg;
    engine;
    link_rng = Rng.split root;
    churn_rng = Rng.split root;
    content_rng = Rng.split root;
    down = Array.make nodes false;
    observer = None;
    crash_hooks = [];
    restart_hooks = [];
    churn_started = false;
    dropped = 0;
    duplicated = 0;
    delayed = 0;
    crashes = 0;
    restarts = 0;
    corrupted = 0;
    replayed = 0;
    stales = 0;
    strays = 0;
  }

let config t = t.cfg
let set_observer t f = t.observer <- Some f
let on_crash t f = t.crash_hooks <- t.crash_hooks @ [ f ]
let on_restart t f = t.restart_hooks <- t.restart_hooks @ [ f ]
let is_down t node = t.down.(node)
let down_count t = Array.fold_left (fun acc d -> if d then acc + 1 else acc) 0 t.down

let emit t event =
  match t.observer with
  | None -> ()
  | Some f -> f ~time:(Engine.now t.engine) event

(* One copy's extra latency. The draw happens even at jitter = 0 so that
   turning jitter on or off does not shift the loss/duplication stream. *)
let draw_extra t =
  let u = Rng.float t.link_rng 1.0 in
  u *. t.cfg.jitter

let plan t ~src ~dst =
  if Rng.bernoulli t.link_rng t.cfg.loss then begin
    t.dropped <- t.dropped + 1;
    emit t (Dropped { src; dst });
    []
  end
  else begin
    let note_extra extra =
      if extra > 0. then begin
        t.delayed <- t.delayed + 1;
        emit t (Delayed { src; dst; extra })
      end;
      extra
    in
    let first = note_extra (draw_extra t) in
    if Rng.bernoulli t.link_rng t.cfg.duplication then begin
      t.duplicated <- t.duplicated + 1;
      emit t (Duplicated { src; dst });
      [ first; note_extra (draw_extra t) ]
    end
    else [ first ]
  end

(* Content-fault draws. Unlike the link stream, each draw is guarded by
   its rate being non-zero, so a run with content faults disabled makes
   no [content_rng] draws at all and the pre-existing fault streams stay
   byte-identical for a given seed. *)

let corrupt_salt t =
  if t.cfg.corruption > 0. && Rng.bernoulli t.content_rng t.cfg.corruption then
    Some (Rng.bits64 t.content_rng)
  else None

let replay_extra t =
  if t.cfg.replay > 0. && Rng.bernoulli t.content_rng t.cfg.replay then
    Some (Rng.float t.content_rng 1.0 *. t.cfg.jitter)
  else None

let stale_extra t =
  if t.cfg.stale > 0. && Rng.bernoulli t.content_rng t.cfg.stale then
    Some (t.cfg.stale_delay +. (Rng.float t.content_rng 1.0 *. t.cfg.jitter))
  else None

let stray_salt t =
  if t.cfg.stray > 0. && Rng.bernoulli t.content_rng t.cfg.stray then
    Some (Rng.bits64 t.content_rng)
  else None

let pick t n =
  if n <= 0 then invalid_arg "Faults.pick: empty range"
  else Rng.int t.content_rng n

let note_down_drop t ~src ~dst =
  t.dropped <- t.dropped + 1;
  emit t (Dropped { src; dst })

let note_partition_block t ~src ~dst = emit t (Partition_blocked { src; dst })

let note_corrupted t ~src ~dst =
  t.corrupted <- t.corrupted + 1;
  emit t (Corrupted { src; dst })

let note_replayed t ~src ~dst ~extra =
  t.replayed <- t.replayed + 1;
  emit t (Replayed { src; dst; extra })

let note_stale t ~src ~dst ~extra =
  t.stales <- t.stales + 1;
  emit t (Stale { src; dst; extra })

let note_stray t ~src ~dst =
  t.strays <- t.strays + 1;
  emit t (Stray { src; dst })

let start_churn t ~nodes =
  if t.churn_started then invalid_arg "Faults.start_churn: already started";
  t.churn_started <- true;
  if t.cfg.churn_per_day > 0. then begin
    let mean = Duration.day /. t.cfg.churn_per_day in
    List.iter
      (fun node ->
        let rng = Rng.split t.churn_rng in
        let rec schedule_crash () =
          let delay = Rng.exponential rng ~mean in
          ignore
            (Engine.schedule_in t.engine ~after:delay (fun () ->
                 t.down.(node) <- true;
                 t.crashes <- t.crashes + 1;
                 emit t (Crashed { node });
                 List.iter (fun f -> f node) t.crash_hooks;
                 ignore
                   (Engine.schedule_in t.engine ~after:t.cfg.downtime (fun () ->
                        t.down.(node) <- false;
                        t.restarts <- t.restarts + 1;
                        emit t (Restarted { node });
                        List.iter (fun f -> f node) t.restart_hooks;
                        schedule_crash ()))))
        in
        schedule_crash ())
      nodes
  end

let dropped_count t = t.dropped
let duplicated_count t = t.duplicated
let delayed_count t = t.delayed
let crash_count t = t.crashes
let restart_count t = t.restarts
let corrupted_count t = t.corrupted
let replayed_count t = t.replayed
let stale_count t = t.stales
let stray_count t = t.strays
