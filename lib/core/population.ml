module Engine = Narses.Engine
module Rng = Repro_prelude.Rng
module Duration = Repro_prelude.Duration

type t = {
  cfg : Config.t;
  ctx : Peer.ctx;
  topology : Narses.Topology.t;
  partition : Narses.Partition.t;
  faults : Narses.Faults.t option;
  crashed_by_fault : bool array;
  mutable crash_hooks : (Narses.Topology.node -> unit) list;
  rng : Rng.t;
  extra : Narses.Topology.node list;
  (* Per-population (not global) so concurrent populations on other
     domains cannot perturb an attack's identity-block numbering. *)
  mutable adversary_instances : int;
}

let poll_id_of (msg : Message.t) =
  match msg.Message.payload with
  | Message.Poll { poll_id; _ }
  | Message.Poll_ack { poll_id; _ }
  | Message.Poll_proof { poll_id; _ }
  | Message.Vote_msg { poll_id; _ }
  | Message.Repair_request { poll_id; _ }
  | Message.Repair { poll_id; _ }
  | Message.Evaluation_receipt { poll_id; _ } ->
    Some poll_id
  | Message.Garbage _ -> None

let rec dispatch ctx peer ~src (msg : Message.t) =
  if not peer.Peer.active then ()
  else if
    (* Every handler indexes [peer.aus] by the claimed AU; a corrupted or
       forged AU must be rejected here, before any state is touched. *)
    msg.Message.au < 0 || msg.Message.au >= Array.length peer.Peer.aus
  then
    Peer.reject_message ctx peer ~from_:msg.Message.identity ~au:msg.Message.au
      ?poll_id:(poll_id_of msg)
      ~msg_kind:(Message.kind_string msg) Trace.Bad_au
  else begin
    dispatch_active ctx peer ~src msg
  end

and dispatch_active ctx peer ~src (msg : Message.t) =
  let identity = msg.Message.identity and au = msg.Message.au in
  match msg.Message.payload with
  | Message.Poll { poll_id; intro } ->
    Voter.on_poll ctx peer ~src ~identity ~au ~poll_id ~intro
  | Message.Poll_ack { poll_id; accepted } ->
    Poller.on_poll_ack ctx peer ~identity ~au ~poll_id ~accepted
  | Message.Poll_proof { poll_id; remaining; nonce } ->
    Voter.on_poll_proof ctx peer ~identity ~au ~poll_id ~remaining ~nonce
  | Message.Vote_msg { poll_id; vote } -> Poller.on_vote ctx peer ~identity ~au ~poll_id ~vote
  | Message.Repair_request { poll_id; block } ->
    Voter.on_repair_request ctx peer ~identity ~au ~poll_id ~block
  | Message.Repair { poll_id; block; version } ->
    Poller.on_repair ctx peer ~identity ~au ~poll_id ~block ~version
  | Message.Evaluation_receipt { poll_id; receipt } ->
    Voter.on_receipt ctx peer ~identity ~au ~poll_id ~receipt
  | Message.Garbage _ -> Voter.on_garbage ctx peer ~identity ~au

(* Which peers hold which AUs. Full coverage is the paper's setup; lower
   coverage assigns each AU a random holder subset that is always larger
   than an inner circle, so polls remain possible. The sampling below
   shuffles a [loyal]-length sequence per AU either way, so the seeded
   draw stream is unchanged from the dense-matrix representation. *)
let assign_holdings cfg rng ~scratch ~loyal =
  if cfg.Config.au_coverage >= 1. then Holdings.full ~peers:loyal ~aus:cfg.Config.aus
  else begin
    let holders_per_au =
      max
        ((cfg.Config.inner_circle_factor * cfg.Config.quorum) + 1)
        (int_of_float (Float.round (cfg.Config.au_coverage *. float_of_int loyal)))
    in
    let per_au =
      Array.init cfg.Config.aus (fun _ ->
          for i = 0 to loyal - 1 do
            scratch.(i) <- i
          done;
          let sampled = Rng.sample_prefix rng holders_per_au scratch ~len:loyal in
          Array.of_list (List.sort compare sampled))
    in
    Holdings.sparse ~peers:loyal per_au
  end

(* [scratch] is the population's own candidate buffer (at least [loyal]
   long): every sample below fills its prefix and shuffles it in place,
   making the same draws as shuffling a fresh array of those
   candidates. *)
let make_peer cfg rng holdings ~scratch node =
  let peer_rng = Rng.split rng in
  (* Bootstrap candidates span the initially-active population only:
     ids [0, loyal_peers) minus this node (dormant ids lie above). *)
  let active = cfg.Config.loyal_peers in
  let others = ref 0 in
  for id = 0 to active - 1 do
    if id <> node then begin
      scratch.(!others) <- id;
      incr others
    end
  done;
  let friends = Rng.sample_prefix peer_rng cfg.Config.friends_count scratch ~len:!others in
  let aus =
    Array.init cfg.Config.aus (fun au ->
        let held = Holdings.holds holdings ~peer:node ~au in
        let holders =
          Holdings.fill_holders holdings ~au ~limit:active ~excluding:node scratch
        in
        let au_friends =
          List.filter (fun id -> Holdings.holds holdings ~peer:id ~au) friends
        in
        let initial =
          Rng.sample_prefix peer_rng cfg.Config.reference_list_target scratch ~len:holders
        in
        let known = Known_peers.create ~decay_period:cfg.Config.grade_decay_period in
        (* Bootstrap reciprocity: the initial reference list models peers
           learned while crawling the publisher together, so they start on
           an even footing rather than as strangers. *)
        List.iter
          (fun id -> Known_peers.set known ~now:0. id Grade.Even)
          (au_friends @ initial);
        {
          Peer.au;
          held;
          replica = Replica.create ~au ~blocks:cfg.Config.au_blocks;
          known;
          admission = Admission.create cfg;
          reference =
            Reference_list.create ~target:cfg.Config.reference_list_target
              ~friends:au_friends ~initial;
          current_poll = None;
        })
  in
  {
    Peer.node;
    identity = node;
    friends;
    schedule = Effort.Task_schedule.create ~capacity:cfg.Config.capacity;
    rng = peer_rng;
    aus;
    poll_counter = 0;
    voter_sessions = Peer.Session_tbl.create 64;
    closed_sessions = Peer.Closed_set.create ~capacity:Peer.closed_session_capacity;
    active = true;
  }

let held_aus (peer : Peer.t) =
  Array.to_list peer.Peer.aus
  |> List.filter_map (fun (st : Peer.au_state) ->
         if st.Peer.held then Some st.Peer.au else None)

let schedule_damage_process t (peer : Peer.t) =
  let cfg = t.cfg in
  match Array.of_list (held_aus peer) with
  | [||] -> ()
  | held ->
    let disks =
      float_of_int (Array.length held) /. float_of_int cfg.Config.aus_per_disk
    in
    let mttf_seconds = Duration.of_years cfg.Config.disk_mttf_years in
    let mean_interarrival = mttf_seconds /. Float.max disks 1e-9 in
    let rng = Rng.split peer.Peer.rng in
    let rec schedule_next () =
      let delay = Rng.exponential rng ~mean:mean_interarrival in
      ignore
        (Engine.schedule_in t.ctx.Peer.engine ~after:delay (fun () ->
             let au = Rng.pick rng held in
             let block = Rng.int rng cfg.Config.au_blocks in
             let version = 1 + Rng.int rng 1_000_000 in
             let st = Peer.au_state peer au in
             let was_clean = Replica.damage st.Peer.replica ~block ~version in
             if was_clean then
               Metrics.on_replica_damaged t.ctx.Peer.metrics
                 ~now:(Engine.now t.ctx.Peer.engine);
             schedule_next ()))
    in
    schedule_next ()

let schedule_reader_process t (peer : Peer.t) =
  let cfg = t.cfg in
  let rate = cfg.Config.reads_per_replica_per_day in
  match Array.of_list (held_aus peer) with
  | [||] -> ()
  | held ->
    if rate > 0. then begin
      let mean = Duration.day /. rate /. float_of_int (Array.length held) in
      let rng = Rng.split peer.Peer.rng in
      let rec schedule_next () =
        let delay = Rng.exponential rng ~mean in
        ignore
          (Engine.schedule_in t.ctx.Peer.engine ~after:delay (fun () ->
               let au = Rng.pick rng held in
               let st = Peer.au_state peer au in
               Metrics.on_read t.ctx.Peer.metrics
                 ~failed:(Replica.is_damaged st.Peer.replica);
               schedule_next ()))
      in
      schedule_next ()
    end

let schedule_background_load t (peer : Peer.t) =
  let cfg = t.cfg in
  let fraction = cfg.Config.background_load in
  if fraction > 0. then begin
    (* Book the lower layers' work in hourly slices so the schedule stays
       realistically contended rather than blocked solid. *)
    let period = Duration.hour in
    let work = fraction *. period *. cfg.Config.capacity in
    let rec book () =
      let now = Engine.now t.ctx.Peer.engine in
      ignore (Effort.Task_schedule.reserve_unchecked peer.Peer.schedule ~now ~work);
      ignore (Engine.schedule_in t.ctx.Peer.engine ~after:period book)
    in
    book ()
  end

(* A fault-injected crash, unlike a Partition stoppage, loses the node's
   volatile protocol state: in-flight polls abort (their timers are
   cancelled, so nothing leaks) and voter sessions vanish. The peer's
   poll clocks keep ticking — {!Poller.start_poll} skips its tick while
   the peer is inactive — so a restarted peer resumes polling at its old
   cadence instead of rescheduling. *)
let crash_peer t ~node =
  let peer = t.ctx.Peer.peers.(node) in
  if peer.Peer.active then begin
    let engine = t.ctx.Peer.engine in
    let now = Engine.now engine in
    peer.Peer.active <- false;
    t.crashed_by_fault.(node) <- true;
    Array.iter
      (fun (st : Peer.au_state) ->
        match st.Peer.current_poll with
        | None -> ()
        | Some poll ->
          List.iter
            (fun (c : Peer.candidate) ->
              match c.Peer.status with
              | Peer.Awaiting_ack id | Peer.Awaiting_vote id ->
                Engine.cancel engine id;
                c.Peer.status <- Peer.Failed
              | Peer.Not_invited | Peer.Voted | Peer.Failed -> ())
            poll.Peer.candidates;
          (match poll.Peer.repair_timer with
          | Some id ->
            Engine.cancel engine id;
            poll.Peer.repair_timer <- None
          | None -> ());
          poll.Peer.phase <- Peer.Concluded;
          st.Peer.current_poll <- None)
      peer.Peer.aus;
    Peer.Session_tbl.iter
      (fun _key (session : Peer.voter_session) ->
        (match session.Peer.vs_state with
        | Peer.Awaiting_proof id | Peer.Voted_waiting_receipt id ->
          Narses.Engine.cancel engine id
        | Peer.Computing | Peer.Closed -> ());
        (match session.Peer.vs_reservation with
        | Some r -> Effort.Task_schedule.cancel peer.Peer.schedule ~now r
        | None -> ());
        session.Peer.vs_state <- Peer.Closed;
        Peer.note_session_closed peer (Peer.session_key session))
      peer.Peer.voter_sessions;
    Peer.Session_tbl.reset peer.Peer.voter_sessions;
    List.iter (fun f -> f node) t.crash_hooks
  end

let on_crash t f = t.crash_hooks <- t.crash_hooks @ [ f ]

(* Only peers taken down by {!crash_peer} come back: a dormant peer that
   has never joined must stay dormant until {!activate}. *)
let restart_peer t ~node =
  if t.crashed_by_fault.(node) then begin
    t.crashed_by_fault.(node) <- false;
    t.ctx.Peer.peers.(node).Peer.active <- true
  end

let create ?(seed = 42) ?(extra_nodes = 0) ?(dormant = 0) cfg =
  Config.validate cfg;
  if dormant < 0 then invalid_arg "Population.create: dormant must be non-negative";
  let rng = Rng.create seed in
  let engine = Engine.create () in
  let loyal = cfg.Config.loyal_peers + dormant in
  let nodes = loyal + extra_nodes in
  let topology = Narses.Topology.create ~rng:(Rng.split rng) ~nodes in
  let partition = Narses.Partition.create ~nodes in
  let faults =
    match cfg.Config.faults with
    | None -> None
    | Some fault_cfg -> Some (Narses.Faults.create ~engine ~nodes fault_cfg)
  in
  let net =
    Narses.Net.create ~model:cfg.Config.network_model ?faults ~engine ~topology
      ~partition ()
  in
  (* One bootstrap buffer per population, never shared: concurrent
     populations on other domains must not see each other's candidates. *)
  let scratch = Array.make loyal 0 in
  let holdings = assign_holdings cfg (Rng.split rng) ~scratch ~loyal in
  let metrics = Metrics.create ~replicas:(Holdings.replicas holdings) ~start:0. in
  let peers = Array.init loyal (make_peer cfg rng holdings ~scratch) in
  let ctx =
    {
      Peer.engine;
      net;
      cfg;
      metrics;
      trace = Trace.create ();
      peers;
      identity_nodes = Repro_prelude.Keyed_tbl.Int.create 64;
    }
  in
  (* Dormant peers (indices after the initially-active population) join
     later through {!activate}. *)
  for i = cfg.Config.loyal_peers to loyal - 1 do
    peers.(i).Peer.active <- false
  done;
  let t =
    {
      cfg;
      ctx;
      topology;
      partition;
      faults;
      crashed_by_fault = Array.make nodes false;
      crash_hooks = [];
      rng;
      extra = List.init extra_nodes (fun i -> loyal + i);
      adversary_instances = 0;
    }
  in
  Array.iter
    (fun peer -> Narses.Net.register net peer.Peer.node (dispatch ctx peer))
    peers;
  (match faults with
  | None -> ()
  | Some f ->
    (* Bridge fault events onto the protocol trace bus, and let churn
       crash/restart the initially-active loyal peers. *)
    Narses.Faults.set_observer f (fun ~time event ->
        (* Message faults are Debug chatter; churn (crash/restart) is
           Info — bound the emit accordingly so fault storms stay free
           under a Warn-interest subscriber. *)
        let bound =
          match event with
          | Narses.Faults.Crashed _ | Narses.Faults.Restarted _ -> Trace.Info
          | _ -> Trace.Debug
        in
        Trace.emit ~bound ctx.Peer.trace ~now:time (fun () ->
            match event with
            | Narses.Faults.Dropped { src; dst } -> Trace.Fault_dropped { src; dst }
            | Narses.Faults.Duplicated { src; dst } -> Trace.Fault_duplicated { src; dst }
            | Narses.Faults.Delayed { src; dst; extra } ->
              Trace.Fault_delayed { src; dst; extra }
            | Narses.Faults.Crashed { node } -> Trace.Node_crashed { node }
            | Narses.Faults.Restarted { node } -> Trace.Node_restarted { node }
            | Narses.Faults.Partition_blocked { src; dst } ->
              Trace.Partition_dropped { src; dst }
            | Narses.Faults.Corrupted { src; dst } -> Trace.Fault_corrupted { src; dst }
            | Narses.Faults.Replayed { src; dst; extra } ->
              Trace.Fault_replayed { src; dst; extra }
            | Narses.Faults.Stale { src; dst; extra } ->
              Trace.Fault_stale { src; dst; extra }
            | Narses.Faults.Stray { src; dst } -> Trace.Fault_stray { src; dst }));
    (* Byzantine content faults: the network layer decides *when* (on its
       split content stream); the protocol layer supplies the concrete
       mutator and forger. *)
    Narses.Net.set_tamper net (fun msg ~salt -> Message.mutate msg ~salt);
    Narses.Net.set_stray net (fun ~salt ->
        let byte k = Int64.to_int (Int64.logand (Int64.shift_right_logical salt k) 0xFFL) in
        let loyal = cfg.Config.loyal_peers in
        let dst = byte 0 mod loyal in
        let src = byte 8 mod loyal in
        if src <> dst then begin
          (* Half the strays claim a real-but-uninvited loyal identity,
             half a completely unknown one. *)
          let identity =
            if byte 16 land 1 = 0 then byte 24 mod loyal else nodes + (byte 24 mod 16)
          in
          let au = byte 32 mod cfg.Config.aus in
          let poll_id = 1 + (byte 40 mod 64) in
          let forged_proof () = Effort.Proof.forged ~claimed_cost:1.0 in
          let payload =
            match byte 48 mod 5 with
            | 0 -> Message.Poll_ack { poll_id; accepted = true }
            | 1 -> Message.Poll_proof { poll_id; remaining = forged_proof (); nonce = salt }
            | 2 ->
              Message.Vote_msg
                {
                  poll_id;
                  vote =
                    {
                      Vote.voter = identity;
                      nonce = salt;
                      proof = forged_proof ();
                      snapshot = [];
                      nominations = [];
                      bogus = true;
                    };
                }
            | 3 -> Message.Evaluation_receipt { poll_id; receipt = (salt, salt) }
            | _ -> Message.Poll { poll_id; intro = forged_proof () }
          in
          let msg = { Message.identity; au; payload } in
          Narses.Faults.note_stray f ~src ~dst;
          Narses.Net.send net ~src ~dst ~bytes:(Message.wire_bytes cfg msg) msg
        end);
    Narses.Faults.on_crash f (fun node ->
        if node < cfg.Config.loyal_peers then crash_peer t ~node);
    Narses.Faults.on_restart f (fun node ->
        if node < cfg.Config.loyal_peers then restart_peer t ~node);
    Narses.Faults.start_churn f ~nodes:(List.init cfg.Config.loyal_peers (fun i -> i)));
  (* Start every (peer, AU) poll clock at a random phase so the population
     begins desynchronized, and attach each peer's damage process. *)
  Array.iter
    (fun peer ->
      if peer.Peer.active then begin
        Array.iter
          (fun (st : Peer.au_state) ->
            if st.Peer.held then begin
              let phase =
                Rng.uniform peer.Peer.rng ~lo:0. ~hi:cfg.Config.inter_poll_interval
              in
              ignore
                (Engine.schedule engine ~at:phase (fun () -> Poller.start_poll ctx peer st))
            end)
          peer.Peer.aus;
        schedule_damage_process t peer;
        schedule_reader_process t peer;
        schedule_background_load t peer
      end)
    peers;
  t

let ctx t = t.ctx
let trace t = t.ctx.Peer.trace
let engine t = t.ctx.Peer.engine
let topology t = t.topology
let partition t = t.partition
let faults t = t.faults
let split_rng t = Rng.split t.rng

let next_adversary_instance t =
  let n = t.adversary_instances in
  t.adversary_instances <- n + 1;
  n
let loyal_nodes t =
  Array.to_list t.ctx.Peer.peers
  |> List.filter_map (fun p -> if p.Peer.active then Some p.Peer.node else None)
let extra_nodes t = t.extra

let seed_debt_identities t ids =
  Array.iter
    (fun peer ->
      Array.iter
        (fun st ->
          List.iter (fun id -> Known_peers.set st.Peer.known ~now:0. id Grade.Debt) ids)
        peer.Peer.aus)
    t.ctx.Peer.peers

let damaged_replicas t =
  Array.fold_left
    (fun acc peer ->
      Array.fold_left
        (fun acc st -> if Replica.is_damaged st.Peer.replica then acc + 1 else acc)
        acc peer.Peer.aus)
    0 t.ctx.Peer.peers

let activate t ~node =
  let peer = t.ctx.Peer.peers.(node) in
  if not peer.Peer.active then begin
    peer.Peer.active <- true;
    let engine = t.ctx.Peer.engine in
    let now = Engine.now engine in
    Array.iter
      (fun (st : Peer.au_state) ->
        if st.Peer.held then begin
          let phase =
            Rng.uniform peer.Peer.rng ~lo:0. ~hi:t.cfg.Config.inter_poll_interval
          in
          ignore
            (Engine.schedule engine ~at:(now +. phase) (fun () ->
                 Poller.start_poll t.ctx peer st))
        end)
      peer.Peer.aus;
    schedule_damage_process t peer
  end

let default_handler t node ~src msg = dispatch t.ctx t.ctx.Peer.peers.(node) ~src msg

let dormant_nodes t =
  Array.to_list t.ctx.Peer.peers
  |> List.filter_map (fun p -> if p.Peer.active then None else Some p.Peer.node)

let run ?max_events t ~until = Engine.run_until ?max_events t.ctx.Peer.engine ~limit:until
let summary t = Metrics.finalize t.ctx.Peer.metrics ~now:(Engine.now t.ctx.Peer.engine)
