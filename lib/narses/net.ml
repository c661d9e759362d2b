type model = Delay_only | Shared_bottleneck

(* Capacity of the replay ring: recently delivered messages the fault
   layer can re-inject. Bounded so memory stays O(1) per network. *)
let replay_ring_capacity = 64

type 'msg t = {
  model : model;
  engine : Engine.t;
  topology : Topology.t;
  partition : Partition.t;
  faults : Faults.t option;
  handlers : (src:Topology.node -> 'msg -> unit) option array;
  active : int array;  (* concurrent transfers touching each node's link *)
  mutable sent : int;
  mutable delivered : int;
  mutable dropped : int;
  mutable injected : int;
  mutable bytes_delivered : int;
  mutable tamper : ('msg -> salt:int64 -> 'msg) option;
  mutable stray : (salt:int64 -> unit) option;
  (* (src, dst, bytes, msg) of recent deliveries, overwritten round-robin *)
  ring : (Topology.node * Topology.node * int * 'msg) option array;
  mutable ring_next : int;
  mutable ring_filled : int;
}

let create ?(model = Delay_only) ?faults ~engine ~topology ~partition () =
  {
    model;
    engine;
    topology;
    partition;
    faults;
    handlers = Array.make (Topology.node_count topology) None;
    active = Array.make (Topology.node_count topology) 0;
    sent = 0;
    delivered = 0;
    dropped = 0;
    injected = 0;
    bytes_delivered = 0;
    tamper = None;
    stray = None;
    ring = Array.make replay_ring_capacity None;
    ring_next = 0;
    ring_filled = 0;
  }

let register t node handler = t.handlers.(node) <- Some handler
let set_tamper t f = t.tamper <- Some f
let set_stray t f = t.stray <- Some f

let transfer_delay t ~src ~dst ~bytes =
  match t.model with
  | Delay_only -> Topology.transfer_time t.topology ~src ~dst ~bytes
  | Shared_bottleneck ->
    (* First-order congestion: the busier endpoint's link is shared
       equally among its concurrent transfers, this one included. *)
    let sharers = 1 + max t.active.(src) t.active.(dst) in
    let bottleneck =
      min (Topology.bandwidth_bps t.topology src) (Topology.bandwidth_bps t.topology dst)
      /. float_of_int sharers
    in
    Topology.path_latency t.topology ~src ~dst
    +. (8. *. float_of_int bytes /. bottleneck)

let endpoint_down t ~src ~dst =
  match t.faults with
  | None -> false
  | Some f -> Faults.is_down f src || Faults.is_down f dst

let note_partition_drop t ~src ~dst =
  t.dropped <- t.dropped + 1;
  match t.faults with
  | None -> ()
  | Some f -> Faults.note_partition_block f ~src ~dst

let ring_push t ~src ~dst ~bytes msg =
  t.ring.(t.ring_next) <- Some (src, dst, bytes, msg);
  t.ring_next <- (t.ring_next + 1) mod replay_ring_capacity;
  if t.ring_filled < replay_ring_capacity then t.ring_filled <- t.ring_filled + 1

(* Deliver one copy of [msg] from [src] to [dst] after the model delay
   plus [extra]. Under corruption faults, each copy independently rolls
   for a single-field mutation applied through the registered tamper
   hook. Under a fault layer, delivered copies are remembered in the
   replay ring. *)
let schedule_copy t ~src ~dst ~bytes ~extra msg =
  let delay = transfer_delay t ~src ~dst ~bytes in
  let msg =
    match t.faults, t.tamper with
    | Some faults, Some tamper ->
      (match Faults.corrupt_salt faults with
      | None -> msg
      | Some salt ->
        Faults.note_corrupted faults ~src ~dst;
        tamper msg ~salt)
    | _ -> msg
  in
  t.active.(src) <- t.active.(src) + 1;
  t.active.(dst) <- t.active.(dst) + 1;
  let deliver () =
    t.active.(src) <- t.active.(src) - 1;
    t.active.(dst) <- t.active.(dst) - 1;
    if Partition.blocked t.partition ~src ~dst then note_partition_drop t ~src ~dst
    else if endpoint_down t ~src ~dst then begin
      (* Crashed mid-flight: the copy reaches a dead process. *)
      Faults.note_down_drop (Option.get t.faults) ~src ~dst;
      t.dropped <- t.dropped + 1
    end
    else begin
      match t.handlers.(dst) with
      | None -> t.dropped <- t.dropped + 1
      | Some handler ->
        t.delivered <- t.delivered + 1;
        t.bytes_delivered <- t.bytes_delivered + bytes;
        (* Only the fault layer re-injects from the ring; without one,
           filling it would allocate a tuple per delivery for nothing. *)
        if Option.is_some t.faults then ring_push t ~src ~dst ~bytes msg;
        handler ~src msg
    end
  in
  ignore (Engine.schedule_in t.engine ~after:(delay +. extra) deliver)

(* Re-inject a past delivery chosen from the ring, counted in
   [injected] (it is not a logical send, so conservation becomes
   sent + dups + injected = delivered + dropped + in-flight). *)
let inject_from_ring t faults ~extra ~note =
  if t.ring_filled > 0 then begin
    let slot = Faults.pick faults t.ring_filled in
    match t.ring.(slot) with
    | None -> ()
    | Some (src, dst, bytes, msg) ->
      t.injected <- t.injected + 1;
      note ~src ~dst;
      schedule_copy t ~src ~dst ~bytes ~extra msg
  end

let send t ~src ~dst ~bytes msg =
  t.sent <- t.sent + 1;
  if Partition.blocked t.partition ~src ~dst then note_partition_drop t ~src ~dst
  else if endpoint_down t ~src ~dst then begin
    (* A crashed endpoint can neither transmit nor receive. *)
    Faults.note_down_drop (Option.get t.faults) ~src ~dst;
    t.dropped <- t.dropped + 1
  end
  else begin
    (match t.faults with
    | None -> schedule_copy t ~src ~dst ~bytes ~extra:0. msg
    | Some faults ->
      (match Faults.plan faults ~src ~dst with
      | [] -> t.dropped <- t.dropped + 1  (* lost to injected message loss *)
      | extras -> List.iter (fun extra -> schedule_copy t ~src ~dst ~bytes ~extra msg) extras));
    (* Content-fault triggers ride on live sends so injection pressure
       scales with traffic; partition-blocked and dead-endpoint sends
       skip them. *)
    match t.faults with
    | None -> ()
    | Some faults ->
      (match Faults.replay_extra faults with
      | None -> ()
      | Some extra ->
        inject_from_ring t faults ~extra ~note:(fun ~src ~dst ->
            Faults.note_replayed faults ~src ~dst ~extra));
      (match Faults.stale_extra faults with
      | None -> ()
      | Some extra ->
        inject_from_ring t faults ~extra ~note:(fun ~src ~dst ->
            Faults.note_stale faults ~src ~dst ~extra));
      (match Faults.stray_salt faults with
      | None -> ()
      | Some salt ->
        (match t.stray with None -> () | Some forge -> forge ~salt))
  end

let sent_count t = t.sent
let delivered_count t = t.delivered
let dropped_count t = t.dropped
let injected_count t = t.injected
let bytes_delivered t = t.bytes_delivered
let active_transfers t node = t.active.(node)
