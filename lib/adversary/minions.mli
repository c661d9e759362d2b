(** The pieces every adversary is built from.

    Each adversary of {!Adversary} is a choice of victims, a shot fired
    at them at a fixed rate, and, for the ones that compromise loyal
    peers, a voter role played by those peers. This module holds the
    shared parts so each adversary writes only its own decisions:

    - {!sample_fraction}: the victim or minion set, a fraction of the
      loyal peers;
    - {!lanes}: one jittered attack lane per (target, AU);
    - {!send}: one message from a minion node onto the wire;
    - {!voter}: the voter role of a compromised loyal peer, honest or
      corrupt.

    Every RNG draw is taken from the adversary's own stream, in the order
    documented on each function, so seeded runs are reproducible. *)

type node = Narses.Topology.node

(** [sample_fraction rng fraction xs] draws [max 1 (round (fraction ×
    |xs|))] members of [xs] with {!Repro_prelude.Rng.sample}. *)
val sample_fraction : Repro_prelude.Rng.t -> float -> int list -> int list

(** [send ctx ~src ~dst ~identity ~au payload] transmits one message
    from node [src], claiming [identity], sized by
    {!Lockss.Message.wire_bytes}. *)
val send :
  Lockss.Peer.ctx ->
  src:node ->
  dst:node ->
  identity:Lockss.Ids.Identity.t ->
  au:Lockss.Ids.Au_id.t ->
  Lockss.Message.payload ->
  unit

(** [lanes ?until population rng ~period targets shot] starts one lane
    per (target, AU), in [targets] order then AU order: each draws its
    start uniformly in [\[0, period)] now. When a lane fires before
    [until] (default: never stops), it calls [shot target au], then
    draws its next delay uniformly in [\[0.5 period, 1.5 period)], so
    lanes stay desynchronized. A lane that fires at or after [until]
    ends. *)
val lanes :
  ?until:float ->
  Lockss.Population.t ->
  Repro_prelude.Rng.t ->
  period:float ->
  'a list ->
  ('a -> Lockss.Ids.Au_id.t -> unit) ->
  unit

(** {2 The compromised voter role}

    A minion that is a compromised loyal peer accepts every Poll it
    receives and records a session; on the PollProof it waits
    [vote_delay], pays the honest voting effort and sends a vote with a
    real effort proof whose nominations name fellow minions; it serves
    every repair asked of that session and closes the session on the
    evaluation receipt. All its work is charged as adversary effort.
    Replies go to the node the request came from, as an honest voter's
    do. While the peer is down, or when a request names an AU the peer
    does not hold, the request goes to the peer's own protocol dispatch
    instead, which ignores or rejects it. A crash
    ({!Lockss.Population.crash_peer}) drops the peer's sessions, as it
    drops an honest voter's: a vote scheduled before the crash never
    goes out, even if the peer has restarted by then.

    A corrupt role decides at vote time whether to attack the poll. It
    never attacks a fellow minion's poll; otherwise it asks its
    [corrupt] decision, told how many minions the poll has invited so
    far. An attacked poll gets a vote claiming {!corrupt_version} of
    {!target_block}, and a repair of that block serves the same version.
    A role without [corrupt] always votes and repairs honestly. *)

type voter

(** The content version corrupt minions claim for {!target_block}. *)
val corrupt_version : int

val target_block : int

(** [voter ?corrupt population rng minions ~vote_delay ~poller] takes
    over the network handler of each node of [minions]. The voter-side
    messages (Poll, PollProof, RepairRequest, EvaluationReceipt) go to
    the role and garbage is ignored; the poller-side replies
    (PollAck, Vote, Repair) go to [poller], the peer's own poller role.
    The role's draws (vote proofs, then nominations) come from [rng]. *)
val voter :
  ?corrupt:(invited:int -> bool) ->
  Lockss.Population.t ->
  Repro_prelude.Rng.t ->
  node array ->
  vote_delay:float ->
  poller:(node -> src:node -> Lockss.Message.t -> unit) ->
  voter

(** [is_minion voter node] is whether [node] is one of the role's
    minions. *)
val is_minion : voter -> node -> bool

(** [votes voter] counts votes sent, corrupt or not. *)
val votes : voter -> int

val corrupt_votes : voter -> int

(** [corrupt_repairs voter] counts corrupt repair payloads served. *)
val corrupt_repairs : voter -> int
