(** The brute-force effortful adversary of Section 7.4 (Table 1).

    This adversary attacks the effort-verification filters: it
    "continuously sends enough poll invitations with valid introductory
    efforts to get past the random drops", launching "from in-debt
    addresses" (every adversary identity is conservatively pre-seeded
    with a debt grade at all loyal peers), and it owns "an oracle that
    allows him to inspect all the loyal peers' schedules", sparing it
    introductory efforts that would be refused for scheduling conflicts.

    Once admitted it follows one of the paper's defection strategies:

    - {!Intro}: never follow up the accepted Poll with a PollProof — a
      reservation attack wasting the victim's schedule slot;
    - {!Remaining}: send the PollProof (full effort) but never the
      evaluation receipt — the victim computes and ships a whole vote for
      nothing;
    - {!Full}: participate to the end, receipts included — "behave as a
      large number of new loyal peers", which Table 1 shows is the
      cost-effective optimum.

    All proof generation and (for {!Full}) vote evaluation is charged as
    adversary effort, which the cost-ratio metric compares with the
    defenders' total.

    The adversary remembers each invitation it sends in one word (the
    victim and AU, packed) until an ack or vote answers it; the
    invitation's identity follows from its poll id. Most invitations
    are dropped at admission and never answered, so the record grows by
    about a word per invitation sent for the whole run. Nothing purges
    it: under replay and stale-delivery faults an ack or vote can arrive
    arbitrarily late, and the adversary must answer it as it would have
    on time, drawing from its RNG as it would have, or the victims'
    seeded runs would change. *)

type strategy = Intro | Remaining | Full

(** [pp_strategy] prints the paper's row labels: INTRO, REMAINING,
    NONE. *)
val pp_strategy : Format.formatter -> strategy -> unit

type t

(** [attach population ~minions ~strategy ~identities
    ~attempts_per_victim_au_per_day] seeds [identities] in-debt
    identities, registers reply routing to [minions], and starts one
    attack lane per (victim, AU) pair running for the whole
    experiment. *)
val attach :
  Lockss.Population.t ->
  minions:Narses.Topology.node list ->
  strategy:strategy ->
  identities:int ->
  attempts_per_victim_au_per_day:float ->
  t

(** Counters for tests and reports. *)
val invitations_sent : t -> int

val admissions : t -> int
val votes_received : t -> int
