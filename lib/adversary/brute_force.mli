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

    The adversary remembers each invitation it sends in one 2-byte cell
    (the victim and AU, packed; 4 bytes when the population's peers ×
    AUs do not fit below the 2-byte closed marker) until an ack or vote
    answers it; the invitation's identity follows from its poll id.
    Most invitations are dropped at admission and never answered, so
    the record grows by a cell per invitation sent for the whole run.
    Nothing purges it: under replay and stale-delivery faults an ack or
    vote can arrive arbitrarily late, and the adversary must answer it
    as it would have on time, drawing from its RNG as it would have, or
    the victims' seeded runs would change. *)

type strategy = Intro | Remaining | Full

(** [pp_strategy] prints the paper's row labels: INTRO, REMAINING,
    NONE. *)
val pp_strategy : Format.formatter -> strategy -> unit

(** The invitation record: poll ids issued from 1, each mapped to the
    victim and AU it was sent to until a reply closes it. Cells live in
    fixed pages of {!page_cells} cells, so growth never copies them. *)
module Invitations : sig
  type t

  (** Cells per page: 2^16. *)
  val page_cells : int

  (** [create ~victims ~aus] is an empty record for victims
      [0, victims) and AUs [0, aus). Raises [Invalid_argument] when
      [victims] or [aus] is below 1 or [victims * aus] exceeds
      [2^32 - 1]. *)
  val create : victims:int -> aus:int -> t

  (** [cell_bytes t] is 2 when [victims * aus <= 0xFFFF], else 4. *)
  val cell_bytes : t -> int

  (** [open_invitation t ~victim ~au] records an invitation and returns
      its poll id, one above the last issued. Raises [Invalid_argument]
      for a victim or AU out of range. *)
  val open_invitation : t -> victim:int -> au:int -> int

  (** [find_victim t ~au ~poll_id] is the victim of the open invitation
      [poll_id] on [au]; [None] for an id below 1 or not yet issued,
      another AU, or a closed invitation. *)
  val find_victim : t -> au:int -> poll_id:int -> int option

  (** [close t ~poll_id] closes an issued invitation; other ids are
      ignored. *)
  val close : t -> poll_id:int -> unit
end

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
