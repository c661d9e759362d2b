type strategy = Aggressive | Patient

let pp_strategy ppf s =
  Format.pp_print_string ppf
    (match s with Aggressive -> "aggressive" | Patient -> "patient")

type t = {
  population : Lockss.Population.t;
  minions : Narses.Topology.node array;
  voter : Minions.voter;
}

let attach population ~fraction ~strategy =
  if fraction <= 0. || fraction >= 1. then
    invalid_arg "Subversion.attach: fraction must be in (0,1)";
  let loyal = Lockss.Population.loyal_nodes population in
  let rng = Lockss.Population.split_rng population in
  let minions = Array.of_list (Minions.sample_fraction rng fraction loyal) in
  let cfg = (Lockss.Population.ctx population).Lockss.Peer.cfg in
  let corrupt =
    match strategy with
    | Aggressive ->
      (* Vote corrupt in every honest poll and hope to be a landslide
         majority of whoever else turns up. *)
      fun ~invited:_ -> true
    | Patient ->
      (* Only move with evidence that the minions can crowd out the whole
         quorum: enough co-invitations to form a landslide by themselves.
         Because solicitation is desynchronized, invitations trickle in
         over weeks and an early-invited minion must commit its vote long
         before the later ones are known — this evidence rarely
         accumulates, which is precisely the defense. *)
      fun ~invited -> invited >= cfg.Lockss.Config.quorum - cfg.Lockss.Config.max_disagree
  in
  let voter =
    (* Wait out most of the allowance before committing the vote, so as
       many co-minion invitations as possible are known. *)
    Minions.voter ~corrupt population rng minions
      ~vote_delay:(0.8 *. cfg.Lockss.Config.vote_allowance)
      ~poller:(Lockss.Population.default_handler population)
  in
  { population; minions; voter }

let corrupted_replicas t =
  Array.fold_left
    (fun acc (peer : Lockss.Peer.t) ->
      if Minions.is_minion t.voter peer.Lockss.Peer.identity then acc
      else
        Array.fold_left
          (fun acc (st : Lockss.Peer.au_state) ->
            if
              Lockss.Replica.version st.Lockss.Peer.replica Minions.target_block
              = Minions.corrupt_version
            then acc + 1
            else acc)
          acc peer.Lockss.Peer.aus)
    0 (Lockss.Population.ctx t.population).Lockss.Peer.peers

let minion_count t = Array.length t.minions
let corrupt_votes t = Minions.corrupt_votes t.voter
let corrupt_repairs t = Minions.corrupt_repairs t.voter
let minion_nodes t = Array.to_list t.minions
