module Rng = Repro_prelude.Rng
module Int_tbl = Repro_prelude.Keyed_tbl.Int

type drop_reason = Refractory | Random_drop | Known_rate_limited

type decision =
  | Admitted of [ `Known of Grade.t | `Unknown | `Introduced ]
  | Dropped of drop_reason

type t = {
  cfg : Config.t;
  intros : Introductions.t;
  mutable refractory_until : float;
  last_known_admission : float Int_tbl.t;
}

let create (cfg : Config.t) =
  {
    cfg;
    intros = Introductions.create ~max_outstanding:cfg.Config.max_outstanding_introductions;
    refractory_until = neg_infinity;
    last_known_admission = Int_tbl.create 16;
  }

let introductions t = t.intros
let in_refractory t ~now = now < t.refractory_until

let known_slot_free t ~now identity =
  match Int_tbl.find_opt t.last_known_admission identity with
  | None -> true
  | Some last -> now -. last >= t.cfg.Config.refractory_period

let last_admission t identity = Int_tbl.find_opt t.last_known_admission identity

(* Self-clocking gates *every* admission path: the refractory check runs
   first, so an introduced poller arriving inside the refractory window is
   dropped *without* consuming its introduction (it can retry once the
   window closes). Introductions bypass only the random drops, per the
   paper. Every admission — introduced, known, or unknown — re-arms the
   refractory window. *)
let consider t ~rng ~now ~known ~identity =
  let cfg = t.cfg in
  if not cfg.Config.admission_control_enabled then Admitted `Unknown
  else if in_refractory t ~now then Dropped Refractory
  else begin
    let admit ?(record = true) decision =
      t.refractory_until <- now +. cfg.Config.refractory_period;
      if record then Int_tbl.replace t.last_known_admission identity now;
      decision
    in
    if
      cfg.Config.introductions_enabled
      && Introductions.consume t.intros ~introducee:identity
    then admit (Admitted `Introduced)
    else begin
      match Known_peers.grade known ~now identity with
      | Some (Grade.Even | Grade.Credit) as graded ->
        let g = match graded with Some g -> g | None -> assert false in
        if known_slot_free t ~now identity then admit (Admitted (`Known g))
        else Dropped Known_rate_limited
      | (None | Some Grade.Debt) as graded ->
        let drop_probability =
          match graded with
          | None -> cfg.Config.drop_unknown
          | Some _ -> cfg.Config.drop_debt
        in
        if Rng.bernoulli rng drop_probability then Dropped Random_drop
        else
          admit ~record:false
            (match graded with
            | None -> Admitted `Unknown
            | Some g -> Admitted (`Known g))
      end
  end
