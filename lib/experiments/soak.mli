(** Multi-seed chaos soak: drive the full Byzantine fault set through
    many independent runs and fail on any robustness violation.

    Each seed runs one scenario under the given {!Chaos.mix} (which
    should enable {e every} fault shape: loss, jitter, duplication,
    churn, corruption, replay, stale delivery and stray injection) with
    the runtime invariant auditor attached, then audits the quiescent
    end state for leaks ({!Check.Leak}). A seed is clean when

    - the run completed without any handler raising;
    - the auditor observed zero protocol-invariant violations;
    - the leak audit found zero leaked timers, dangling event
      references or lingering closed sessions;
    - the run made progress (at least one poll succeeded).

    Every mutated, replayed, stale or stray message must therefore be
    either rejected with a taxonomized [message_rejected] event or
    absorbed without corrupting protocol state — the acceptance
    criterion for the protocol-hardening layer. Seeds fan out over the
    {!Runner} worker pool; results are deterministic per seed. *)

type seed_report = {
  seed : int;
  polls_succeeded : int;
  rejected : int;  (** [message_rejected] events observed *)
  rejected_by_reason : (string * int) list;  (** taxonomy breakdown, sorted *)
  injected : int;  (** corruption + replay + stale + stray injections *)
  violations : Check.Invariant.violation list;  (** auditor then leak audit *)
  handler_exn : string option;  (** exception escaping the run, if any *)
}

type report = {
  mix : Chaos.mix;
  years : float;
  seeds : seed_report list;  (** in seed order *)
}

val all_clean : report -> bool

(** [run ?scale ?attack ~seeds mix] soaks one configuration across
    [seeds] (each an independent deterministic run). Defaults:
    {!Scenario.bench} scale, no attack. *)
val run :
  ?scale:Scenario.scale -> ?attack:Scenario.attack -> seeds:int list -> Chaos.mix -> report

val pp_report : Format.formatter -> report -> unit

(** Machine-readable report; the violation entries reuse
    {!Check.Invariant.violation_to_json}. *)
val report_json : report -> Obs.Json.t
