(** Identifier types.

    A {e node} (from {!Narses.Topology}) is a simulated machine. An
    {e identity} is what protocol messages claim about their sender; loyal
    peers use their node index as their identity, while the adversary has
    "unconstrained identities" and may claim any value — admission control
    and reputation are keyed by identity, exactly the surface a Sybil
    attacker exploits. An {e AU} (archival unit) identifies one preserved
    unit of content, e.g. a journal-year. *)

module Identity : sig
  type t = int

  val compare : t -> t -> int
  val equal : t -> t -> bool
  val pp : Format.formatter -> t -> unit
end

module Au_id : sig
  type t = int

  val compare : t -> t -> int
  val equal : t -> t -> bool
  val pp : Format.formatter -> t -> unit
end
