(** Fast decimal rendering of doubles for the trace hot path.

    [to_literal f] is a decimal literal of at most 17 significant
    digits that parses back to exactly [f] — every candidate is
    verified with [Float.of_string] before being returned — or [None]
    when the fast path does not apply (non-finite, zero, |f| outside
    (1e-30, 1e30), or a rounding boundary the double-double scaling
    cannot certify). Callers fall back to the printf-based rendering on
    [None].

    A 16-digit candidate is tried first, so friendly values keep a
    short spelling ("0.1", not "0.10000000000000001"). It is rounded
    from the 17-digit mantissa, and digits are laid out in plain
    notation while the leading digit's exponent is in [\[-4, 17)]. So
    a literal need not be the one [%.16g] prints: [-9.362672745462835]
    where printf gives [-9.362672745462834], [20000000000000000] where
    it gives [2e+16]. Both spellings round-trip; the trace goldens pin
    these. *)
val to_literal : float -> string option
