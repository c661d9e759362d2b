(** Minimal JSON values: enough to emit and re-read the observability
    layer's own output (trace JSONL, metric snapshots) without pulling an
    external dependency into the simulator.

    Emission always produces valid JSON. The parser accepts the common
    subset we emit — objects, arrays, strings with the standard escapes,
    numbers, booleans, null — which is sufficient for round-tripping and
    for validating trace files in the smoke target. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Assoc of (string * t) list

(** [to_string v] is the compact (single-line) JSON rendering of [v].
    Non-finite floats are rendered as [null] to keep the output valid. *)
val to_string : t -> string

(** [write buf v] renders [v] into [buf] — same output as {!to_string}
    without the intermediate string, for per-event hot paths. *)
val write : Buffer.t -> t -> unit

(** [float_literal f] is the numeric literal {!write} emits for
    [Float f]: for every finite [f], negative zero included, a literal
    that [Float.of_string] maps back to [f] bit for bit, though not
    always the one [%.16g] would print (see {!Dtoa.to_literal}).
    Non-finite floats render as ["null"]. *)
val float_literal : float -> string

val pp : Format.formatter -> t -> unit

(** [of_string s] parses one JSON value, requiring only trailing
    whitespace after it. Numbers without [.], [e] or [E] parse as
    [Int]. *)
val of_string : string -> (t, string) result

(** {2 Accessors} — all total; [None]/fallback on shape mismatch. *)

(** [member key v] is the value bound to [key] when [v] is an [Assoc]. *)
val member : string -> t -> t option

(** [to_float v] widens [Int] and [Float] to [float]. *)
val to_float : t -> float option

val to_int : t -> int option
val to_bool : t -> bool option
val string_value : t -> string option
