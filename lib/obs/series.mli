(** Append-only time-series output with a fixed column set, written as
    CSV: one header row, then one row per sample.

    Rows are buffered in the underlying {!Sink} rather than flushed one
    by one; pass the sample's simulated time as [?now] to {!append} to
    enable the sink's time-bounded flushing, and {!close} (or close the
    sink) to make the tail durable. *)

type t

(** [create ~columns ?header sink] prepares a writer over [sink]. The
    header row is written immediately unless [header] is [false] (pass
    [false] when appending to a file that already has one). The series
    does not take ownership of [sink]. *)
val create : columns:string list -> ?header:bool -> Sink.t -> t

(** [append t ?now values] writes one sample; [values] must match
    [columns] in length and order. Scalars only ([Int], [Float],
    [String], [Bool], [Null]). *)
val append : t -> ?now:float -> Json.t list -> unit

(** Flush (durably) the underlying sink. *)
val flush : t -> unit

(** Close the underlying sink. *)
val close : t -> unit

val columns : t -> string list
