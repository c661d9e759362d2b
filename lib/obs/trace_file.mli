(** Uniform access to trace files in either encoding.

    Detection sniffs the {!Btrace.magic} prefix; anything else is
    treated as JSONL (including empty files). Consumers iterate records
    without caring which encoding backs them, with per-record parse
    results so callers choose their own strictness:

    - JSONL: malformed lines are delivered as [Error] and iteration
      continues (matching the analyzer's line-tolerant behaviour);
      blank lines are skipped but still counted in line numbering.
    - Binary: a framing/intern error is delivered as one [Error] and
      iteration stops — past the first corrupt byte there is no record
      boundary to resynchronise on. *)

type format = Jsonl | Binary

val format_to_string : format -> string

(** [format_of_path p] guesses from the extension alone: [.ntrace] is
    [Binary], everything else [Jsonl]. Used to pick an {e output}
    encoding; for inputs prefer {!detect}. *)
val format_of_path : string -> format

(** [detect path] sniffs the file's leading bytes. *)
val detect : string -> format

(** [iter path ~f] reads every record of [path], calling
    [f ~line result] with a 1-based line number (JSONL) or record
    ordinal (binary). Returns the detected format. Raises [Sys_error]
    if the file cannot be opened. *)
val iter : string -> f:(line:int -> (Json.t, string) result -> unit) -> format
