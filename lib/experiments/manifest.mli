(** Run manifests: the provenance record attached to scenario runs.

    A manifest is one JSON object answering "what exactly produced this
    output": the CLI command and targets, the seed list the sweep
    consumed, worker-domain counts, the injected fault mix, the source
    revision ([git describe --always --dirty], ["unknown"] outside a git
    checkout), host and toolchain identification, and the run's
    wall-clock and CPU cost. [run]/[reproduce]/[pin-baseline]/
    [diff-baseline] write it with [--manifest-out]; [pin-baseline] also
    embeds it as the pinned document's provenance. *)

(** An open manifest, stamped with its start times at creation. *)
type t

(** [start ~command ()] opens a manifest for the named (sub)command. *)
val start : command:string -> unit -> t

(** [finish t ~seeds ?targets ?fault_mix ()] closes the manifest —
    stamping wall seconds and process-CPU seconds since {!start} — and
    renders it. [seeds] is the full seed list the command consumed;
    [fault_mix] the injected fault configuration, when any. *)
val finish :
  t ->
  seeds:int list ->
  ?targets:string list ->
  ?fault_mix:Obs.Json.t ->
  unit ->
  Obs.Json.t

(** A compact subset for embedding as baseline provenance: revision,
    host, toolchain and pin time, without the cost fields. *)
val provenance : unit -> (string * Obs.Json.t) list

(** [write ~path json] writes the manifest as one JSON line. *)
val write : path:string -> Obs.Json.t -> unit
