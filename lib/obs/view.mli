(** Flat, analyzer-facing projection of one trace event.

    A view is the part of an event the span builder and the effort
    ledger consult, as a flat record of options. Three paths build one:
    the live bus projects typed events ([Lockss.Trace.to_view]);
    {!of_json} projects a decoded JSON value (JSONL traces, [inspect]);
    and [Btrace.iter_views] decodes binary records straight into views
    without building a JSON tree. The last two share one definition of
    the projection — the key table below and {!make} — so an offline
    read gives the same views in either encoding.

    Only the fields the analyzers consult are represented; events carry
    more (attempt counters, content versions, fault descriptors) that
    the span builder and ledger ignore. *)

type t = {
  kind : string;
  time : float;
  poller : int option;
  voter : int option;
  claimed : int option;  (** claimed poller id on [invitation_dropped] *)
  peer : int option;
  from_ : int option;  (** sender on [effort_received] *)
  au : int option;
  poll_id : int option;
  inner_candidates : int option;
  votes : int option;
  seconds : float option;
  role : string option;
  phase : string option;
  outcome : string option;
}

(** {2 The projection}

    Each projected key owns a slot: [kind] 0, [t] 1, [poller] 2,
    [voter] 3, [claimed] 4, [peer] 5, [from] 6, [au] 7, [poll_id] 8,
    [inner_candidates] 9, [votes] 10, [seconds] 11, [role] 12,
    [phase] 13, [outcome] 14. A slot takes the {e first} binding of its
    key in an object, whatever its type; a binding of another shape
    leaves the field absent, and later bindings are ignored. *)

(** What a slot's value must be: a string, a number (an int widens to
    float), or an int. *)
type shape = Text | Number | Integer

(** The key table: slot [i]'s key and shape at index [i]. *)
val keys : (string * shape) array

(** [slot_of_key key] is [key]'s slot, or [-1] for a key the view does
    not project. *)
val slot_of_key : string -> int

(** [make ~valid ...] builds the view of an object whose slot [i] held
    a value of its shape when bit [i] of [valid] is set; fields of
    other slots are ignored. [None] without a [kind]; [time] defaults
    to [0.]. *)
val make :
  valid:int ->
  kind:string ->
  time:float ->
  poller:int ->
  voter:int ->
  claimed:int ->
  peer:int ->
  from_:int ->
  au:int ->
  poll_id:int ->
  inner_candidates:int ->
  votes:int ->
  seconds:float ->
  role:string ->
  phase:string ->
  outcome:string ->
  t option

(** [of_json json] projects a serialised trace event; [None] when
    [json] is not an object or has no ["kind"] string as its first
    ["kind"] binding. Missing ["t"] defaults to [0.]. *)
val of_json : Json.t -> t option
