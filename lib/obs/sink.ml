let default_buffer_bytes = 64 * 1024

type t = {
  buf : Buffer.t;
  limit : int;
  flush_interval : float option;
  mutable last_mark : float option;
      (* Simulated time of the last time-driven flush (or of the first
         write, before any flush has happened). *)
  oc : out_channel;
  owns_channel : bool;
  mutable is_closed : bool;
  mutable flushed_bytes : int;
}

let of_channel ?(buffer_bytes = default_buffer_bytes) ?flush_interval
    ?(close_channel = false) oc =
  if buffer_bytes < 1 then invalid_arg "Sink.of_channel: buffer_bytes < 1";
  (match flush_interval with
  | Some i when not (i > 0.) -> invalid_arg "Sink.of_channel: flush_interval <= 0"
  | _ -> ());
  {
    buf = Buffer.create (min buffer_bytes 4096);
    limit = buffer_bytes;
    flush_interval;
    last_mark = None;
    oc;
    owns_channel = close_channel;
    is_closed = false;
    flushed_bytes = 0;
  }

let open_file ?buffer_bytes ?flush_interval ?(append = false) path =
  let oc =
    if append then
      open_out_gen [ Open_wronly; Open_append; Open_creat; Open_binary ] 0o644 path
    else open_out_bin path
  in
  of_channel ?buffer_bytes ?flush_interval ~close_channel:true oc

let drain t =
  let n = Buffer.length t.buf in
  if n > 0 then begin
    Buffer.output_buffer t.oc t.buf;
    Buffer.clear t.buf;
    t.flushed_bytes <- t.flushed_bytes + n
  end

(* The size bound, then the time bound at simulated time [now] ([nan]:
   no time). *)
let flush_at t now =
  if Buffer.length t.buf >= t.limit then drain t
  else
    match t.flush_interval with
    | Some interval when not (Float.is_nan now) -> (
      match t.last_mark with
      | None -> t.last_mark <- Some now
      | Some mark ->
        if now -. mark >= interval then begin
          drain t;
          t.last_mark <- Some now
        end)
    | _ -> ()

let maybe_flush t now = flush_at t (match now with Some now -> now | None -> Float.nan)

let check_open t = if t.is_closed then invalid_arg "Sink: write after close"

let write t ?now s =
  check_open t;
  Buffer.add_string t.buf s;
  maybe_flush t now

let write_line t ?now s =
  check_open t;
  Buffer.add_string t.buf s;
  Buffer.add_char t.buf '\n';
  maybe_flush t now

let write_buffer t ?now b =
  check_open t;
  Buffer.add_buffer t.buf b;
  maybe_flush t now

let write_bytes t ~now b pos len =
  check_open t;
  Buffer.add_subbytes t.buf b pos len;
  flush_at t now

let pending t = Buffer.length t.buf
let written t = t.flushed_bytes

let flush t =
  check_open t;
  drain t;
  Stdlib.flush t.oc

let close t =
  if not t.is_closed then begin
    drain t;
    t.is_closed <- true;
    if t.owns_channel then close_out t.oc else Stdlib.flush t.oc
  end

let closed t = t.is_closed

let with_file ?buffer_bytes ?flush_interval ?append path f =
  let t = open_file ?buffer_bytes ?flush_interval ?append path in
  Fun.protect ~finally:(fun () -> close t) (fun () -> f t)
