(* Blocking client for the wire protocol.

   One request/response round trip per {!call}, or a pipelined batch
   per {!call_batch}: every request frame is written in a single
   buffered write, then the matching responses are read back in order —
   the client-side half of the batching the server amortises on.

   Connection loss (refused connect, reset, server restart) is retried
   with the doubling schedule from [Concurrent.Backoff], reused as a
   sleep duration in milliseconds. A batch interrupted mid-flight is
   retried whole on the fresh connection, so mutating requests are
   at-least-once under reconnect — callers needing exactly-once must
   not enable retries across mutations (set [retries] to 0). *)

exception Remote_error of Wire.error_code * string
(** The server answered with an error frame. *)

exception Protocol_error of string
(** The byte stream from the server is not a valid response. *)

let () =
  Printexc.register_printer (function
    | Remote_error (code, msg) ->
        Some (Printf.sprintf "Net.Client.Remote_error(%s, %s)" (Wire.error_code_name code) msg)
    | Protocol_error msg -> Some (Printf.sprintf "Net.Client.Protocol_error(%s)" msg)
    | _ -> None)

(* Human-readable cause of a failed connect or call, for CLI errors,
   logs and a peer's last error: "connect: No such file or directory"
   beats the raw exception constructor. *)
let describe_exn = function
  | Remote_error (code, msg) ->
      Printf.sprintf "error frame %s: %s" (Wire.error_code_name code) msg
  | Protocol_error msg -> "protocol error: " ^ msg
  | Unix.Unix_error (e, fn, _) ->
      if fn = "" then Unix.error_message e
      else Printf.sprintf "%s: %s" fn (Unix.error_message e)
  | End_of_file -> "connection closed by peer"
  | Failure msg -> msg
  | e -> Printexc.to_string e

type t = {
  addr : Sockaddr.t;
  retries : int;
  timeout_ms : int option;
  mutable epoch : int option;
      (** when set, every outgoing request is wrapped in
          [Wire.Stamped] with this epoch — how a router's connections
          participate in epoch fencing. [None] = legacy unstamped. *)
  mutable fd : Unix.file_descr option;
  mutable buf : Bytes.t;
  mutable start : int;
  mutable fill : int;
  out : Buffer.t;
}

let recv_chunk = 65536

(* Kernel-level send/receive deadlines: a stalled server surfaces as
   EAGAIN from [Unix.read]/[write] instead of blocking forever. EAGAIN
   is in {!transient}, so a timed-out call goes through the same
   reconnect-and-retry schedule as a dropped connection before giving
   up. *)
let apply_timeout fd = function
  | None -> ()
  | Some ms ->
      let s = float_of_int ms /. 1e3 in
      (try
         Unix.setsockopt_float fd Unix.SO_RCVTIMEO s;
         Unix.setsockopt_float fd Unix.SO_SNDTIMEO s
       with _ -> ())

let transient = function
  | Unix.Unix_error
      ( ( Unix.ECONNREFUSED | Unix.ECONNRESET | Unix.EPIPE | Unix.ENOENT
        | Unix.EAGAIN | Unix.ETIMEDOUT ),
        _,
        _ )
  | End_of_file ->
      true
  | _ -> false

let connect_with_backoff addr ~retries ~timeout_ms =
  let b = Concurrent.Backoff.create ~min:1 ~max:512 ~jitter:true () in
  let rec attempt k =
    match Sockaddr.connect addr with
    | fd ->
        apply_timeout fd timeout_ms;
        fd
    | exception e when transient e && k < retries ->
        Unix.sleepf (float_of_int (Concurrent.Backoff.current b) *. 1e-3);
        Concurrent.Backoff.once b;
        attempt (k + 1)
  in
  attempt 0

let connect ?(retries = 5) ?timeout_ms ?epoch addr =
  {
    addr;
    retries;
    timeout_ms;
    epoch;
    fd = Some (connect_with_backoff addr ~retries ~timeout_ms);
    buf = Bytes.create recv_chunk;
    start = 0;
    fill = 0;
    out = Buffer.create recv_chunk;
  }

let set_epoch t epoch = t.epoch <- Some epoch
let epoch t = t.epoch

let disconnect t =
  (match t.fd with Some fd -> ( try Unix.close fd with _ -> ()) | None -> ());
  t.fd <- None;
  t.start <- 0;
  t.fill <- 0

let close = disconnect

let ensure_connected t =
  match t.fd with
  | Some fd -> fd
  | None ->
      let fd = connect_with_backoff t.addr ~retries:t.retries ~timeout_ms:t.timeout_ms in
      t.fd <- Some fd;
      fd

(* ---- response stream ---- *)

let read_more t fd =
  if Bytes.length t.buf - t.fill < recv_chunk then begin
    if t.start > 0 then begin
      Bytes.blit t.buf t.start t.buf 0 (t.fill - t.start);
      t.fill <- t.fill - t.start;
      t.start <- 0
    end;
    if Bytes.length t.buf - t.fill < recv_chunk then begin
      let bigger = Bytes.create (max (2 * Bytes.length t.buf) (t.fill + recv_chunk)) in
      Bytes.blit t.buf 0 bigger 0 t.fill;
      t.buf <- bigger
    end
  end;
  match Unix.read fd t.buf t.fill recv_chunk with
  | 0 -> raise End_of_file
  | n -> t.fill <- t.fill + n
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()

let rec read_response t fd =
  match Wire.scan t.buf ~off:t.start ~len:(t.fill - t.start) with
  | `Oversize n ->
      (* The stream cannot be resynchronised past a bogus length: drop
         the connection so the next call starts on a fresh one. *)
      disconnect t;
      raise (Protocol_error (Printf.sprintf "server declared a %d-byte frame" n))
  | `Partial ->
      read_more t fd;
      read_response t fd
  | `Frame (off, len, consumed) -> (
      match Wire.decode_response t.buf ~off ~len with
      | Ok resp ->
          t.start <- t.start + consumed;
          resp
      | Error (code, msg) ->
          raise
            (Protocol_error
               (Printf.sprintf "undecodable response (%s: %s)"
                  (Wire.error_code_name code) msg)))

let read_responses t fd n = List.init n (fun _ -> read_response t fd)

(* ---- calls ---- *)

(* Stamp a request with the client's epoch (if any). Already-wrapped
   frames pass through untouched — the wire format rejects nesting. *)
let stamp t (req : Wire.request) : Wire.request =
  match (t.epoch, req) with
  | None, req | _, ((Wire.Stamped _ | Wire.Replicate _ | Wire.Traced _) as req)
    ->
      req
  | Some epoch, req -> Wire.Stamped { epoch; req }

(* Propagate the calling domain's live trace context onto the wire:
   whoever is inside a sampled [Obs.Span.with_] when this client sends
   gets the remote server's work recorded as a child span of theirs.
   Outside any context (or unsampled) the frame is unchanged, so
   tracing costs nothing when off. *)
let trace_wrap (req : Wire.request) : Wire.request =
  match req with
  | Wire.Traced _ -> req
  | req -> (
      match Obs.Span.get_context () with
      | Some { Obs.Span.trace; parent; sampled = true }
        when not (Obs.Traceid.is_null trace) ->
          Wire.Traced
            {
              trace_hi = trace.Obs.Traceid.hi;
              trace_lo = trace.Obs.Traceid.lo;
              parent_span = parent;
              sampled = true;
              req;
            }
      | _ -> req)

let call_batch t (reqs : Wire.request list) : Wire.response list =
  if reqs = [] then []
  else begin
    Buffer.clear t.out;
    List.iter (fun req -> Wire.add_request t.out (trace_wrap (stamp t req))) reqs;
    let payload = Buffer.contents t.out in
    let b = Concurrent.Backoff.create ~min:1 ~max:512 ~jitter:true () in
    let rec attempt k =
      let fd = ensure_connected t in
      match
        Sockaddr.write_string fd payload;
        read_responses t fd (List.length reqs)
      with
      | resps -> resps
      | exception e when transient e && k < t.retries ->
          disconnect t;
          Unix.sleepf (float_of_int (Concurrent.Backoff.current b) *. 1e-3);
          Concurrent.Backoff.once b;
          attempt (k + 1)
    in
    attempt 0
  end

let call t req =
  match call_batch t [ req ] with
  | [ resp ] -> resp
  | _ -> raise (Protocol_error "response count mismatch")

(* ---- typed helpers ---- *)

let unexpected what resp =
  match resp with
  | Wire.Error { code; message } -> raise (Remote_error (code, message))
  | resp ->
      raise
        (Protocol_error
           (Format.asprintf "unexpected response to %s: %a" what Wire.pp_response resp))

let ping t = match call t Wire.Ping with Wire.Pong -> () | r -> unexpected "ping" r

let insert t ~key ~value =
  match call t (Wire.Insert { key; value }) with
  | Wire.Ack -> ()
  | r -> unexpected "insert" r

let remove t ~key =
  match call t (Wire.Remove { key }) with
  | Wire.Ack -> ()
  | r -> unexpected "remove" r

let insert_batch t pairs =
  match call t (Wire.Insert_batch { pairs = Array.of_list pairs }) with
  | Wire.Ack -> ()
  | r -> unexpected "insert_batch" r

let remove_batch t keys =
  match call t (Wire.Remove_batch { keys = Array.of_list keys }) with
  | Wire.Ack -> ()
  | r -> unexpected "remove_batch" r

let find t ?version key =
  match call t (Wire.Find { key; version }) with
  | Wire.Value v -> v
  | r -> unexpected "find" r

let find_bulk t ?version keys =
  match call t (Wire.Find_bulk { keys; version }) with
  | Wire.Values vs when Array.length vs = Array.length keys -> vs
  | Wire.Values _ -> raise (Protocol_error "find_bulk value count mismatch")
  | r -> unexpected "find_bulk" r

let tag t =
  match call t Wire.Tag with Wire.Version v -> v | r -> unexpected "tag" r

let tag_at t ~version =
  match call t (Wire.Tag_at { version }) with
  | Wire.Version v -> v
  | r -> unexpected "tag_at" r

let compact t ~before =
  match call t (Wire.Compact { before }) with
  | Wire.Gc_done { dropped } -> dropped
  | r -> unexpected "compact" r

let history t key =
  match call t (Wire.History { key }) with
  | Wire.Events evs -> evs
  | r -> unexpected "history" r

let snapshot t ?version () =
  match call t (Wire.Snapshot { version }) with
  | Wire.Pairs pairs -> pairs
  | r -> unexpected "snapshot" r

(* Stream a whole range page by page: each [Scan] is bounded by the
   server's chunk cap, and a full page means the range may continue —
   re-issue from just past the last key seen. [limit] bounds one page
   (0 = server-chosen); [f] sees every pair in ascending key order.
   Pin [version] for a coherent multi-page scan: an unpinned scan reads
   each page at the then-current state. *)
let scan t ?version ?(limit = 0) ~lo ~hi f =
  let rec page lo total =
    if lo >= hi then total
    else
      match call t (Wire.Scan { lo; hi; version; limit }) with
      | Wire.Pairs pairs ->
          Array.iter (fun (k, v) -> f k v) pairs;
          let n = Array.length pairs in
          if n = 0 then total
          else
            let last, _ = pairs.(n - 1) in
            (* A page shorter than the requested limit proves the server
               exhausted [lo, hi); with a server-chosen limit we page
               until an empty reply instead. *)
            if (limit > 0 && n < limit) || last = max_int then total + n
            else page (last + 1) (total + n)
      | r -> unexpected "scan" r
  in
  page lo 0

let epoch_probe t =
  match call t Wire.Epoch_probe with
  | Wire.Epoch_info { epoch; version } -> (epoch, version)
  | r -> unexpected "epoch_probe" r

(* ---- migration (shard handoff) helpers ---- *)

let migrate_pull t ~lo ~hi ~since ~limit =
  match call t (Wire.Migrate_pull { lo; hi; since; limit }) with
  | Wire.Histories chains -> chains
  | r -> unexpected "migrate_pull" r

let history_batch t ~since chains =
  match call t (Wire.History_batch { since; chains }) with
  | Wire.Ack -> ()
  | r -> unexpected "history_batch" r

let range_seal t ~lo ~hi ~epoch ~endpoint =
  match call t (Wire.Range_seal { lo; hi; epoch; endpoint }) with
  | Wire.Ack -> ()
  | r -> unexpected "range_seal" r

let range_unseal t ~lo ~hi =
  match call t (Wire.Range_unseal { lo; hi }) with
  | Wire.Ack -> ()
  | r -> unexpected "range_unseal" r

let moves_status t =
  match call t Wire.Moves_status with
  | Wire.Moves_json s -> s
  | r -> unexpected "moves_status" r

(* Ship one already-applied mutation to a backup. Returns the backup's
   raw (non-error) response so the chain can cross-check e.g. the
   version a [Tag_at] landed at. *)
let replicate t ~epoch req =
  match call t (Wire.Replicate { epoch; req }) with
  | Wire.Error { code; message } -> raise (Remote_error (code, message))
  | resp -> resp

let trace_dump ?(clear = true) t =
  match call t (Wire.Trace_dump { clear }) with
  | Wire.Trace_json s -> s
  | r -> unexpected "trace" r

let registry_snap t =
  match call t Wire.Registry_snap with
  | Wire.Snap_json s -> s
  | r -> unexpected "registry_snap" r

let slowlog t ~n =
  match call t (Wire.Slowlog { n }) with
  | Wire.Slowlog_json s -> s
  | r -> unexpected "slowlog" r
