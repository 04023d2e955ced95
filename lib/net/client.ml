(* Blocking client for the wire protocol.

   One request/response round trip per {!call}, or a pipelined batch
   per {!call_batch}: every request frame is written in a single
   buffered write, then the matching responses are read back in order —
   the client-side half of the batching the server amortises on.

   A client dials on first use ({!create}; {!connect} dials at once).
   Connection loss (refused connect, reset, server restart) is retried
   with the doubling schedule from [Concurrent.Backoff], reused as a
   sleep duration in milliseconds: at most [retries + 1] tries per call,
   each dialling at most once. A call that fails closes the connection,
   so the next call redials. A batch interrupted mid-flight is retried
   whole on the fresh connection, so mutating requests are
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
      (** when set, every outgoing request's envelope carries this
          epoch — how a router's connections participate in epoch
          fencing. [None] = unstamped. *)
  mutable fd : Unix.file_descr option;
  mutable dialled : bool;  (** a dial succeeded: every later one is a redial *)
  rx : Rxbuf.t;
  out : Buffer.t;
}

let c_redials = Obs.Registry.counter "net.client.redials"

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

let create ?(retries = 5) ?timeout_ms ?epoch addr =
  {
    addr;
    retries;
    timeout_ms;
    epoch;
    fd = None;
    dialled = false;
    rx = Rxbuf.create ();
    out = Buffer.create 256;
  }

let set_epoch t epoch = t.epoch <- Some epoch

let close t =
  (match t.fd with Some fd -> ( try Unix.close fd with _ -> ()) | None -> ());
  t.fd <- None;
  Rxbuf.clear t.rx

let ensure_connected t =
  match t.fd with
  | Some fd -> fd
  | None ->
      if t.dialled then Obs.Metric.incr c_redials;
      let fd = Sockaddr.connect t.addr in
      apply_timeout fd t.timeout_ms;
      t.fd <- Some fd;
      t.dialled <- true;
      fd

(* Run [f] on a live connection, dialling it if needed; a transient
   failure closes it and tries again on a fresh one, up to [retries]
   more times. Any failure that escapes has closed the connection. *)
let with_retries t f =
  (* The schedule is made on the first retry: its jitter state, seeded
     from the OS, would nearly double what a call that never retries
     allocates. *)
  let rec attempt k b =
    match f (ensure_connected t) with
    | v -> v
    | exception e ->
        close t;
        if not (transient e && k < t.retries) then raise e;
        let b =
          match b with
          | Some b -> b
          | None -> Concurrent.Backoff.create ~min:1 ~max:512 ~jitter:true ()
        in
        Unix.sleepf (float_of_int (Concurrent.Backoff.current b) *. 1e-3);
        Concurrent.Backoff.once b;
        attempt (k + 1) (Some b)
  in
  attempt 0 None

let connect ?retries ?timeout_ms ?epoch addr =
  let t = create ?retries ?timeout_ms ?epoch addr in
  with_retries t ignore;
  t

(* ---- response stream ---- *)

let rec read_response t fd =
  match Rxbuf.next t.rx with
  | `Oversize n ->
      (* The stream cannot be resynchronised past a bogus length; the
         failed call drops the connection. *)
      raise (Protocol_error (Printf.sprintf "server declared a %d-byte frame" n))
  | `Partial ->
      (match Rxbuf.read t.rx fd with
      | 0 -> raise End_of_file
      | _ -> ()
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
      read_response t fd
  | `Frame (off, len, _) -> (
      match Wire.decode_response t.rx.buf ~off ~len with
      | Ok resp -> resp
      | Error (code, msg) ->
          raise
            (Protocol_error
               (Printf.sprintf "undecodable response (%s: %s)"
                  (Wire.error_code_name code) msg)))

(* ---- calls ---- *)

(* The calling domain's live trace context, when sampled: whoever is
   inside a sampled [Obs.Span.with_] when this client sends gets the
   remote server's work recorded as a child span of theirs. Outside
   any sampled context no trace words are sent, so tracing costs
   nothing when off. *)
let envelope t =
  let trace =
    match Obs.Span.get_context () with
    | Some { Obs.Span.trace; sampled = true; _ } as c
      when not (Obs.Traceid.is_null trace) ->
        c
    | _ -> None
  in
  match (t.epoch, trace) with
  | None, None -> Wire.plain
  | epoch, trace -> { Wire.epoch; replicated = false; trace }

(* Write every request, framed with [env], in one buffered write, then
   read their responses in order. *)
let exchange t env reqs =
  if reqs = [] then []
  else begin
    Buffer.clear t.out;
    List.iter (fun req -> Wire.add_frame t.out (Wire.encode_request_body env req)) reqs;
    let payload = Buffer.contents t.out in
    with_retries t (fun fd ->
        Sockaddr.write_string fd payload;
        List.init (List.length reqs) (fun _ -> read_response t fd))
  end

let call_batch t reqs = exchange t (envelope t) reqs

let call_in t env req =
  match exchange t env [ req ] with
  | [ resp ] -> resp
  | _ -> raise (Protocol_error "response count mismatch")

let call t req = call_in t (envelope t) req

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

(* The whole store, ascending, paged like [scan] (so an unpinned
   snapshot reads each page at the then-current state). A half-open
   range cannot name [max_int], so one [find] adds it. *)
let snapshot t ?version () =
  let acc = ref [] in
  ignore (scan t ?version ~lo:min_int ~hi:max_int (fun k v -> acc := (k, v) :: !acc));
  (match find t ?version max_int with
  | Some v -> acc := (max_int, v) :: !acc
  | None -> ());
  Array.of_list (List.rev !acc)

(* The server's epoch, version clock and compaction horizon. *)
let epoch_probe t =
  match call t Wire.Epoch_probe with
  | Wire.Epoch_info { epoch; version; horizon } -> (epoch, version, horizon)
  | r -> unexpected "epoch_probe" r

let clock t =
  let _, version, _ = epoch_probe t in
  version

(* ---- migration (shard handoff) helpers ---- *)

let migrate_pull t ~lo ~hi ~since ~limit =
  match call t (Wire.Migrate_pull { lo; hi; since; limit }) with
  | Wire.Histories chains -> chains
  | r -> unexpected "migrate_pull" r

type copied = { keys : int; events : int; resets : int; clock : int }

(* Events per page of {!copy_range}: the one page size of a move's
   rounds and a backup's catch-up. *)
let copy_page = 4096

(* Copy the version chains of [lo, hi) above [since] from a source to a
   destination: the one copy behind a shard move's rounds and a
   backup's catch-up. [probe] reads the source's clock and compaction
   horizon h, [pull ~since ~lo ~limit] one page of its chains from key
   [lo], of about [limit] events (always {!copy_page}; a page ends on a
   whole chain, so a key's chain is never split, and an empty one ends
   the range), and [ship] sends the destination one mutation. No event
   above [since] says what the source dropped at or below h (a GC pass
   may release a removed key whole), so when [since < h] the copy first
   drops the destination's [lo, hi) ([Range_drop], raising its horizon
   to h) and copies from 0; and it is redone that way if h rose past
   [max since h] during the copy. Returns the keys and events shipped,
   the drops, and the clock probed before the first pull: every event
   at or below it was in the source's chains by then, so it is the next
   round's [since]. *)
let copy_range ~probe ~pull ~ship ~lo ~hi ~since =
  let keys = ref 0 and events = ref 0 and resets = ref 0 in
  let rec page ~since from =
    match pull ~since ~lo:from ~limit:copy_page with
    | [||] -> ()
    | chains ->
        ship (Wire.History_batch { since; chains });
        keys := !keys + Array.length chains;
        Array.iter (fun (_, evs) -> events := !events + List.length evs) chains;
        let last, _ = chains.(Array.length chains - 1) in
        if last < hi - 1 then page ~since (last + 1)
  in
  let rec copy ~since ~h =
    let since =
      if since >= h then since
      else begin
        ship (Wire.Range_drop { lo; hi; horizon = h });
        incr resets;
        0
      end
    in
    page ~since lo;
    let _, h' = probe () in
    if h' > max since h then copy ~since ~h:h'
  in
  let clock, h = probe () in
  copy ~since ~h;
  { keys = !keys; events = !events; resets = !resets; clock }

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

let ok = function
  | Wire.Error { code; message } -> raise (Remote_error (code, message))
  | resp -> resp

(* Send one mutation and return the peer's non-error response. *)
let mutate t req = ok (call t req)

(* Ship one already-applied mutation to a backup, marked replicated in
   its envelope; the chain reads the version a [Tag_at] landed at off
   the response. *)
let replicate t ~epoch req =
  ok (call_in t { (envelope t) with epoch = Some epoch; replicated = true } req)

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
