(* Concurrent socket server dispatching the wire protocol onto the
   int/int PSkipList store.

   Topology: [workers] domains, each running one [Unix.select] loop
   over the connections it owns plus, while no other watching worker
   owns fewer, the non-blocking listening socket. A worker keeps every
   connection it accepts and serves each ready one with the whole
   read → decode → apply → reply step, so no accepted connection waits
   for another to hang up.

   Batching: a worker answers every complete frame a read brought in
   as it scans it, into one output buffer, and writes that buffer once
   per readiness round (sooner once it holds a frame's worth). A
   pipelining client therefore pays one syscall pair per burst instead
   of per request — this is the server-side half of the batch-update
   idea (Jiffy, arXiv:2102.01044) and what `bench --fig net` measures.

   Robustness: per-frame decode errors are answered in-stream with an
   error frame and the connection stays usable (the length prefix
   keeps the stream in sync). An oversize length prefix or a stalled
   partial frame ([request_timeout]) is fatal for that connection
   only, and so is a reply left unread for [request_timeout], which
   bounds how long one stalled reader holds up its worker. Past the
   connection limit, or on a descriptor [select] cannot watch, new
   connections are refused with a [Busy] error frame. [stop] performs
   a graceful drain: workers stop accepting, keep serving while
   requests keep arriving, then close each connection once it idles.

   Live inspection: the server answers [Registry_snap] (the whole
   registry as a mergeable snapshot, rendered as JSON, Prometheus text
   or a top table by the client, which also derives every rate from two
   of them), [Trace_dump] (the span ring as Chrome trace JSON, drained
   on read) and [Slowlog] (the newest
   threshold-gated slow operations). Per-server state for the latter
   two lives in [t.trace] / [t.slow]; the trace ring doubles as the
   process-wide span sink. *)

module S = Mvdict.Pskiplist.Make (Mvdict.Codec.Int_key) (Mvdict.Codec.Int_value)

(* ---- obs handles ---- *)

let c_requests = Obs.Registry.counter "net.requests"
let c_errors = Obs.Registry.counter "net.errors"
let c_bad_epoch = Obs.Registry.counter "net.bad_epoch"
let c_replicated = Obs.Registry.counter "net.replicated"
let c_connections = Obs.Registry.counter "net.connections"
let c_rejected = Obs.Registry.counter "net.rejected"
let c_bytes_in = Obs.Registry.counter "net.bytes_in"
let c_bytes_out = Obs.Registry.counter "net.bytes_out"
let g_active = Obs.Registry.gauge "net.active_connections"
let h_batch = Obs.Registry.histogram "net.batch_size"

(* Migration metrics: what a shard sees of a live move. Pull/install
   sides are distinct — the old owner pulls, the new owner installs —
   so one server usually moves only one set of these. *)
let c_move_pull_keys = Obs.Registry.counter "move.pull.keys"
let c_move_pull_events = Obs.Registry.counter "move.pull.events"
let c_move_install_keys = Obs.Registry.counter "move.install.keys"
let c_move_install_events = Obs.Registry.counter "move.install.events"
let c_move_install_bytes = Obs.Registry.counter "move.install.bytes"
let c_move_sealed_rejects = Obs.Registry.counter "move.sealed_rejects"
let g_move_sealed = Obs.Registry.gauge "move.sealed_ranges"

let h_move_drain = Obs.Registry.histogram "move.drain_ns"
(** Range_seal handling time: how long draining in-flight writes took. *)

let h_move_pause = Obs.Registry.histogram "move.cutover_pause_ns"
(** Seal-to-unseal wall time: the write-unavailability window of a
    cutover, as observed by the sealed (old) owner. *)

(* Per-op instruments indexed like [Wire.opcode_labels] (by opcode, or
   0 for a replicated frame), so dispatch finds its counter/histogram
   pair with one array load; unused opcodes have none. A traced
   request's span name comes from the same kind of array. *)
let op_metrics =
  Array.map
    (function "" -> None | label -> Some (Obs.Instr.op ("net." ^ label)))
    Wire.opcode_labels

let op_spans = Array.map (fun label -> "srv." ^ label) Wire.opcode_labels

(* Upper bound on pairs in one [Scan] reply page: 16 bytes each keeps
   the page around 1 MiB, well inside [Wire.max_frame]. Clients stream
   longer ranges by re-issuing from the last key of a full page. *)
let scan_chunk = 65536

(* How often an idle worker's select wakes up to look at the stop flag,
   partial-frame deadlines and the listening socket; bounds shutdown
   latency without any cross-domain signalling. *)
let poll_interval = 0.05
let poll_ns = int_of_float (poll_interval *. 1e9)

type t = {
  store : S.t;
  listen_fd : Unix.file_descr;
  addr : Sockaddr.t;  (** actually bound (ephemeral TCP port resolved) *)
  max_conns : int;
  request_timeout : float;
  timeout_ns : int;  (** request_timeout on the Obs.Clock scale *)
  slow : Obs.Slowlog.t;
  trace : Obs.Tracebuf.t;
  epoch : int Atomic.t;
      (** newest topology epoch this server has seen; older stamps
          are rejected with [Bad_epoch]. Shared with the replication
          chain (when one is attached) so forwarded frames always
          carry the epoch the server is fencing at. *)
  on_mutation : (Wire.request -> (unit -> Wire.response) -> Wire.response) option;
      (** the primary-side replication hook: handed each gated client
          mutation and the thunk that applies it locally, it runs the
          thunk once and returns its response. Never called for
          replicated frames, so forwarding is one hop deep. *)
  stop_flag : bool Atomic.t;
  active : int Atomic.t;
  seals : (int * int * int * string * int) list Atomic.t;
      (** sealed key ranges: [(lo, hi, epoch, endpoint, sealed_at_ns)].
          While a range is sealed, mutations touching it are rejected
          with a [Moved] error naming [epoch]/[endpoint] — the
          migration cutover's write gate. *)
  flags : int Atomic.t array;
      (** one in-flight-mutation flag per worker (a worker applies one
          frame at a time); [Range_seal] drains by observing each flag
          at zero once (a grace period, not a global-zero instant, so
          traffic on unrelated ranges cannot stall the drain). *)
  loads : int Atomic.t array;
      (** connections each worker owns while its select watches the
          listening socket; [max_int] while it does not *)
  mutable domains : unit Domain.t array;
}

let addr t = t.addr

(* ---- epoch fencing ----

   The rule is monotone adoption: a stamp older than the newest epoch
   this server has seen is answered with a typed [Bad_epoch] error (the
   router's cue to reload the topology); a newer stamp is adopted via
   CAS, so one request from a post-promotion router fences out every
   router still stamping with the old epoch. *)

let check_epoch t stamp =
  let rec adopt () =
    let current = Atomic.get t.epoch in
    if stamp < current then
      Error
        (Wire.Error
           {
             code = Wire.Bad_epoch;
             message =
               Printf.sprintf "stale epoch %d, server at epoch %d" stamp current;
           })
    else if stamp = current || Atomic.compare_and_set t.epoch current stamp then
      Ok ()
    else adopt ()
  in
  adopt ()

(* ---- migration write gate ----

   A sealed range rejects mutations that touch it with a typed
   [Moved] error carrying the new epoch and owner. The Dekker-style
   handshake with [Range_seal]'s drain: a mutation raises its
   worker's in-flight flag {e before} reading the seal list; the
   sealer publishes the seal {e before} waiting for every flag to
   read zero once. Either the mutation saw the seal (rejected), or
   the drain saw its flag (waited for it) — no acked write can slip
   through after the drain returns. *)

let seal_conflict t (req : Wire.request) =
  match Atomic.get t.seals with
  | [] -> None
  | seals -> (
      let hit key = List.find_opt (fun (lo, hi, _, _, _) -> key >= lo && key < hi) seals in
      let first_hit keyed = Array.find_map (fun (key, _) -> hit key) keyed in
      match req with
      | Wire.Insert { key; _ } | Wire.Remove { key } -> hit key
      | Wire.Insert_batch { pairs } -> first_hit pairs
      | Wire.Remove_batch { keys } -> Array.find_map hit keys
      | Wire.History_batch { chains; _ } -> first_hit chains
      | Wire.Range_drop { lo; hi; _ } ->
          List.find_opt (fun (l, h, _, _, _) -> l < hi && lo < h) seals
      (* The version clock and the GC horizon are migrating state
         too: a tag or compaction that landed after the coordinator's
         final clock probe would be missing on the new owner, so a
         seal rejects them — the router chases and re-issues the same
         absolute operation on the post-move topology. But only while
         the cutover is unpublished to this server: once we have
         adopted an epoch at or above the seal's (the chased retry
         stamps the new epoch, adopted before this check), the range
         already belongs to the destination per the live map — it
         gets the clock op directly, and our clock only governs the
         ranges we kept. Without the epoch cut-off, the residual seal
         between topology save and unseal would bounce every retry
         and exhaust the chase for nothing. The clock probe
         ([Epoch_probe]) mutates nothing and never reaches this
         check. *)
      | Wire.Tag | Wire.Compact _ | Wire.Tag_at _ ->
          let cur = Atomic.get t.epoch in
          List.find_opt (fun (_, _, epoch, _, _) -> epoch > cur) seals
      | _ -> None)

let sealed_reject (_, _, epoch, endpoint, _) =
  Obs.Metric.incr c_move_sealed_rejects;
  Wire.Error { code = Wire.Moved; message = Wire.moved_message ~epoch ~endpoint }

(* Grace-period drain: observe every worker's in-flight flag at zero
   once. A flag is up for one frame's apply and its synchronous
   replication forward (the hook wraps the apply inside the gate), so
   each wait is bounded by one store operation plus, on a primary, the
   chain's mutex and one forward to each backup: up to the chain's
   2,000 ms client timeout per backup, or a whole catch-up. Not by
   traffic, since each flag is observed at zero only once. The flagged
   worker never waits on the drainer: no flagged apply drains (see
   [dispatch_gated]), and the chain's mutex is held only by forwards and
   catch-ups, which wait on backups, never on a flag. *)
let drain_mutations t =
  Array.iter
    (fun flag ->
      while Atomic.get flag > 0 do
        Domain.cpu_relax ()
      done)
    t.flags

let set_seal t ~lo ~hi ~epoch ~endpoint =
  let rec update () =
    let cur = Atomic.get t.seals in
    (* Re-sealing the same range keeps the original timestamp: the
       cutover-pause histogram measures from the first seal. *)
    let sealed_at =
      match List.find_opt (fun (l, h, _, _, _) -> l = lo && h = hi) cur with
      | Some (_, _, _, _, at) -> at
      | None -> Obs.Clock.now_ns ()
    in
    let rest = List.filter (fun (l, h, _, _, _) -> not (l = lo && h = hi)) cur in
    if
      not
        (Atomic.compare_and_set t.seals cur
           ((lo, hi, epoch, endpoint, sealed_at) :: rest))
    then update ()
  in
  update ();
  Obs.Metric.set g_move_sealed (List.length (Atomic.get t.seals))

let clear_seal t ~lo ~hi =
  let rec update () =
    let cur = Atomic.get t.seals in
    let removed = List.find_opt (fun (l, h, _, _, _) -> l = lo && h = hi) cur in
    let rest = List.filter (fun (l, h, _, _, _) -> not (l = lo && h = hi)) cur in
    if Atomic.compare_and_set t.seals cur rest then removed else update ()
  in
  let removed = update () in
  Obs.Metric.set g_move_sealed (List.length (Atomic.get t.seals));
  removed

let moves_json t =
  let now = Obs.Clock.now_ns () in
  let buf = Buffer.create 128 in
  Buffer.add_string buf
    (Printf.sprintf "{\"epoch\":%d,\"version\":%d,\"sealed\":["
       (Atomic.get t.epoch)
       (S.current_version t.store));
  List.iteri
    (fun i (lo, hi, epoch, endpoint, sealed_at) ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf
        (Printf.sprintf
           "{\"lo\":%d,\"hi\":%d,\"epoch\":%d,\"endpoint\":%S,\"age_ms\":%.1f}"
           lo hi epoch endpoint
           (float_of_int (now - sealed_at) /. 1e6)))
    (Atomic.get t.seals);
  Buffer.add_string buf "]}";
  Buffer.contents buf

(* ---- request dispatch ---- *)

let apply t (env : Wire.envelope) (req : Wire.request) : Wire.response =
  match req with
  | Wire.Ping -> Wire.Pong
  | Wire.Insert { key; value } ->
      S.insert t.store key value;
      Wire.Ack
  | Wire.Remove { key } ->
      S.remove t.store key;
      Wire.Ack
  | Wire.Find { key; version } -> Wire.Value (S.find t.store ?version key)
  | Wire.Find_bulk { keys; version } ->
      Wire.Values (Array.map (fun key -> S.find t.store ?version key) keys)
  | Wire.Tag -> Wire.Version (S.tag t.store)
  | Wire.Tag_at { version } ->
      (* A clock already past [version] is answered as-is and left to
         the caller (the cluster router) to flag as a conflict. *)
      Wire.Version (S.tag_at t.store version)
  | Wire.History { key } -> Wire.Events (S.extract_history t.store key)
  | Wire.Registry_snap ->
      Wire.Snap_json
        (Obs.Json.to_string (Obs.Snap.to_json (Obs.Snap.of_registry ())))
  | Wire.Trace_dump { clear } ->
      (* Drain by default, so each fetch reports every span recorded
         since the last one exactly once, spans recorded during the
         fetch included. [clear = false] lets concurrent collectors
         peek without stealing each other's spans. The dump is stamped
         with this node's clock so a fleet merger can rebase rings
         recorded on different monotonic clocks onto one timeline. *)
      let events =
        if clear then Obs.Tracebuf.drain t.trace else Obs.Tracebuf.dump t.trace
      in
      Wire.Trace_json
        (Obs.Json.to_string
           (Obs.Tracebuf.chrome_json ~clock_ns:(Obs.Clock.now_ns ()) events))
  | Wire.Slowlog { n } ->
      Wire.Slowlog_json
        (Obs.Json.to_string (Obs.Slowlog.to_json (Obs.Slowlog.newest t.slow ~n)))
  | Wire.Compact { before } ->
      Wire.Gc_done { dropped = S.compact t.store ~before }
  | Wire.Epoch_probe ->
      (* A publication barrier: read the clock, then drain every
         worker's in-flight flag. A write that will ever be stamped <=
         the answer read the clock before it reached that value, so its
         flag was up when the drain started; a write starting after our
         read stamps above the answer. So a copy round can trust
         [since = probed clock]: no event at or below the watermark
         surfaces after the round's pulls. *)
      let version = S.current_version t.store in
      drain_mutations t;
      Wire.Epoch_info { epoch = Atomic.get t.epoch; version; horizon = S.horizon t.store }
  | Wire.Insert_batch { pairs } ->
      S.insert_batch t.store (Array.to_list pairs);
      Wire.Ack
  | Wire.Remove_batch { keys } ->
      S.remove_batch t.store (Array.to_list keys);
      Wire.Ack
  | Wire.Scan { lo; hi; version; limit } ->
      (* One bounded page of the range: [limit] 0 (or anything above
         the cap) means server-chosen. The walk stops early once the
         page is full instead of materialising the whole range. *)
      let limit =
        if limit <= 0 then scan_chunk else min limit scan_chunk
      in
      let acc = ref [] and n = ref 0 in
      let exception Page_full in
      (try
         S.iter_range t.store ?version ~lo ~hi (fun k v ->
             acc := (k, v) :: !acc;
             incr n;
             if !n >= limit then raise Page_full)
       with Page_full -> ());
      let a = Array.of_list !acc in
      let m = Array.length a in
      Wire.Pairs (Array.init m (fun i -> a.(m - 1 - i)))
  | Wire.Migrate_pull { lo; hi; since; limit } ->
      (* [limit] bounds the page in events; the same cap as Scan
         keeps the reply around 1 MiB. *)
      let limit = if limit <= 0 then scan_chunk else min limit scan_chunk in
      let chains = S.pull_chains t.store ~lo ~hi ~since ~limit in
      Obs.Metric.add c_move_pull_keys (List.length chains);
      Obs.Metric.add c_move_pull_events
        (List.fold_left (fun n (_, es) -> n + List.length es) 0 chains);
      Wire.Histories (Array.of_list chains)
  | Wire.History_batch { since; chains } ->
      S.install_chains t.store ~since (Array.to_list chains);
      (* Only a move's installs count: a catch-up's pages and a new
         owner's forwards to its backups arrive replicated. *)
      if not env.Wire.replicated then begin
        let events =
          Array.fold_left (fun n (_, es) -> n + List.length es) 0 chains
        in
        Obs.Metric.add c_move_install_keys (Array.length chains);
        Obs.Metric.add c_move_install_events events;
        (* Wire-encoding sizes: 16 bytes per chain header, 9 or 17 per
           event — close enough to the bytes that actually moved. *)
        Obs.Metric.add c_move_install_bytes
          ((16 * Array.length chains) + (17 * events))
      end;
      Wire.Ack
  | Wire.Range_drop { lo; hi; horizon } ->
      Wire.Gc_done { dropped = S.drop_range t.store ~lo ~hi ~horizon }
  | Wire.Range_seal { lo; hi; epoch; endpoint } ->
      let t0 = Obs.Clock.now_ns () in
      set_seal t ~lo ~hi ~epoch ~endpoint;
      drain_mutations t;
      Obs.Histogram.record h_move_drain (Obs.Clock.now_ns () - t0);
      Wire.Ack
  | Wire.Range_unseal { lo; hi } ->
      (match clear_seal t ~lo ~hi with
      | None -> ()
      | Some (_, _, _, _, sealed_at) ->
          Obs.Histogram.record h_move_pause (Obs.Clock.now_ns () - sealed_at));
      Wire.Ack
  | Wire.Moves_status -> Wire.Moves_json (moves_json t)

(* Close the op timing of [req] (labelled by [env]) started at [t0],
   noting a timed request in the slowlog. *)
let finish_op t env req t0 =
  match op_metrics.(Wire.label_index env req) with
  | None -> ()
  | Some metrics ->
      let elapsed = Obs.Instr.finish_elapsed metrics t0 in
      if elapsed > 0 then
        Obs.Slowlog.note t.slow ~op:(Wire.request_label env req)
          ?key:(Wire.request_key req) ~latency_ns:elapsed ()

(* A replicated frame, forwarded by another primary, must be applied
   but never re-forwarded, which keeps the chain one hop deep and
   loop-free. Every other mutation is applied through [on_mutation]
   (the replication chain), which forwards it in the order of the
   local applies, so the ack the client sees means "applied here and
   offered to every reachable backup". *)
let dispatch_core t env req =
  let t0 = Obs.Instr.start () in
  let resp =
    match
      match t.on_mutation with
      | Some hook when (not env.Wire.replicated) && Wire.is_mutation req ->
          hook req (fun () -> apply t env req)
      | _ -> apply t env req
    with
    | resp -> resp
    | exception e ->
        Obs.Metric.incr c_errors;
        Wire.Error { code = Wire.Server_error; message = Printexc.to_string e }
  in
  finish_op t env req t0;
  resp

(* Client mutations pass the write gate around [dispatch_core]: raise
   the worker's in-flight flag [gate], then either bounce off a seal
   covering one of [req]'s keys or apply it. Replicated frames bypass
   it — backups are never sealed, and the seal must not recurse into
   the replication path it is draining.

   Invariant: no thread waits on a flag while it holds one. The two
   drains ([Epoch_probe] and [Range_seal]) are not mutations and run
   unflagged; otherwise two probes on two workers would each hold
   their own flag up and spin on the other's forever. *)
let dispatch_gated t ~gate env req =
  if env.Wire.replicated || not (Wire.is_mutation req) then dispatch_core t env req
  else begin
    Atomic.incr gate;
    Fun.protect
      ~finally:(fun () -> Atomic.decr gate)
      (fun () ->
        match seal_conflict t req with
        | Some seal -> sealed_reject seal
        | None -> dispatch_core t env req)
  end

(* The envelope first: a stale epoch is refused before anything runs,
   and a trace context is inherited for the whole request, so the
   [srv.*] span records this node's side of the hop with the sender's
   span as parent, and every span opened while applying (scans,
   replication forwards) nests under it — one client call shows up as
   one connected tree across every node it touched. *)
let dispatch t ~gate (env : Wire.envelope) req =
  let fenced () =
    match Option.map (check_epoch t) env.epoch with
    | Some (Error resp) ->
        Obs.Metric.incr c_bad_epoch;
        resp
    | Some (Ok ()) | None ->
        if env.replicated then Obs.Metric.incr c_replicated;
        dispatch_gated t ~gate env req
  in
  match env.trace with
  | None -> fenced ()
  | Some _ ->
      Obs.Span.with_context env.trace (fun () ->
          Obs.Span.with_ op_spans.(Wire.label_index env req) fenced)

(* ---- per-connection state ---- *)

type conn = {
  fd : Unix.file_descr;
  rx : Rxbuf.t;
  out : Buffer.t;
  mutable partial_since : int;
      (** Obs.Clock ns when the pending incomplete frame was first
          seen; -1 = none. Monotonic (when a monotonic source is
          installed), never wall clock — an NTP step must not fire or
          suppress request timeouts. *)
  mutable seen_ns : int;
      (** Obs.Clock ns of the last round that found it readable; after
          [stop] it closes once idle for [poll_interval] *)
  mutable eof : bool;
}

exception Close_conn
exception Fatal_frame of Wire.error_code * string

let flush_out conn =
  if Buffer.length conn.out > 0 then begin
    let payload = Buffer.contents conn.out in
    Buffer.clear conn.out;
    match Sockaddr.write_string conn.fd payload with
    | () -> Obs.Metric.add c_bytes_out (String.length payload)
    (* EAGAIN is the accepted socket's send timeout: the peer left a
       reply unread for [request_timeout]. *)
    | exception Unix.Unix_error _ -> raise Close_conn
  end

let read_more conn =
  match Rxbuf.read conn.rx conn.fd with
  | 0 -> conn.eof <- true
  | n -> Obs.Metric.add c_bytes_in n
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  | exception Unix.Unix_error _ -> conn.eof <- true

(* Answer every complete frame buffered, in order, into [conn.out]: one
   dispatch and one reply each. A decode failure is answered in-stream
   with an error frame, so one garbled request cannot poison the
   requests around it. Replies leave once a frame's worth has piled
   up, so a burst of large replies is never buffered whole (one 64 KiB
   read holds up to 2,048 Scan requests, each answered with up to
   1 MiB). Returns how many frames were answered. *)
let rec answer t ~gate conn n =
  match Rxbuf.next conn.rx with
  | `Oversize declared ->
      raise
        (Fatal_frame
           ( Wire.Too_large,
             Printf.sprintf "declared frame length %d exceeds max %d" declared
               Wire.max_frame ))
  | `Partial ->
      if Rxbuf.pending conn.rx = 0 then conn.partial_since <- -1
      else if conn.partial_since < 0 then conn.partial_since <- Obs.Clock.now_ns ();
      n
  | `Frame (off, len, _) ->
      conn.partial_since <- -1;
      Obs.Metric.incr c_requests;
      let resp =
        match Wire.decode_request conn.rx.buf ~off ~len with
        | Ok (env, req) -> dispatch t ~gate env req
        | Error (code, message) ->
            Obs.Metric.incr c_errors;
            Wire.Error { code; message }
      in
      Wire.add_response conn.out resp;
      if Buffer.length conn.out >= Wire.max_frame then flush_out conn;
      answer t ~gate conn (n + 1)

let fatal_close conn code message =
  Wire.add_response conn.out (Wire.Error { code; message });
  Obs.Metric.incr c_errors;
  (try flush_out conn with Close_conn -> ())

(* ---- workers ---- *)

(* One readiness round of [conn]: read if [ready], answer every
   complete frame buffered with one write, then say whether the
   connection stays open. [gate] is the serving worker's in-flight
   flag. *)
let serve_conn t ~gate conn ~ready =
  if ready then read_more conn;
  match
    let n = answer t ~gate conn 0 in
    if n > 0 then Obs.Histogram.record h_batch n;
    flush_out conn
  with
  | exception Fatal_frame (code, message) ->
      fatal_close conn code message;
      false
  | exception Close_conn -> false
  | () ->
      let now = Obs.Clock.now_ns () in
      if ready then conn.seen_ns <- now;
      if conn.eof then false
      else if conn.partial_since >= 0 && now - conn.partial_since > t.timeout_ns
      then begin
        fatal_close conn Wire.Timeout
          (Printf.sprintf "gave up waiting for the rest of a frame after %.1fs"
             t.request_timeout);
        false
      end
      else
        (* Stopping and the connection is idle: drain is complete. *)
        not (Atomic.get t.stop_flag && now - conn.seen_ns > poll_ns)

let close_conn t conn =
  (try Unix.close conn.fd with _ -> ());
  Atomic.decr t.active;
  Obs.Metric.set g_active (Atomic.get t.active)

let reject fd message =
  Obs.Metric.incr c_rejected;
  let out = Buffer.create 64 in
  Wire.add_response out (Wire.Error { code = Wire.Busy; message });
  (try Sockaddr.write_string fd (Buffer.contents out) with _ -> ());
  try Unix.close fd with _ -> ()

(* [Unix.select] fails with EINVAL on a descriptor at or past
   FD_SETSIZE, so no worker could watch it. *)
let selectable fd =
  match Unix.select [ fd ] [] [] 0.0 with
  | _ -> true
  | exception Unix.Unix_error (Unix.EINVAL, _, _) -> false
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> true

(* Take one pending connection into [conns], unless another worker won
   the race for it (the listening socket is non-blocking). *)
let accept t conns =
  match Unix.accept t.listen_fd with
  | exception Unix.Unix_error (Unix.(EAGAIN | EWOULDBLOCK | EINTR | ECONNABORTED), _, _)
    -> ()
  | exception Unix.Unix_error _ -> Atomic.set t.stop_flag true
  | fd, _peer ->
      Obs.Metric.incr c_connections;
      Sockaddr.nodelay fd;
      if not (selectable fd) then reject fd "server at descriptor limit"
      else if Atomic.fetch_and_add t.active 1 >= t.max_conns then begin
        Atomic.decr t.active;
        reject fd "server at connection limit"
      end
      else begin
        Obs.Metric.set g_active (Atomic.get t.active);
        (* Replies are blocking writes bounded by the send timeout (some
           systems pass the listener's O_NONBLOCK on to [fd]). *)
        Unix.clear_nonblock fd;
        (try Unix.setsockopt_float fd Unix.SO_SNDTIMEO t.request_timeout
         with Unix.Unix_error _ -> ());
        let rx = Rxbuf.create () and out = Buffer.create Rxbuf.chunk in
        let seen_ns = Obs.Clock.now_ns () in
        conns := { fd; rx; out; partial_since = -1; seen_ns; eof = false } :: !conns
      end

(* A worker owning [n] connections watches the listening socket only
   while no other watching worker owns fewer, so up to [workers]
   concurrent clients get a worker each. Workers asleep in select
   without the listener do not count: they would leave it unwatched. *)
let least_loaded t n = Array.for_all (fun load -> Atomic.get load >= n) t.loads

let worker t i =
  let gate = t.flags.(i) and load = t.loads.(i) in
  let conns = ref [] in
  let publish n = if Atomic.get load <> n then Atomic.set load n in
  let round () =
    let n = List.length !conns in
    let watch = (not (Atomic.get t.stop_flag)) && least_loaded t n in
    publish (if watch then n else max_int);
    let fds = List.map (fun conn -> conn.fd) !conns in
    let fds = if watch then t.listen_fd :: fds else fds in
    let ready =
      match Unix.select fds [] [] poll_interval with
      | ready, _, _ -> ready
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> []
    in
    let keep, gone =
      List.partition
        (fun conn -> serve_conn t ~gate conn ~ready:(List.mem conn.fd ready))
        !conns
    in
    List.iter (close_conn t) gone;
    conns := keep;
    if watch && List.mem t.listen_fd ready && least_loaded t (List.length !conns)
    then begin
      accept t conns;
      publish (List.length !conns)
    end
  in
  try
    while not (Atomic.get t.stop_flag && !conns = []) do
      round ()
    done
  with e ->
    Atomic.set load max_int;
    List.iter (close_conn t) !conns;
    Printf.eprintf "net.server: worker died: %s\n%!" (Printexc.to_string e)

let start ~store ?(workers = 4) ?(max_conns = 256)
    ?(request_timeout = 5.0) ?(slowlog_threshold_ns = 10_000_000)
    ?(trace_capacity = 4096) ?trace ?epoch_cell ?on_mutation ~listen () =
  if workers < 1 then invalid_arg "Server.start: need at least one worker";
  let listen_fd = Sockaddr.listen listen in
  Unix.set_nonblock listen_fd;
  let trace =
    (* Callers that already own a ring (e.g. one installed before
       recovery so the rebuild spans are captured) pass it in;
       otherwise we create one and install it as the span sink. *)
    match trace with
    | Some trace -> trace
    | None ->
        let trace = Obs.Tracebuf.create ~capacity:trace_capacity in
        Obs.Tracebuf.install trace;
        trace
  in
  let t =
    {
      store;
      listen_fd;
      addr = Sockaddr.bound listen listen_fd;
      max_conns;
      request_timeout;
      timeout_ns = int_of_float (request_timeout *. 1e9);
      slow = Obs.Slowlog.create ~threshold_ns:slowlog_threshold_ns ();
      trace;
      epoch = (match epoch_cell with Some c -> c | None -> Atomic.make 0);
      on_mutation;
      stop_flag = Atomic.make false;
      active = Atomic.make 0;
      seals = Atomic.make [];
      flags = Array.init workers (fun _ -> Atomic.make 0);
      loads = Array.init workers (fun _ -> Atomic.make 0);
      domains = [||];
    }
  in
  t.domains <- Array.init workers (fun i -> Domain.spawn (fun () -> worker t i));
  t

(* Graceful: stop accepting, let workers drain in-flight requests,
   join everything. Safe to call more than once. *)
let stop t =
  Atomic.set t.stop_flag true;
  Array.iter Domain.join t.domains;
  (try Unix.close t.listen_fd with _ -> ());
  match t.addr with
  | Sockaddr.Unix_sock path -> ( try Sys.remove path with _ -> ())
  | _ -> ()
