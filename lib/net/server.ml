(* Concurrent socket server dispatching the wire protocol onto the
   int/int PSkipList store.

   Topology: [workers] domains, each running one [Unix.select] loop
   over the connections it owns plus, while no other watching worker
   owns fewer, the non-blocking listening socket. A worker keeps every
   connection it accepts and serves each ready one with the whole
   read → decode → apply → reply step, so no accepted connection waits
   for another to hang up.

   Batching: a worker drains up to [batch] complete frames from the
   connection buffer before touching the store, applies them back to
   back, and answers with one buffered write. A pipelining client
   therefore pays one syscall pair and one index-cache warmup per
   batch instead of per request — this is the server-side half of the
   batch-update idea (Jiffy, arXiv:2102.01044) and what `bench
   --fig net` measures.

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
   or a top table by the client), [Trace_dump] (the span ring as Chrome
   trace JSON, drained on read) and [Slowlog] (the newest
   threshold-gated slow operations). Per-server state for the latter
   two lives in [t.trace] / [t.slow]; the trace ring doubles as the
   process-wide span sink. *)

module S = Mvdict.Pskiplist.Make (Mvdict.Codec.Int_key) (Mvdict.Codec.Int_value)

(* ---- obs handles ---- *)

let c_requests = Obs.Registry.counter "net.requests"
let c_errors = Obs.Registry.counter "net.errors"
let c_coalesced = Obs.Registry.counter "net.coalesced_frames"
let c_bad_epoch = Obs.Registry.counter "net.bad_epoch"
let c_replicated = Obs.Registry.counter "net.replicated"
let c_connections = Obs.Registry.counter "net.connections"
let c_rejected = Obs.Registry.counter "net.rejected"
let c_bytes_in = Obs.Registry.counter "net.bytes_in"
let c_bytes_out = Obs.Registry.counter "net.bytes_out"
let g_active = Obs.Registry.gauge "net.active_connections"
let h_batch = Obs.Registry.histogram "net.batch_size"

(* Sliding-window rates maintained server-side, so ops/s and bytes/s
   are readable straight off one stats/metrics fetch instead of being
   re-derived from counter deltas by every scraper. *)
let w_requests = Obs.Registry.window "net.rate.requests"
let w_bytes_in = Obs.Registry.window "net.rate.bytes_in"
let w_bytes_out = Obs.Registry.window "net.rate.bytes_out"

(* Migration metrics: what a shard sees of a live move. Pull/install
   sides are distinct — the old owner pulls, the new owner installs —
   so one server usually moves only one set of these. *)
let c_move_pull_keys = Obs.Registry.counter "move.pull.keys"
let c_move_pull_events = Obs.Registry.counter "move.pull.events"
let c_move_install_keys = Obs.Registry.counter "move.install.keys"
let c_move_install_events = Obs.Registry.counter "move.install.events"
let c_move_install_bytes = Obs.Registry.counter "move.install.bytes"
let c_move_sealed_rejects = Obs.Registry.counter "move.sealed_rejects"
let w_move_install = Obs.Registry.window "move.rate.install.events"
let g_move_sealed = Obs.Registry.gauge "move.sealed_ranges"

let h_move_drain = Obs.Registry.histogram "move.drain_ns"
(** Range_seal handling time: how long draining in-flight writes took. *)

let h_move_pause = Obs.Registry.histogram "move.cutover_pause_ns"
(** Seal-to-unseal wall time: the write-unavailability window of a
    cutover, as observed by the sealed (old) owner. *)

(* Per-op instruments indexed by request opcode, so dispatch finds its
   counter/histogram pair with one array load. Wrapper and unused
   opcodes have none: dispatch unwraps wrappers before the lookup. *)
let op_metrics =
  Array.map
    (function "" -> None | label -> Some (Obs.Instr.op ("net." ^ label)))
    Wire.opcode_labels

let recv_chunk = 65536

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
  batch : int;
  max_conns : int;
  request_timeout : float;
  timeout_ns : int;  (** request_timeout on the Obs.Clock scale *)
  slow : Obs.Slowlog.t;
  slo : Obs.Slo.t option;
  trace : Obs.Tracebuf.t;
  epoch : int Atomic.t;
      (** newest topology epoch this server has seen; older stamps
          are rejected with [Bad_epoch]. Shared with the replication
          chain (when one is attached) so forwarded frames always
          carry the epoch the server is fencing at. *)
  on_mutation : (Wire.request -> Wire.response -> unit) option;
      (** called after a client mutation applied successfully —
          the primary-side replication hook. Never called for
          [Replicate] frames, so forwarding is one hop deep. *)
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
      let hit key =
        List.find_opt (fun (lo, hi, _, _, _) -> key >= lo && key < hi) seals
      in
      let first_hit fold keys =
        fold
          (fun acc key -> match acc with Some _ -> acc | None -> hit key)
          None keys
      in
      match req with
      | Wire.Insert { key; _ } | Wire.Remove { key } -> hit key
      | Wire.Insert_batch { pairs } ->
          first_hit
            (fun f acc -> Array.fold_left (fun a (k, _) -> f a k) acc)
            pairs
      | Wire.Remove_batch { keys } ->
          first_hit (fun f acc -> Array.fold_left f acc) keys
      | Wire.History_batch { chains; _ } ->
          first_hit
            (fun f acc -> Array.fold_left (fun a (k, _) -> f a k) acc)
            chains
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
         and exhaust the chase for nothing. Clock {e probes}
         ([Tag_at 0]) mutate nothing and never reach this check (see
         [gated]). *)
      | Wire.Tag | Wire.Compact _ | Wire.Tag_at _ ->
          let cur = Atomic.get t.epoch in
          List.find_opt (fun (_, _, epoch, _, _) -> epoch > cur) seals
      | _ -> None)

let sealed_reject (_, _, epoch, endpoint, _) =
  Obs.Metric.incr c_move_sealed_rejects;
  Wire.Error { code = Wire.Moved; message = Wire.moved_message ~epoch ~endpoint }

(* Grace-period drain: observe every worker's in-flight flag at zero
   once. A flag is up for one frame's apply and its synchronous
   replication forward ([offer] runs inside the gate), so each wait is
   bounded by one store operation plus, on a primary, one forward to
   each backup: up to the chain's 2,000 ms client timeout per backup,
   or a whole catch-up. Not by traffic, since each flag is observed at
   zero only once. The flagged worker never waits on the drainer: no
   flagged apply drains (see [gated]), and a forward waits only on its
   backups and the chain's mutex, never on a flag. *)
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

let apply t (req : Wire.request) : Wire.response =
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
      (* Advance the version clock until it reaches [version] and
         answer whatever it then reads. [version] 0 is a pure probe;
         a clock already past [version] is answered as-is and left to
         the caller (the cluster router) to flag as a conflict. The
         loop re-reads the clock so concurrent taggers cannot push it
         past the target through us. *)
      if version = 0 then begin
        (* The probe doubles as a publication barrier: read the clock
           first, then drain every other worker's in-flight flag.
           A write that will ever be stamped <= the answer read the
           clock before it reached that value — its flag was already
           up when we started scanning, so the drain waits for its
           chain append. A write starting after our read stamps
           strictly above the answer. This is what lets a migration
           round trust [since = probed clock]: no event at or below
           the watermark can surface after the round's pulls. *)
        let current = S.current_version t.store in
        drain_mutations t;
        Wire.Version current
      end
      else
        let rec bump () =
          let current = S.current_version t.store in
          if current >= version then current
          else begin
            ignore (S.tag t.store);
            bump ()
          end
        in
        Wire.Version (bump ())
  | Wire.History { key } -> Wire.Events (S.extract_history t.store key)
  | Wire.Snapshot { version } ->
      (* The one request that walks the whole store: span it so a
         snapshot round-trip shows up in the trace ring. *)
      Obs.Span.with_ "net.snapshot" (fun () ->
          Wire.Pairs
            (match version with
            | Some version -> S.extract_snapshot t.store ~version ()
            | None -> S.extract_snapshot t.store ()))
  | Wire.Registry_snap ->
      Wire.Snap_json
        (Obs.Json.to_string (Obs.Snap.to_json (Obs.Snap.of_registry ())))
  | Wire.Trace_dump { clear } ->
      (* Dump-and-clear by default, so each fetch is a fresh window
         and a monitoring loop never re-reports the same spans.
         [clear = false] lets concurrent collectors peek without
         stealing each other's spans. The dump is stamped with this
         node's clock so a fleet merger can rebase rings recorded on
         different monotonic clocks onto one timeline. *)
      let events = Obs.Tracebuf.dump t.trace in
      if clear then Obs.Tracebuf.clear t.trace;
      Wire.Trace_json
        (Obs.Json.to_string
           (Obs.Tracebuf.chrome_json ~clock_ns:(Obs.Clock.now_ns ()) events))
  | Wire.Slowlog { n } ->
      Wire.Slowlog_json
        (Obs.Json.to_string (Obs.Slowlog.to_json (Obs.Slowlog.newest t.slow ~n)))
  | Wire.Compact { before } ->
      Wire.Gc_done { dropped = S.compact t.store ~before }
  | Wire.Epoch_probe ->
      Wire.Epoch_info
        { epoch = Atomic.get t.epoch; version = S.current_version t.store }
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
      let events =
        Array.fold_left (fun n (_, es) -> n + List.length es) 0 chains
      in
      Obs.Metric.add c_move_install_keys (Array.length chains);
      Obs.Metric.add c_move_install_events events;
      (* Wire-encoding sizes: 16 bytes per chain header, 9 or 17 per
         event — close enough to the bytes that actually moved. *)
      Obs.Metric.add c_move_install_bytes
        ((16 * Array.length chains) + (17 * events));
      Obs.Window.add w_move_install events;
      Wire.Ack
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
  | Wire.Stamped _ | Wire.Replicate _ ->
      (* Unreachable: [dispatch] unwraps both and the decoder rejects
         nested wrappers — but keep it a typed error, not an assert. *)
      Wire.Error { code = Wire.Malformed; message = "nested epoch wrapper" }
  | Wire.Traced _ ->
      Wire.Error { code = Wire.Malformed; message = "nested traced wrapper" }

(* Close [req]'s op timing started at [t0], noting a timed request in
   the slowlog and the SLO counters. *)
let finish_op t req t0 =
  match op_metrics.(Wire.request_opcode req) with
  | None -> ()
  | Some metrics ->
      let elapsed = Obs.Instr.finish_elapsed metrics t0 in
      if elapsed > 0 then begin
        let op = Wire.request_label req in
        Obs.Slowlog.note t.slow ~op ?key:(Wire.request_key req)
          ~latency_ns:elapsed ();
        match t.slo with
        | None -> ()
        | Some slo -> Obs.Slo.note slo ~op ~latency_ns:elapsed
      end

(* Hand a successfully applied mutation to the replication hook. A
   replication failure must not poison the client connection; the
   chain records the lag and catches the backup up later. *)
let offer t req resp =
  match (resp, t.on_mutation) with
  | Wire.Error _, _ | _, None -> ()
  | resp, Some hook -> (
      try hook req resp
      with e ->
        Printf.eprintf "net.server: replication hook failed: %s\n%!"
          (Printexc.to_string e))

(* [replicated] marks a frame forwarded by another primary: it must be
   applied but never re-forwarded, which keeps the chain one hop deep
   and loop-free. Everything else that mutates and succeeds is handed
   to [on_mutation] (the replication chain) after the local apply, so
   the ack the client sees means "applied here and offered to every
   reachable backup". *)
let dispatch_core t ~replicated req =
  let t0 = Obs.Instr.start () in
  let resp =
    match apply t req with
    | resp -> resp
    | exception e ->
        Obs.Metric.incr c_errors;
        Wire.Error { code = Wire.Server_error; message = Printexc.to_string e }
  in
  finish_op t req t0;
  if (not replicated) && Wire.is_mutation req then offer t req resp;
  resp

(* Which requests pass the write gate: the ones that change state.
   A clock probe ([Tag_at 0]) changes nothing, and it drains every
   flag itself. [Wire.is_mutation] still counts it, because that
   predicate also decides what replicates.

   Invariant: no thread waits on a flag while it holds one. The two
   drains ([Tag_at 0] and [Range_seal]) therefore run unflagged;
   otherwise two probes on two workers would each hold their own flag
   up and spin on the other's forever. *)
let gated req =
  Wire.is_mutation req
  && match req with Wire.Tag_at { version = 0 } -> false | _ -> true

(* The write gate: raise the worker's in-flight flag [gate], then either
   bounce off a seal covering one of [req]'s keys or run [f]. *)
let through_gate t ~gate req f =
  Atomic.incr gate;
  Fun.protect
    ~finally:(fun () -> Atomic.decr gate)
    (fun () ->
      match seal_conflict t req with
      | Some seal -> sealed_reject seal
      | None -> f ())

(* Gated client requests pass the write gate around [dispatch_core].
   Replicated frames bypass it — backups are never sealed, and the seal
   must not recurse into the replication path it is draining. *)
let dispatch_inner t ~replicated ~gate req =
  if replicated || not (gated req) then dispatch_core t ~replicated req
  else through_gate t ~gate req (fun () -> dispatch_core t ~replicated req)

let rec dispatch t ~gate req =
  match req with
  | Wire.Traced { trace_hi; trace_lo; parent_span; sampled; req } ->
      (* Inherit the remote trace context for the duration of the
         request: the [srv.*] span records this node's side of the
         hop with the router's span as parent, and any span opened
         while applying (snapshot walks, replication forwards) nests
         under it — so one client call shows up as one connected tree
         across every node it touched. *)
      if sampled then
        Obs.Span.with_context
          (Some
             {
               Obs.Span.trace = { Obs.Traceid.hi = trace_hi; lo = trace_lo };
               parent = parent_span;
               sampled = true;
             })
          (fun () ->
            Obs.Span.with_ ("srv." ^ Wire.request_label req) (fun () ->
                dispatch t ~gate req))
      else dispatch t ~gate req
  | (Wire.Stamped { epoch; req } | Wire.Replicate { epoch; req }) as frame -> (
      match check_epoch t epoch with
      | Error resp ->
          Obs.Metric.incr c_bad_epoch;
          resp
      | Ok () ->
          let replicated = match frame with Wire.Replicate _ -> true | _ -> false in
          if replicated then Obs.Metric.incr c_replicated;
          dispatch_inner t ~replicated ~gate req)
  | req -> dispatch_inner t ~replicated:false ~gate req

(* ---- per-connection state ---- *)

type conn = {
  fd : Unix.file_descr;
  mutable buf : Bytes.t;
  mutable start : int;  (** first unconsumed byte *)
  mutable fill : int;  (** end of valid data *)
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
    | () ->
        Obs.Metric.add c_bytes_out (String.length payload);
        Obs.Window.add w_bytes_out (String.length payload)
    (* EAGAIN is the accepted socket's send timeout: the peer left a
       reply unread for [request_timeout]. *)
    | exception Unix.Unix_error _ -> raise Close_conn
  end

(* Drain up to [batch] complete frames; decode failures become
   in-stream error replies so one garbled request cannot poison the
   requests around it. *)
let collect t conn =
  let items = ref [] and n = ref 0 in
  let continue = ref true in
  while !continue && !n < t.batch do
    match Wire.scan conn.buf ~off:conn.start ~len:(conn.fill - conn.start) with
    | `Oversize declared ->
        raise
          (Fatal_frame
             ( Wire.Too_large,
               Printf.sprintf "declared frame length %d exceeds max %d" declared
                 Wire.max_frame ))
    | `Partial ->
        if conn.fill = conn.start then conn.partial_since <- -1
        else if conn.partial_since < 0 then
          conn.partial_since <- Obs.Clock.now_ns ();
        continue := false
    | `Frame (off, len, consumed) ->
        conn.partial_since <- -1;
        (match Wire.decode_request conn.buf ~off ~len with
        | Ok req -> items := `Req req :: !items
        | Error (code, message) ->
            items := `Err (Wire.Error { code; message }) :: !items);
        conn.start <- conn.start + consumed;
        incr n
  done;
  List.rev !items

(* Apply one coalesced run of same-kind mutations as a single store
   batch. Mirrors [dispatch_inner]: one op-metric/slowlog sample and
   one replication hook firing (with the synthesized batch request,
   so backups see the same coalescing) — but one reply per original
   frame, so client semantics are unchanged. *)
let apply_run t ~gate conn ~req ~apply frames =
  let t0 = Obs.Instr.start () in
  (* Same write gate as [dispatch_inner]: the coalesced run is one
     client mutation as far as seals are concerned. *)
  let resp =
    through_gate t ~gate req (fun () ->
        match apply () with
        | () -> Wire.Ack
        | exception e ->
            Obs.Metric.incr c_errors;
            Wire.Error { code = Wire.Server_error; message = Printexc.to_string e })
  in
  finish_op t req t0;
  offer t req resp;
  for _ = 1 to frames do
    Obs.Metric.incr c_requests;
    Wire.add_response conn.out resp
  done

(* Same-connection write coalescing: within one drained batch, a
   maximal run of consecutive top-level plain [Insert] (or [Remove])
   frames with pairwise-distinct keys is applied as one store-level
   batch. Wrapped frames ([Stamped]/[Traced]/[Replicate]) need their
   own dispatch and never coalesce. A run also stops at a repeated
   key: all events of one batch share one version, so the canonical
   install would collapse the duplicate — but per-frame semantics
   promise each write its own history event. *)
let process t ~gate conn items =
  Obs.Histogram.record h_batch (List.length items);
  Obs.Window.add w_requests (List.length items);
  let single item =
    Obs.Metric.incr c_requests;
    let resp =
      match item with
      | `Req req -> dispatch t ~gate req
      | `Err resp ->
          Obs.Metric.incr c_errors;
          resp
    in
    Wire.add_response conn.out resp
  in
  let rec go = function
    | [] -> ()
    | `Req (Wire.Insert _) :: _ as l ->
        let seen = Hashtbl.create 16 in
        let rec take n pairs = function
          | `Req (Wire.Insert { key; value }) :: rest
            when not (Hashtbl.mem seen key) ->
              Hashtbl.add seen key ();
              take (n + 1) ((key, value) :: pairs) rest
          | rest -> (n, List.rev pairs, rest)
        in
        let n, pairs, rest = take 0 [] l in
        if n >= 2 then begin
          Obs.Metric.add c_coalesced n;
          apply_run t ~gate conn
            ~req:(Wire.Insert_batch { pairs = Array.of_list pairs })
            ~apply:(fun () -> S.insert_batch t.store pairs)
            n;
          go rest
        end
        else begin
          single (List.hd l);
          go (List.tl l)
        end
    | `Req (Wire.Remove _) :: _ as l ->
        let seen = Hashtbl.create 16 in
        let rec take n keys = function
          | `Req (Wire.Remove { key }) :: rest when not (Hashtbl.mem seen key) ->
              Hashtbl.add seen key ();
              take (n + 1) (key :: keys) rest
          | rest -> (n, List.rev keys, rest)
        in
        let n, keys, rest = take 0 [] l in
        if n >= 2 then begin
          Obs.Metric.add c_coalesced n;
          apply_run t ~gate conn
            ~req:(Wire.Remove_batch { keys = Array.of_list keys })
            ~apply:(fun () -> S.remove_batch t.store keys)
            n;
          go rest
        end
        else begin
          single (List.hd l);
          go (List.tl l)
        end
    | it :: rest ->
        single it;
        go rest
  in
  go items;
  flush_out conn

let read_more conn =
  (* Make room: compact the consumed prefix, then grow if a pipelined
     burst still does not fit. *)
  if Bytes.length conn.buf - conn.fill < recv_chunk then begin
    if conn.start > 0 then begin
      Bytes.blit conn.buf conn.start conn.buf 0 (conn.fill - conn.start);
      conn.fill <- conn.fill - conn.start;
      conn.start <- 0
    end;
    if Bytes.length conn.buf - conn.fill < recv_chunk then begin
      let bigger =
        Bytes.create (max (2 * Bytes.length conn.buf) (conn.fill + recv_chunk))
      in
      Bytes.blit conn.buf 0 bigger 0 conn.fill;
      conn.buf <- bigger
    end
  end;
  match Unix.read conn.fd conn.buf conn.fill recv_chunk with
  | 0 -> conn.eof <- true
  | n ->
      Obs.Metric.add c_bytes_in n;
      Obs.Window.add w_bytes_in n;
      conn.fill <- conn.fill + n
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  | exception Unix.Unix_error _ -> conn.eof <- true

let fatal_close conn code message =
  Wire.add_response conn.out (Wire.Error { code; message });
  Obs.Metric.incr c_errors;
  (try flush_out conn with Close_conn -> ())

(* ---- workers ---- *)

(* One readiness round of [conn]: read if [ready], answer every
   complete frame buffered, then say whether the connection stays
   open. [gate] is the serving worker's in-flight flag. *)
let serve_conn t ~gate conn ~ready =
  if ready then read_more conn;
  let rec answer () =
    match collect t conn with
    | [] -> ()
    | items ->
        process t ~gate conn items;
        answer ()
  in
  match answer () with
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
        let buf = Bytes.create recv_chunk and out = Buffer.create recv_chunk in
        let seen_ns = Obs.Clock.now_ns () in
        conns :=
          { fd; buf; start = 0; fill = 0; out; partial_since = -1; seen_ns; eof = false }
          :: !conns
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

let start ~store ?(workers = 4) ?(batch = 64) ?(max_conns = 256)
    ?(request_timeout = 5.0) ?(slowlog_threshold_ns = 10_000_000)
    ?(trace_capacity = 4096) ?trace ?slo ?epoch_cell ?on_mutation ~listen () =
  if workers < 1 then invalid_arg "Server.start: need at least one worker";
  if batch < 1 then invalid_arg "Server.start: batch must be positive";
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
      batch;
      max_conns;
      request_timeout;
      timeout_ns = int_of_float (request_timeout *. 1e9);
      slow = Obs.Slowlog.create ~threshold_ns:slowlog_threshold_ns ();
      slo;
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
