(* Wire protocol for serving the multi-version dict API over a socket.

   Framing: every message is [4-byte big-endian body length][body].
   A response body is a protocol version byte, an opcode byte and an
   opcode-specific payload. A request body puts its envelope between
   the version byte and the opcode: a flags byte (bit 0: an epoch word
   follows; bit 1: the frame is a primary's replication forward, valid
   only with bit 0; bit 2: three trace-context words follow), then the
   words it flags. Integers travel as 8-byte little-endian words
   (values may be negative, so no varint games); options are a
   presence byte; sequences are a count followed by the elements. The
   frame length is bounded by {!max_frame} so a corrupt or hostile
   length prefix cannot make a peer allocate unbounded memory.

   Errors are first-class response frames carrying a stable numeric
   code plus a human-readable message, so a server can reject one bad
   request (unknown opcode, wrong protocol version, garbled payload)
   and keep the connection alive: the frame boundary is still known
   from the length prefix. *)

(* The only accepted version: a frame carrying any other version byte
   is answered with a Bad_version error frame. Request opcodes 7, 8, 9
   and 15 are retired and decode as unknown: a whole-store snapshot
   pages through Scan, the registry travels only as a Registry_snap
   that clients render, and a retention window is a Compact horizon the
   caller computes from a probed clock. Version 10 added [Range_drop]
   and made [Epoch_probe] the one clock probe ([Tag_at 0] is malformed).
   Version 11 moved the epoch stamp, the replication mark and the trace
   context into the request envelope, retiring the wrapper opcodes 16
   (Stamped), 17 (Replicate) and 19 (Traced). *)
let protocol_version = 11

(* Largest accepted body, in bytes: 524,287 pairs, small enough that a
   garbage length prefix is rejected instead of honoured. A reply that
   would not fit goes out as a [Too_large] error (see {!add_response});
   whole-store transfers page through [Scan] and ship batches of at
   most {!batch_chunk} elements instead. *)
let max_frame = 8 * 1024 * 1024

(* Elements per batch frame ([Insert_batch], [Remove_batch],
   [Find_bulk]): 16 KiB of pairs keeps a frame far below {!max_frame}
   while still amortising the round trip. *)
let batch_chunk = 1024

(* [a] cut into consecutive pieces of at most {!batch_chunk} elements. *)
let chunks a =
  let n = Array.length a in
  List.init
    ((n + batch_chunk - 1) / batch_chunk)
    (fun c -> Array.sub a (c * batch_chunk) (min batch_chunk (n - (c * batch_chunk))))

let header_bytes = 4

(* ---- messages ---- *)

type error_code =
  | Bad_version  (** frame's protocol version byte is not ours *)
  | Bad_opcode  (** unknown request/response opcode *)
  | Malformed  (** opcode known but the payload does not parse *)
  | Too_large  (** declared frame length exceeds {!max_frame} *)
  | Timeout  (** server gave up waiting for the rest of a frame *)
  | Busy  (** server is at its connection limit *)
  | Server_error  (** the store raised while applying the request *)
  | Bad_epoch
      (** the request's epoch stamp is older than the newest epoch the
          server has seen — the sender's topology is stale *)
  | Moved
      (** the key's range is sealed for migration — the message (built
          by {!moved_message}) names the topology epoch and the new
          owner's endpoint, so the sender can chase the move *)

type request =
  | Ping
  | Insert of { key : int; value : int }
  | Remove of { key : int }
  | Find of { key : int; version : int option }
  | Tag
  | History of { key : int }
  | Trace_dump of { clear : bool }
      (** Dump the span ring as Chrome trace JSON. [clear] also drains
          the ring — a second concurrent collector passes [false] so
          polling from two terminals doesn't lose spans. *)
  | Slowlog of { n : int }  (** newest [n] slow-op log entries *)
  | Tag_at of { version : int }
      (** Raise the store's version clock to [version] (positive) in one
          step, however far ahead, and answer the resulting current
          version; a clock already past it is only reported, never
          lowered. A cluster router broadcasts the same [Tag_at] to
          every shard so all of them cut the {e same} version number. *)
  | Find_bulk of { keys : int array; version : int option }
      (** Look every key up in one frame; answered with {!Values} in
          input order. *)
  | Compact of { before : int }
      (** Garbage-collect history entries no snapshot at or after
          [before] observes; answered with {!Gc_done}. A retention
          window of the last [keep] versions is [before = clock - keep],
          with the clock read by an {!Epoch_probe} first. *)
  | Epoch_probe
      (** The one clock probe: answered with {!Epoch_info} once every
          write in flight when the clock was read has finished, so every
          event stamped at or below the answered version is in the
          store's chains (a publication barrier). *)
  | Registry_snap
      (** Answered with {!Snap_json}: the node's full registry as a
          mergeable snapshot (counters, gauges, raw histogram buckets). The
          one registry export: clients render it as JSON, Prometheus
          text or a [top] table, and the router merges it across every
          shard and replica for [mvkv cluster top]/[cluster metrics]. *)
  | Insert_batch of { pairs : (int * int) array }
      (** Install every pair under one version bump
          ({!Dict_intf.S.insert_batch}); answered with {!Ack}. *)
  | Remove_batch of { keys : int array }
      (** Remove every key under one version bump; answered with
          {!Ack}. *)
  | Scan of { lo : int; hi : int; version : int option; limit : int }
      (** Ranged read: up to [limit] live pairs of snapshot [version]
          with keys in [lo, hi), ascending; answered with {!Pairs}. A
          full page ([limit] pairs) means the range may continue — the
          client streams the rest by re-issuing with
          [lo = last_key + 1]. [limit = 0] means server-chosen. *)
  | Migrate_pull of { lo : int; hi : int; since : int; limit : int }
      (** Page the per-key version chains of keys in [lo, hi) out of
          the store, restricted to events with version > [since]
          ([since = 0] is everything — versions start at 1); answered
          with {!Histories} in ascending key order. [limit] bounds the
          page in {e events} (0 = server-chosen); a key's chain is
          never split across pages, and an empty reply means the range
          is exhausted. The bulk-copy and delta rounds of a shard
          migration are pages of this request. *)
  | History_batch of {
      since : int;
      chains : (int * (int * int Mvdict.Dict_intf.event) list) array;
    }
      (** Install pulled chains verbatim — exact version stamps, Put
          and Del events alike ({!Dict_intf.S.install_chains});
          answered with {!Ack}. [since] is the horizon the chains were
          pulled with: each chain holds {e all} of the source's events
          above it for that key, which is what makes re-installation
          idempotent (the installer counts its own events above
          [since] and appends only the tail). A mutation: the new
          owner's primary forwards it to its backups verbatim, so
          replica sets converge on exact histories too. *)
  | Range_seal of { lo : int; hi : int; epoch : int; endpoint : string }
      (** Close the write gate for keys in [lo, hi): drain in-flight
          mutations, then reject new ones with a {!Moved} error naming
          [epoch] (the topology generation the move creates) and
          [endpoint] (the new owner). Answered with {!Ack} once
          drained. Idempotent — re-sealing the same range just updates
          the destination info. *)
  | Range_unseal of { lo : int; hi : int }
      (** Reopen the write gate for [lo, hi) (cutover done, or the
          move was abandoned); answered with {!Ack}. Idempotent. *)
  | Moves_status
      (** Answered with {!Moves_json}: the server's epoch, clock, and
          currently sealed ranges with their age — what
          [mvkv cluster moves] renders. *)
  | Range_drop of { lo : int; hi : int; horizon : int }
      (** Release every key in [lo, hi) whole, after raising the
          compaction horizon to at least [horizon]; answered with
          {!Gc_done}. Rejected under an overlapping seal, and forwarded
          to backups verbatim ([Client.copy_range] sends it). *)

(* The context every request frame carries beside its request. *)
type envelope = {
  epoch : int option;
      (** The sender's topology epoch. A server rejects a frame stamped
          older than the newest epoch it has seen with a {!Bad_epoch}
          error and adopts a newer one, so a router with a stale map is
          detected instead of silently served. *)
  replicated : bool;
      (** A primary's forward of a mutation it already applied: the
          backup applies it without forwarding it again (the chain is
          one hop deep) and without the migration write gate. Only
          with an epoch. *)
  trace : Obs.Span.context option;
      (** The sender's sampled trace context: the server handles the
          request under it, so its spans join the sender's trace. Only
          sampled contexts travel. *)
}

let plain = { epoch = None; replicated = false; trace = None }

type response =
  | Pong
  | Ack  (** insert/remove applied *)
  | Version of int  (** tag result *)
  | Value of int option  (** find result *)
  | Values of int option array  (** find_bulk result, in request key order *)
  | Events of (int * int Mvdict.Dict_intf.event) list  (** history result *)
  | Pairs of (int * int) array  (** scan page *)
  | Trace_json of string  (** Chrome trace_event JSON text *)
  | Slowlog_json of string  (** slow-op log entries as JSON text *)
  | Gc_done of { dropped : int }  (** compact result: entries dropped *)
  | Epoch_info of { epoch : int; version : int; horizon : int }
      (** Epoch_probe result: epoch, version clock, compaction horizon. *)
  | Snap_json of string
      (** Registry_snap result: an {!Obs.Snap} document as JSON text. *)
  | Histories of (int * (int * int Mvdict.Dict_intf.event) list) array
      (** Migrate_pull result: per key (ascending), the version chain
          above the requested horizon, oldest first. *)
  | Moves_json of string
      (** Moves_status result: sealed-range status as JSON text. *)
  | Error of { code : error_code; message : string }

let error_code_to_int = function
  | Bad_version -> 1
  | Bad_opcode -> 2
  | Malformed -> 3
  | Too_large -> 4
  | Timeout -> 5
  | Busy -> 6
  | Server_error -> 7
  | Bad_epoch -> 8
  | Moved -> 9

let error_code_of_int = function
  | 1 -> Some Bad_version
  | 2 -> Some Bad_opcode
  | 3 -> Some Malformed
  | 4 -> Some Too_large
  | 5 -> Some Timeout
  | 6 -> Some Busy
  | 7 -> Some Server_error
  | 8 -> Some Bad_epoch
  | 9 -> Some Moved
  | _ -> None

let error_code_name = function
  | Bad_version -> "bad_version"
  | Bad_opcode -> "bad_opcode"
  | Malformed -> "malformed"
  | Too_large -> "too_large"
  | Timeout -> "timeout"
  | Busy -> "busy"
  | Server_error -> "server_error"
  | Bad_epoch -> "bad_epoch"
  | Moved -> "moved"

(* The Moved error rides the generic code+message error frame; the
   destination travels in the message in a fixed spelling these two
   helpers own. Wire-compatible with every peer (unknown codes decode
   as Server_error with the message intact). *)
let moved_message ~epoch ~endpoint =
  Printf.sprintf "moved epoch=%d endpoint=%s" epoch endpoint

let parse_moved message =
  match String.split_on_char ' ' message with
  | [ "moved"; e; ep ]
    when String.length e > 6
         && String.sub e 0 6 = "epoch="
         && String.length ep > 9
         && String.sub ep 0 9 = "endpoint=" -> (
      match int_of_string_opt (String.sub e 6 (String.length e - 6)) with
      | Some epoch when epoch >= 0 ->
          Some (epoch, String.sub ep 9 (String.length ep - 9))
      | _ -> None)
  | _ -> None

let request_opcode = function
  | Ping -> 1
  | Insert _ -> 2
  | Remove _ -> 3
  | Find _ -> 4
  | Tag -> 5
  | History _ -> 6
  | Trace_dump _ -> 10
  | Slowlog _ -> 11
  | Tag_at _ -> 12
  | Find_bulk _ -> 13
  | Compact _ -> 14
  | Epoch_probe -> 18
  | Registry_snap -> 20
  | Insert_batch _ -> 21
  | Remove_batch _ -> 22
  | Scan _ -> 23
  | Migrate_pull _ -> 24
  | History_batch _ -> 25
  | Range_seal _ -> 26
  | Range_unseal _ -> 27
  | Moves_status -> 28
  | Range_drop _ -> 29

(* Stable per-op labels, indexed by request opcode: metric names, span
   names and the slow-op log key on them. "" marks an unused opcode.
   Slot 0, which no opcode uses, labels a replicated frame, whatever
   request it carries, so a backup's forwarded applies are told apart
   from the requests its own clients send. *)
let opcode_labels =
  [|
    "replicate"; "ping"; "insert"; "remove"; "find"; "tag"; "history"; "";
    ""; ""; "trace"; "slowlog"; "tag_at"; "find_bulk"; "compact"; ""; "";
    ""; "epoch_probe"; ""; "registry_snap"; "insert_batch"; "remove_batch";
    "scan"; "migrate_pull"; "history_batch"; "range_seal"; "range_unseal";
    "moves_status"; "range_drop";
  |]

let label_index env r = if env.replicated then 0 else request_opcode r
let request_label env r = opcode_labels.(label_index env r)
let request_labels = List.filter (fun l -> l <> "") (Array.to_list opcode_labels)

(* The key a request touches, when it names one — slow-op log entries
   carry it so a hot key is identifiable from the log alone. *)
let request_key = function
  | Insert { key; _ } | Remove { key } | Find { key; _ } | History { key } ->
      Some key
  | _ -> None

(* Requests a primary must forward to its backups for the replica set
   to converge; everything else is read-only or server-local.
   History_batch and Range_drop are: the new owner's backups need the
   migrated chains too. Range_seal/Range_unseal are deliberately NOT — the gate
   lives on the primary (backups never take client writes), and a seal
   must not recurse into the replication path it is draining. *)
let is_mutation = function
  | Insert _ | Remove _ | Tag | Tag_at _ | Compact _ | Insert_batch _
  | Remove_batch _ | History_batch _ | Range_drop _ ->
      true
  | Ping | Find _ | Find_bulk _ | History _ | Trace_dump _
  | Slowlog _ | Epoch_probe | Registry_snap | Scan _ | Migrate_pull _
  | Range_seal _ | Range_unseal _ | Moves_status ->
      false

(* ---- equality / printing (tests, error messages) ---- *)

let equal_response a b =
  match (a, b) with
  | Pairs x, Pairs y -> x = y
  | a, b -> a = b

let pp_response fmt = function
  | Epoch_info { epoch; version; horizon } ->
      Format.fprintf fmt "epoch %d version %d horizon %d" epoch version horizon
  | Pong -> Format.pp_print_string fmt "pong"
  | Ack -> Format.pp_print_string fmt "ack"
  | Version v -> Format.fprintf fmt "version %d" v
  | Value None -> Format.pp_print_string fmt "value none"
  | Value (Some v) -> Format.fprintf fmt "value %d" v
  | Values vs -> Format.fprintf fmt "values(%d)" (Array.length vs)
  | Events evs -> Format.fprintf fmt "events(%d)" (List.length evs)
  | Pairs ps -> Format.fprintf fmt "pairs(%d)" (Array.length ps)
  | Trace_json s -> Format.fprintf fmt "trace(%d bytes)" (String.length s)
  | Slowlog_json s -> Format.fprintf fmt "slowlog(%d bytes)" (String.length s)
  | Gc_done { dropped } -> Format.fprintf fmt "gc_done dropped=%d" dropped
  | Snap_json s -> Format.fprintf fmt "snap(%d bytes)" (String.length s)
  | Histories chains -> Format.fprintf fmt "histories(%d keys)" (Array.length chains)
  | Moves_json s -> Format.fprintf fmt "moves(%d bytes)" (String.length s)
  | Error { code; message } ->
      Format.fprintf fmt "error %s: %s" (error_code_name code) message

(* ---- encoding ---- *)

let put_u8 buf v = Buffer.add_char buf (Char.chr (v land 0xff))

let put_int buf v = Buffer.add_int64_le buf (Int64.of_int v)

let put_opt_int buf = function
  | None -> put_u8 buf 0
  | Some v ->
      put_u8 buf 1;
      put_int buf v

let put_string buf s =
  put_int buf (String.length s);
  Buffer.add_string buf s

(* An event list travels as its count, then each event as version +
   tag byte (0 Del / 1 Put + value): an Events reply, and each key's
   chain in Histories and History_batch (count, then per key the key
   and its events). *)
let put_events buf events =
  put_int buf (List.length events);
  List.iter
    (fun (version, event) ->
      put_int buf version;
      match event with
      | Mvdict.Dict_intf.Del -> put_u8 buf 0
      | Mvdict.Dict_intf.Put v ->
          put_u8 buf 1;
          put_int buf v)
    events

let put_chains buf chains =
  put_int buf (Array.length chains);
  Array.iter
    (fun (key, events) ->
      put_int buf key;
      put_events buf events)
    chains

let envelope_flags { epoch; replicated; trace } =
  (if epoch = None then 0 else 1)
  lor (if replicated then 2 else 0)
  lor if trace = None then 0 else 4

(* The envelope sits between the version byte and the opcode: the
   flags byte, then the epoch and the trace words it flags. *)
let encode_request_body env (r : request) =
  let buf = Buffer.create 32 in
  put_u8 buf protocol_version;
  put_u8 buf (envelope_flags env);
  (match env.epoch with Some epoch -> put_int buf epoch | None -> ());
  (match env.trace with
  | Some { trace = { hi; lo }; parent; _ } ->
      put_int buf hi;
      put_int buf lo;
      put_int buf parent
  | None -> ());
  put_u8 buf (request_opcode r);
  (match r with
  | Ping | Tag | Epoch_probe | Registry_snap -> ()
  | Trace_dump { clear } -> put_u8 buf (if clear then 1 else 0)
  | Insert { key; value } ->
      put_int buf key;
      put_int buf value
  | Remove { key } | History { key } -> put_int buf key
  | Find { key; version } ->
      put_int buf key;
      put_opt_int buf version
  | Slowlog { n } -> put_int buf n
  | Tag_at { version } -> put_int buf version
  | Find_bulk { keys; version } ->
      put_opt_int buf version;
      put_int buf (Array.length keys);
      Array.iter (put_int buf) keys
  | Compact { before } -> put_int buf before
  | Insert_batch { pairs } ->
      put_int buf (Array.length pairs);
      Array.iter
        (fun (k, v) ->
          put_int buf k;
          put_int buf v)
        pairs
  | Remove_batch { keys } ->
      put_int buf (Array.length keys);
      Array.iter (put_int buf) keys
  | Scan { lo; hi; version; limit } ->
      put_int buf lo;
      put_int buf hi;
      put_opt_int buf version;
      put_int buf limit
  | Migrate_pull { lo; hi; since; limit } ->
      put_int buf lo;
      put_int buf hi;
      put_int buf since;
      put_int buf limit
  | History_batch { since; chains } ->
      put_int buf since;
      put_chains buf chains
  | Range_seal { lo; hi; epoch; endpoint } ->
      put_int buf lo;
      put_int buf hi;
      put_int buf epoch;
      put_string buf endpoint
  | Range_unseal { lo; hi } ->
      put_int buf lo;
      put_int buf hi
  | Range_drop { lo; hi; horizon } ->
      put_int buf lo;
      put_int buf hi;
      put_int buf horizon
  | Moves_status -> ());
  Buffer.contents buf

let response_opcode = function
  | Pong -> 1
  | Ack -> 2
  | Version _ -> 3
  | Value _ -> 4
  | Events _ -> 5
  | Pairs _ -> 6
  | Error _ -> 8
  | Trace_json _ -> 10
  | Slowlog_json _ -> 11
  | Values _ -> 12
  | Gc_done _ -> 13
  | Epoch_info _ -> 14
  | Snap_json _ -> 15
  | Histories _ -> 16
  | Moves_json _ -> 17

let encode_response_body (r : response) =
  let buf = Buffer.create 32 in
  put_u8 buf protocol_version;
  put_u8 buf (response_opcode r);
  (match r with
  | Pong | Ack -> ()
  | Version v -> put_int buf v
  | Value v -> put_opt_int buf v
  | Values vs ->
      put_int buf (Array.length vs);
      Array.iter (put_opt_int buf) vs
  | Events evs -> put_events buf evs
  | Pairs pairs ->
      put_int buf (Array.length pairs);
      Array.iter
        (fun (k, v) ->
          put_int buf k;
          put_int buf v)
        pairs
  | Trace_json s | Slowlog_json s | Snap_json s -> put_string buf s
  | Gc_done { dropped } -> put_int buf dropped
  | Epoch_info { epoch; version; horizon } ->
      put_int buf epoch;
      put_int buf version;
      put_int buf horizon
  | Histories chains -> put_chains buf chains
  | Moves_json s -> put_string buf s
  | Error { code; message } ->
      put_u8 buf (error_code_to_int code);
      put_string buf message);
  Buffer.contents buf

(* Append [body] to [buf] as one frame: 4-byte big-endian length prefix
   then the body verbatim. *)
let add_frame buf body =
  let n = String.length body in
  put_u8 buf (n lsr 24);
  put_u8 buf (n lsr 16);
  put_u8 buf (n lsr 8);
  put_u8 buf n;
  Buffer.add_string buf body

let add_request buf r = add_frame buf (encode_request_body plain r)

(* A reply never outgrows a frame: one that would is answered with a
   [Too_large] error instead, so the peer reads on in sync. *)
let add_response buf r =
  let body = encode_response_body r in
  add_frame buf
    (if String.length body <= max_frame then body
     else
       encode_response_body
         (Error
            {
              code = Too_large;
              message =
                Printf.sprintf "a %d-byte reply exceeds the %d-byte frame limit"
                  (String.length body) max_frame;
            }))

(* ---- frame scanning ---- *)

(* Locate one frame inside [b.(off .. off+len)].
   [`Frame (body_off, body_len, consumed)]: a whole frame is present;
   [`Partial]: the length prefix or body is still incomplete (a
   truncated prefix is indistinguishable from one that has not arrived
   yet — the connection-level read timeout is what bounds it);
   [`Oversize n]: the prefix declares [n > max_frame] bytes, which a
   peer must treat as fatal for the connection (the stream cannot be
   re-synchronised without trusting the bogus length). *)
let scan b ~off ~len =
  if len < header_bytes then `Partial
  else
    let u8 i = Char.code (Bytes.get b (off + i)) in
    let n = (u8 0 lsl 24) lor (u8 1 lsl 16) lor (u8 2 lsl 8) lor u8 3 in
    if n > max_frame then `Oversize n
    else if len - header_bytes < n then `Partial
    else `Frame (off + header_bytes, n, header_bytes + n)

(* ---- decoding ---- *)

exception Bad of error_code * string

let bad fmt = Printf.ksprintf (fun msg -> raise (Bad (Malformed, msg))) fmt

type cursor = { b : Bytes.t; limit : int; mutable pos : int }

let need c n what = if c.limit - c.pos < n then bad "truncated payload reading %s" what

let get_u8 c what =
  need c 1 what;
  let v = Char.code (Bytes.get c.b c.pos) in
  c.pos <- c.pos + 1;
  v

let get_int c what =
  need c 8 what;
  let v = Int64.to_int (Bytes.get_int64_le c.b c.pos) in
  c.pos <- c.pos + 8;
  v

(* A word no valid frame holds negative: an epoch, a horizon, a page
   bound, a trace word. *)
let get_nat c what =
  let v = get_int c what in
  if v < 0 then bad "negative %s %d" what v;
  v

let get_bool c what =
  match get_u8 c what with 0 -> false | 1 -> true | t -> bad "bad %s flag %d" what t

let get_opt_int c what =
  match get_u8 c what with
  | 0 -> None
  | 1 -> Some (get_int c what)
  | t -> bad "bad option tag %d in %s" t what

let get_string c what =
  let n = get_int c what in
  if n < 0 || n > c.limit - c.pos then bad "bad string length %d in %s" n what;
  let s = Bytes.sub_string c.b c.pos n in
  c.pos <- c.pos + n;
  s

(* A count of elements at least [size] bytes each: one the rest of the
   payload cannot hold is rejected before anything is allocated for
   it. *)
let get_count c ~size what =
  let n = get_int c what in
  if n < 0 || n > (c.limit - c.pos) / size then bad "%s %d overruns frame" what n;
  n

let get_array c ~size what get = Array.init (get_count c ~size what) (fun _ -> get c)

let get_key_value c =
  let k = get_int c "key" in
  let v = get_int c "value" in
  (k, v)

(* The one event-list decoder: an Events reply, and each chain of
   Histories and History_batch. An event takes at least 9 bytes, a
   chain 16 (key and event count). *)
let get_event c =
  let version = get_int c "event.version" in
  match get_u8 c "event.tag" with
  | 0 -> (version, Mvdict.Dict_intf.Del)
  | 1 -> (version, Mvdict.Dict_intf.Put (get_int c "event.value"))
  | t -> bad "bad event tag %d" t

let get_events c = List.init (get_count c ~size:9 "event count") (fun _ -> get_event c)

let get_chains c =
  get_array c ~size:16 "chain count" (fun c ->
      let key = get_int c "chain.key" in
      (key, get_events c))

(* Bits 0-2 are the envelope's flags (see the header comment); any
   other bit, or the replicated mark without an epoch, is malformed.
   Only sampled trace contexts travel. *)
let get_envelope c =
  match get_u8 c "envelope flags" with
  | 0 -> plain
  | flags ->
      if flags land lnot 7 <> 0 then bad "unknown envelope flags %d" flags;
      if flags land 3 = 2 then bad "replicated frame without an epoch";
      let epoch = if flags land 1 = 0 then None else Some (get_nat c "epoch") in
      let trace =
        if flags land 4 = 0 then None
        else
          let hi = get_nat c "trace.hi" in
          let lo = get_nat c "trace.lo" in
          let parent = get_nat c "trace.parent" in
          Some { Obs.Span.trace = { Obs.Traceid.hi; lo }; parent; sampled = true }
      in
      { epoch; replicated = flags land 2 <> 0; trace }

let get_request c =
  match get_u8 c "opcode" with
  | 1 -> Ping
  | 2 ->
      let key = get_int c "insert.key" in
      let value = get_int c "insert.value" in
      Insert { key; value }
  | 3 -> Remove { key = get_int c "remove.key" }
  | 4 ->
      let key = get_int c "find.key" in
      let version = get_opt_int c "find.version" in
      Find { key; version }
  | 5 -> Tag
  | 6 -> History { key = get_int c "history.key" }
  | 10 -> Trace_dump { clear = get_bool c "trace.clear" }
  | 11 -> Slowlog { n = get_nat c "slowlog count" }
  | 12 ->
      let version = get_int c "tag_at.version" in
      if version <= 0 then bad "non-positive tag_at version %d" version;
      Tag_at { version }
  | 13 ->
      let version = get_opt_int c "find_bulk.version" in
      let keys = get_array c ~size:8 "find_bulk key count" (fun c -> get_int c "key") in
      Find_bulk { keys; version }
  | 14 -> Compact { before = get_nat c "compact horizon" }
  | 18 -> Epoch_probe
  | 20 -> Registry_snap
  | 21 ->
      Insert_batch { pairs = get_array c ~size:16 "insert_batch pair count" get_key_value }
  | 22 ->
      Remove_batch
        { keys = get_array c ~size:8 "remove_batch key count" (fun c -> get_int c "key") }
  | 23 ->
      let lo = get_int c "scan.lo" in
      let hi = get_int c "scan.hi" in
      let version = get_opt_int c "scan.version" in
      let limit = get_nat c "scan limit" in
      Scan { lo; hi; version; limit }
  | 24 ->
      let lo = get_int c "migrate_pull.lo" in
      let hi = get_int c "migrate_pull.hi" in
      let since = get_nat c "migrate_pull since" in
      let limit = get_nat c "migrate_pull limit" in
      Migrate_pull { lo; hi; since; limit }
  | 25 ->
      let since = get_nat c "history_batch since" in
      History_batch { since; chains = get_chains c }
  | 26 ->
      let lo = get_int c "range_seal.lo" in
      let hi = get_int c "range_seal.hi" in
      let epoch = get_nat c "range_seal epoch" in
      let endpoint = get_string c "range_seal.endpoint" in
      Range_seal { lo; hi; epoch; endpoint }
  | 27 ->
      let lo = get_int c "range_unseal.lo" in
      let hi = get_int c "range_unseal.hi" in
      Range_unseal { lo; hi }
  | 28 -> Moves_status
  | 29 ->
      let lo = get_int c "range_drop.lo" in
      let hi = get_int c "range_drop.hi" in
      let horizon = get_nat c "range_drop horizon" in
      Range_drop { lo; hi; horizon }
  | op -> raise (Bad (Bad_opcode, Printf.sprintf "unknown request opcode %d" op))

let get_response c =
  match get_u8 c "opcode" with
  | 1 -> Pong
  | 2 -> Ack
  | 3 -> Version (get_int c "version")
  | 4 -> Value (get_opt_int c "value")
  | 5 -> Events (get_events c)
  | 6 -> Pairs (get_array c ~size:16 "pair count" get_key_value)
  | 8 ->
      let code_byte = get_u8 c "error.code" in
      let message = get_string c "error.message" in
      let code = Option.value (error_code_of_int code_byte) ~default:Server_error in
      Error { code; message }
  | 10 -> Trace_json (get_string c "trace")
  | 11 -> Slowlog_json (get_string c "slowlog")
  (* at least the presence byte per element *)
  | 12 -> Values (get_array c ~size:1 "value count" (fun c -> get_opt_int c "value"))
  | 13 -> Gc_done { dropped = get_int c "gc_done.dropped" }
  | 14 ->
      let epoch = get_int c "epoch_info.epoch" in
      let version = get_int c "epoch_info.version" in
      let horizon = get_int c "epoch_info.horizon" in
      Epoch_info { epoch; version; horizon }
  | 15 -> Snap_json (get_string c "snap")
  | 16 -> Histories (get_chains c)
  | 17 -> Moves_json (get_string c "moves")
  | op -> raise (Bad (Bad_opcode, Printf.sprintf "unknown response opcode %d" op))

(* Decode the body at [b.(off .. off+len)] with [get], which must use
   all of it: the value, or the error code and message to answer. *)
let decode get what b ~off ~len =
  match
    let c = { b; limit = off + len; pos = off } in
    let version = get_u8 c "version" in
    if version <> protocol_version then
      raise
        (Bad
           ( Bad_version,
             Printf.sprintf "protocol version %d, expected %d (%s)" version
               protocol_version what ));
    let v = get c in
    if c.pos <> c.limit then bad "%d trailing bytes" (c.limit - c.pos);
    v
  with
  | v -> Ok v
  | exception Bad (code, msg) -> Error (code, msg)

let decode_request : Bytes.t -> off:int -> len:int -> (envelope * request, _) result =
  decode
    (fun c ->
      let env = get_envelope c in
      (env, get_request c))
    "request"

let decode_response : Bytes.t -> off:int -> len:int -> (response, _) result =
  decode get_response "response"
