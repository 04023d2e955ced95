(* Wire protocol for serving the multi-version dict API over a socket.

   Framing: every message is [4-byte big-endian body length][body].
   The body starts with a protocol version byte and an opcode byte,
   followed by an opcode-specific payload. Integers travel as 8-byte
   little-endian words (values may be negative, so no varint games);
   options are a presence byte; sequences are a count followed by the
   elements. The frame length is bounded by {!max_frame} so a corrupt
   or hostile length prefix cannot make a peer allocate unbounded
   memory.

   Errors are first-class response frames carrying a stable numeric
   code plus a human-readable message, so a server can reject one bad
   request (unknown opcode, wrong protocol version, garbled payload)
   and keep the connection alive: the frame boundary is still known
   from the length prefix. *)

(* The only accepted version: a frame carrying any other version byte
   is answered with a Bad_version error frame. Request opcodes 8, 9 and
   15 are retired and decode as unknown: the registry travels only as a
   Registry_snap that clients render, and a retention window is a
   Compact horizon the caller computes from a probed clock. *)
let protocol_version = 8

(* Largest accepted body, in bytes. Generous enough for a snapshot of
   ~500k pairs in one frame; small enough that a garbage length prefix
   is rejected instead of honoured. *)
let max_frame = 8 * 1024 * 1024

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
  | Snapshot of { version : int option }
  | Trace_dump of { clear : bool }
      (** Dump the span ring as Chrome trace JSON. [clear] also drains
          the ring — a second concurrent collector passes [false] so
          polling from two terminals doesn't lose spans. *)
  | Slowlog of { n : int }  (** newest [n] slow-op log entries *)
  | Tag_at of { version : int }
      (** Advance the store's version clock to exactly [version] and
          answer the resulting current version. [version] 0 never
          advances anything, so it doubles as a version probe. A
          cluster router broadcasts the same [Tag_at] to every shard
          so all of them cut the {e same} version number. *)
  | Find_bulk of { keys : int array; version : int option }
      (** Look every key up in one frame; answered with {!Values} in
          input order. *)
  | Compact of { before : int }
      (** Garbage-collect history entries no snapshot at or after
          [before] observes; answered with {!Gc_done}. A retention
          window of the last [keep] versions is [before = clock - keep],
          with the clock probed by [Tag_at 0] first. *)
  | Stamped of { epoch : int; req : request }
      (** Epoch-fenced wrapper: if [epoch] is older than the newest
          epoch the server has seen, the whole request is rejected with
          a {!Bad_epoch} error frame; a newer [epoch] is adopted. The
          cluster router wraps every request it routes so a stale
          topology map is detected instead of silently served. Wrappers
          do not nest. *)
  | Replicate of { epoch : int; req : request }
      (** Primary-to-backup forwarding of an already-applied mutation.
          Epoch-fenced like {!Stamped}, but the inner request is applied
          without re-triggering replication — the chain is one hop
          deep. Wrappers do not nest. *)
  | Epoch_probe
      (** Answered with {!Epoch_info}: the server's current epoch and
          version clock — the probe behind failover decisions and
          [mvkv cluster client status]. *)
  | Traced of {
      trace_hi : int;
      trace_lo : int;
      parent_span : int;
      sampled : bool;
      req : request;
    }
      (** Trace-context wrapper: the 128-bit trace id (two 62-bit
          halves), the sender's span id to parent under, and whether
          the trace is sampled. Composes {e outside} the epoch
          wrappers: [Traced] may contain [Stamped]/[Replicate] (or a
          plain request), never another [Traced]. A server dispatches
          the inner request under the inherited context, so its spans
          join the sender's trace. *)
  | Registry_snap
      (** Answered with {!Snap_json}: the node's full registry as a
          mergeable snapshot (raw histogram buckets, window sums). The
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

type response =
  | Pong
  | Ack  (** insert/remove applied *)
  | Version of int  (** tag result *)
  | Value of int option  (** find result *)
  | Values of int option array  (** find_bulk result, in request key order *)
  | Events of (int * int Mvdict.Dict_intf.event) list  (** history result *)
  | Pairs of (int * int) array  (** snapshot result *)
  | Trace_json of string  (** Chrome trace_event JSON text *)
  | Slowlog_json of string  (** slow-op log entries as JSON text *)
  | Gc_done of { dropped : int }  (** compact result: entries dropped *)
  | Epoch_info of { epoch : int; version : int }
      (** Epoch_probe result: the server's epoch and version clock. *)
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
  | Snapshot _ -> 7
  | Trace_dump _ -> 10
  | Slowlog _ -> 11
  | Tag_at _ -> 12
  | Find_bulk _ -> 13
  | Compact _ -> 14
  | Stamped _ -> 16
  | Replicate _ -> 17
  | Epoch_probe -> 18
  | Traced _ -> 19
  | Registry_snap -> 20
  | Insert_batch _ -> 21
  | Remove_batch _ -> 22
  | Scan _ -> 23
  | Migrate_pull _ -> 24
  | History_batch _ -> 25
  | Range_seal _ -> 26
  | Range_unseal _ -> 27
  | Moves_status -> 28

(* Stable per-op labels indexed by request opcode: metric names and
   the serve log key on them. "" marks an unused opcode or a wrapper
   (Stamped/Traced), whose label is its inner request's. *)
let opcode_labels =
  [|
    ""; "ping"; "insert"; "remove"; "find"; "tag"; "history"; "snapshot"; "";
    ""; "trace"; "slowlog"; "tag_at"; "find_bulk"; "compact"; ""; "";
    "replicate"; "epoch_probe"; ""; "registry_snap"; "insert_batch";
    "remove_batch"; "scan"; "migrate_pull"; "history_batch"; "range_seal";
    "range_unseal"; "moves_status";
  |]

let rec request_label = function
  | Stamped { req; _ } | Traced { req; _ } -> request_label req
  | r -> opcode_labels.(request_opcode r)

let request_labels = List.filter (fun l -> l <> "") (Array.to_list opcode_labels)

(* The key a request touches, when it names one — slow-op log entries
   carry it so a hot key is identifiable from the log alone. *)
let rec request_key = function
  | Insert { key; _ } | Remove { key } | Find { key; _ } | History { key } ->
      Some key
  | Stamped { req; _ } | Replicate { req; _ } | Traced { req; _ } ->
      request_key req
  | Ping | Tag | Snapshot _ | Trace_dump _ | Slowlog _ | Tag_at _ | Find_bulk _
  | Compact _ | Epoch_probe | Registry_snap | Insert_batch _ | Remove_batch _
  | Scan _ | Migrate_pull _ | History_batch _ | Range_seal _ | Range_unseal _
  | Moves_status ->
      None

(* Requests a primary must forward to its backups for the replica set
   to converge; everything else is read-only or server-local.
   History_batch is one: the new owner's backups need the migrated
   chains too. Range_seal/Range_unseal are deliberately NOT — the gate
   lives on the primary (backups never take client writes), and a seal
   must not recurse into the replication path it is draining. *)
let rec is_mutation = function
  | Insert _ | Remove _ | Tag | Tag_at _ | Compact _ | Insert_batch _
  | Remove_batch _ | History_batch _ ->
      true
  | Stamped { req; _ } | Replicate { req; _ } | Traced { req; _ } ->
      is_mutation req
  | Ping | Find _ | Find_bulk _ | History _ | Snapshot _ | Trace_dump _
  | Slowlog _ | Epoch_probe | Registry_snap | Scan _ | Migrate_pull _
  | Range_seal _ | Range_unseal _ | Moves_status ->
      false

(* ---- equality / printing (tests, error messages) ---- *)

let equal_request (a : request) (b : request) = a = b

let equal_response a b =
  match (a, b) with
  | Pairs x, Pairs y -> x = y
  | a, b -> a = b

let pp_response fmt = function
  | Epoch_info { epoch; version } ->
      Format.fprintf fmt "epoch %d version %d" epoch version
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

let put_int buf v =
  let b = Bytes.create 8 in
  Bytes.set_int64_le b 0 (Int64.of_int v);
  Buffer.add_bytes buf b

let put_opt_int buf = function
  | None -> put_u8 buf 0
  | Some v ->
      put_u8 buf 1;
      put_int buf v

let put_string buf s =
  put_int buf (String.length s);
  Buffer.add_string buf s

(* Chains travel as: count, then per key the key, the event count, and
   each event as version + tag byte (0 Del / 1 Put + value) — the same
   event encoding the Events response uses. *)
let put_chains buf chains =
  put_int buf (Array.length chains);
  Array.iter
    (fun (key, events) ->
      put_int buf key;
      put_int buf (List.length events);
      List.iter
        (fun (version, event) ->
          put_int buf version;
          match event with
          | Mvdict.Dict_intf.Del -> put_u8 buf 0
          | Mvdict.Dict_intf.Put v ->
              put_u8 buf 1;
              put_int buf v)
        events)
    chains

(* A wrapper's payload is its epoch followed by the complete inner
   request body (version byte, opcode, payload) running to the end of
   the frame — no inner length prefix needed, and the inner body decodes
   with the same cursor machinery. *)
let rec encode_request_body (r : request) =
  let buf = Buffer.create 32 in
  put_u8 buf protocol_version;
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
  | Snapshot { version } -> put_opt_int buf version
  | Slowlog { n } -> put_int buf n
  | Tag_at { version } -> put_int buf version
  | Find_bulk { keys; version } ->
      put_opt_int buf version;
      put_int buf (Array.length keys);
      Array.iter (put_int buf) keys
  | Compact { before } -> put_int buf before
  | Stamped { epoch; req } | Replicate { epoch; req } ->
      put_int buf epoch;
      Buffer.add_string buf (encode_request_body req)
  | Traced { trace_hi; trace_lo; parent_span; sampled; req } ->
      put_int buf trace_hi;
      put_int buf trace_lo;
      put_int buf parent_span;
      put_u8 buf (if sampled then 1 else 0);
      Buffer.add_string buf (encode_request_body req)
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
  | Events evs ->
      put_int buf (List.length evs);
      List.iter
        (fun (version, event) ->
          put_int buf version;
          match event with
          | Mvdict.Dict_intf.Del -> put_u8 buf 0
          | Mvdict.Dict_intf.Put v ->
              put_u8 buf 1;
              put_int buf v)
        evs
  | Pairs pairs ->
      put_int buf (Array.length pairs);
      Array.iter
        (fun (k, v) ->
          put_int buf k;
          put_int buf v)
        pairs
  | Trace_json s | Slowlog_json s | Snap_json s -> put_string buf s
  | Gc_done { dropped } -> put_int buf dropped
  | Epoch_info { epoch; version } ->
      put_int buf epoch;
      put_int buf version
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

let add_request buf r = add_frame buf (encode_request_body r)
let add_response buf r = add_frame buf (encode_response_body r)

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

type cursor = { b : Bytes.t; limit : int; mutable pos : int }

let need c n what =
  if c.limit - c.pos < n then
    raise (Bad (Malformed, Printf.sprintf "truncated payload reading %s" what))

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

let get_opt_int c what =
  match get_u8 c what with
  | 0 -> None
  | 1 -> Some (get_int c what)
  | t -> raise (Bad (Malformed, Printf.sprintf "bad option tag %d in %s" t what))

let get_string c what =
  let n = get_int c what in
  if n < 0 || n > c.limit - c.pos then
    raise (Bad (Malformed, Printf.sprintf "bad string length %d in %s" n what));
  let s = Bytes.sub_string c.b c.pos n in
  c.pos <- c.pos + n;
  s

let get_count c what =
  let n = get_int c what in
  if n < 0 || n > max_frame then
    raise (Bad (Malformed, Printf.sprintf "bad count %d in %s" n what));
  n

let finish c (v : 'a) : ('a, error_code * string) result =
  if c.pos <> c.limit then
    Result.Error (Malformed, Printf.sprintf "%d trailing bytes" (c.limit - c.pos))
  else Result.Ok v

(* Chains decoder shared by the Migrate_pull response and the
   History_batch request. Guards: a chain needs at least 16 bytes
   (key + event count), an event at least 9 (version + tag byte) —
   counts the payload cannot hold are rejected before allocation. *)
let get_chains c what =
  let n = get_count c (what ^ ".count") in
  if n > (c.limit - c.pos) / 16 then
    raise (Bad (Malformed, Printf.sprintf "chain count %d overruns frame" n));
  Array.init n (fun _ ->
      let key = get_int c (what ^ ".key") in
      let m = get_count c (what ^ ".events") in
      if m > (c.limit - c.pos) / 9 then
        raise (Bad (Malformed, Printf.sprintf "event count %d overruns frame" m));
      let events = ref [] in
      for _ = 1 to m do
        let version = get_int c (what ^ ".version") in
        let event =
          match get_u8 c (what ^ ".tag") with
          | 0 -> Mvdict.Dict_intf.Del
          | 1 -> Mvdict.Dict_intf.Put (get_int c (what ^ ".value"))
          | t -> raise (Bad (Malformed, Printf.sprintf "bad event tag %d in %s" t what))
        in
        events := (version, event) :: !events
      done;
      (key, List.rev !events))

let open_cursor b ~off ~len what =
  let c = { b; limit = off + len; pos = off } in
  let version = get_u8 c "version" in
  if version <> protocol_version then
    raise
      (Bad
         ( Bad_version,
           Printf.sprintf "protocol version %d, expected %d (%s)" version
             protocol_version what ));
  c

(* [allow_wrap]/[allow_trace] bound wrapper nesting: Traced is
   outermost and may contain one epoch wrapper (Stamped/Replicate),
   which may contain only a plain request — so a hostile frame of
   stacked wrappers cannot drive the decoder arbitrarily deep. *)
let rec decode_request_at ~allow_wrap ~allow_trace b ~off ~len :
    (request, error_code * string) result =
  match
    let c = open_cursor b ~off ~len "request" in
    match get_u8 c "opcode" with
    | 1 -> finish c Ping
    | 2 ->
        let key = get_int c "insert.key" in
        let value = get_int c "insert.value" in
        finish c (Insert { key; value })
    | 3 -> finish c (Remove { key = get_int c "remove.key" })
    | 4 ->
        let key = get_int c "find.key" in
        let version = get_opt_int c "find.version" in
        finish c (Find { key; version })
    | 5 -> finish c Tag
    | 6 -> finish c (History { key = get_int c "history.key" })
    | 7 -> finish c (Snapshot { version = get_opt_int c "snapshot.version" })
    | 10 ->
        let clear =
          match get_u8 c "trace.clear" with
          | 0 -> false
          | 1 -> true
          | t -> raise (Bad (Malformed, Printf.sprintf "bad trace clear flag %d" t))
        in
        finish c (Trace_dump { clear })
    | 11 ->
        let n = get_int c "slowlog.n" in
        if n < 0 then
          raise (Bad (Malformed, Printf.sprintf "negative slowlog count %d" n));
        finish c (Slowlog { n })
    | 12 ->
        let version = get_int c "tag_at.version" in
        if version < 0 then
          raise (Bad (Malformed, Printf.sprintf "negative tag_at version %d" version));
        finish c (Tag_at { version })
    | 13 ->
        let version = get_opt_int c "find_bulk.version" in
        let n = get_count c "find_bulk.count" in
        (* 8 bytes per key: reject counts the payload cannot hold. *)
        if n > (c.limit - c.pos) / 8 then
          raise (Bad (Malformed, Printf.sprintf "key count %d overruns frame" n));
        finish c
          (Find_bulk { keys = Array.init n (fun _ -> get_int c "find_bulk.key"); version })
    | 14 ->
        let before = get_int c "compact.before" in
        if before < 0 then
          raise (Bad (Malformed, Printf.sprintf "negative compact horizon %d" before));
        finish c (Compact { before })
    | (16 | 17) as op ->
        let what = if op = 16 then "stamped" else "replicate" in
        if not allow_wrap then
          raise (Bad (Malformed, Printf.sprintf "nested %s wrapper" what));
        let epoch = get_int c (what ^ ".epoch") in
        if epoch < 0 then
          raise (Bad (Malformed, Printf.sprintf "negative %s epoch %d" what epoch));
        let inner_off = c.pos and inner_len = c.limit - c.pos in
        (match
           decode_request_at ~allow_wrap:false ~allow_trace:false b
             ~off:inner_off ~len:inner_len
         with
        | Result.Error (code, msg) ->
            Result.Error (code, Printf.sprintf "%s payload: %s" what msg)
        | Result.Ok req ->
            Result.Ok
              (if op = 16 then Stamped { epoch; req } else Replicate { epoch; req }))
    | 18 -> finish c Epoch_probe
    | 19 ->
        if not allow_trace then
          raise (Bad (Malformed, "nested traced wrapper"));
        let trace_hi = get_int c "traced.trace_hi" in
        let trace_lo = get_int c "traced.trace_lo" in
        let parent_span = get_int c "traced.parent_span" in
        if trace_hi < 0 || trace_lo < 0 || parent_span < 0 then
          raise (Bad (Malformed, "negative traced context field"));
        let sampled =
          match get_u8 c "traced.sampled" with
          | 0 -> false
          | 1 -> true
          | t -> raise (Bad (Malformed, Printf.sprintf "bad sampled flag %d" t))
        in
        let inner_off = c.pos and inner_len = c.limit - c.pos in
        (match
           decode_request_at ~allow_wrap ~allow_trace:false b ~off:inner_off
             ~len:inner_len
         with
        | Result.Error (code, msg) ->
            Result.Error (code, Printf.sprintf "traced payload: %s" msg)
        | Result.Ok req ->
            Result.Ok (Traced { trace_hi; trace_lo; parent_span; sampled; req }))
    | 20 -> finish c Registry_snap
    | 21 ->
        let n = get_count c "insert_batch.count" in
        (* 16 bytes per pair: reject counts the payload cannot hold
           before allocating for them. *)
        if n > (c.limit - c.pos) / 16 then
          raise (Bad (Malformed, Printf.sprintf "pair count %d overruns frame" n));
        finish c
          (Insert_batch
             {
               pairs =
                 Array.init n (fun _ ->
                     let k = get_int c "insert_batch.key" in
                     let v = get_int c "insert_batch.value" in
                     (k, v));
             })
    | 22 ->
        let n = get_count c "remove_batch.count" in
        (* 8 bytes per key: reject counts the payload cannot hold. *)
        if n > (c.limit - c.pos) / 8 then
          raise (Bad (Malformed, Printf.sprintf "key count %d overruns frame" n));
        finish c
          (Remove_batch
             { keys = Array.init n (fun _ -> get_int c "remove_batch.key") })
    | 23 ->
        let lo = get_int c "scan.lo" in
        let hi = get_int c "scan.hi" in
        let version = get_opt_int c "scan.version" in
        let limit = get_int c "scan.limit" in
        if limit < 0 then
          raise (Bad (Malformed, Printf.sprintf "negative scan limit %d" limit));
        finish c (Scan { lo; hi; version; limit })
    | 24 ->
        let lo = get_int c "migrate_pull.lo" in
        let hi = get_int c "migrate_pull.hi" in
        let since = get_int c "migrate_pull.since" in
        let limit = get_int c "migrate_pull.limit" in
        if since < 0 then
          raise (Bad (Malformed, Printf.sprintf "negative migrate_pull since %d" since));
        if limit < 0 then
          raise (Bad (Malformed, Printf.sprintf "negative migrate_pull limit %d" limit));
        finish c (Migrate_pull { lo; hi; since; limit })
    | 25 ->
        let since = get_int c "history_batch.since" in
        if since < 0 then
          raise (Bad (Malformed, Printf.sprintf "negative history_batch since %d" since));
        let chains = get_chains c "history_batch" in
        finish c (History_batch { since; chains })
    | 26 ->
        let lo = get_int c "range_seal.lo" in
        let hi = get_int c "range_seal.hi" in
        let epoch = get_int c "range_seal.epoch" in
        if epoch < 0 then
          raise (Bad (Malformed, Printf.sprintf "negative range_seal epoch %d" epoch));
        let endpoint = get_string c "range_seal.endpoint" in
        finish c (Range_seal { lo; hi; epoch; endpoint })
    | 27 ->
        let lo = get_int c "range_unseal.lo" in
        let hi = get_int c "range_unseal.hi" in
        finish c (Range_unseal { lo; hi })
    | 28 -> finish c Moves_status
    | op -> Result.Error (Bad_opcode, Printf.sprintf "unknown request opcode %d" op)
  with
  | r -> r
  | exception Bad (code, msg) -> Result.Error (code, msg)

let decode_request b ~off ~len =
  decode_request_at ~allow_wrap:true ~allow_trace:true b ~off ~len

let decode_response b ~off ~len : (response, error_code * string) result =
  match
    let c = open_cursor b ~off ~len "response" in
    match get_u8 c "opcode" with
    | 1 -> finish c Pong
    | 2 -> finish c Ack
    | 3 -> finish c (Version (get_int c "version"))
    | 4 -> finish c (Value (get_opt_int c "value"))
    | 5 ->
        let n = get_count c "events.count" in
        let evs = ref [] in
        for _ = 1 to n do
          let version = get_int c "events.version" in
          let event =
            match get_u8 c "events.tag" with
            | 0 -> Mvdict.Dict_intf.Del
            | 1 -> Mvdict.Dict_intf.Put (get_int c "events.value")
            | t -> raise (Bad (Malformed, Printf.sprintf "bad event tag %d" t))
          in
          evs := (version, event) :: !evs
        done;
        finish c (Events (List.rev !evs))
    | 6 ->
        let n = get_count c "pairs.count" in
        (* 16 bytes per pair: reject counts the payload cannot hold. *)
        if n > (c.limit - c.pos) / 16 then
          raise (Bad (Malformed, Printf.sprintf "pair count %d overruns frame" n));
        finish c
          (Pairs
             (Array.init n (fun _ ->
                  let k = get_int c "pairs.key" in
                  let v = get_int c "pairs.value" in
                  (k, v))))
    | 8 ->
        let code_byte = get_u8 c "error.code" in
        let message = get_string c "error.message" in
        let code =
          match error_code_of_int code_byte with
          | Some c -> c
          | None -> Server_error
        in
        finish c (Error { code; message })
    | 10 -> finish c (Trace_json (get_string c "trace"))
    | 11 -> finish c (Slowlog_json (get_string c "slowlog"))
    | 12 ->
        let n = get_count c "values.count" in
        (* At least the presence byte per element. *)
        if n > c.limit - c.pos then
          raise (Bad (Malformed, Printf.sprintf "value count %d overruns frame" n));
        finish c (Values (Array.init n (fun _ -> get_opt_int c "values.value")))
    | 13 -> finish c (Gc_done { dropped = get_int c "gc_done.dropped" })
    | 14 ->
        let epoch = get_int c "epoch_info.epoch" in
        let version = get_int c "epoch_info.version" in
        finish c (Epoch_info { epoch; version })
    | 15 -> finish c (Snap_json (get_string c "snap"))
    | 16 -> finish c (Histories (get_chains c "histories"))
    | 17 -> finish c (Moves_json (get_string c "moves"))
    | op -> Result.Error (Bad_opcode, Printf.sprintf "unknown response opcode %d" op)
  with
  | r -> r
  | exception Bad (code, msg) -> Result.Error (code, msg)
