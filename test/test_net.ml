(* Tests for lib/net: wire codec round-trips (qcheck over every
   request/response constructor), malformed-frame handling, and
   loopback end-to-end server lifecycle — pipelined batches, error
   frames that keep the connection usable, backpressure, per-request
   timeouts, concurrent clients from two domains, reconnect with
   backoff, and graceful-shutdown drain. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

(* ---- wire codec: qcheck round-trips ---- *)

let gen_key_value = QCheck.Gen.(oneof [ int; small_signed_int; return 0; return min_int; return max_int ])

let gen_event =
  QCheck.Gen.(
    oneof
      [
        return Mvdict.Dict_intf.Del;
        map (fun v -> Mvdict.Dict_intf.Put v) gen_key_value;
      ])

let gen_chains =
  QCheck.Gen.(
    map Array.of_list
      (small_list (pair gen_key_value (small_list (pair small_nat gen_event)))))

let gen_request =
  QCheck.Gen.(
    oneof
      [
        return Net.Wire.Ping;
        map2 (fun key value -> Net.Wire.Insert { key; value }) gen_key_value gen_key_value;
        map (fun key -> Net.Wire.Remove { key }) gen_key_value;
        map2 (fun key version -> Net.Wire.Find { key; version }) gen_key_value
          (opt small_nat);
        return Net.Wire.Tag;
        map (fun key -> Net.Wire.History { key }) gen_key_value;
        map (fun clear -> Net.Wire.Trace_dump { clear }) bool;
        return Net.Wire.Registry_snap;
        map (fun n -> Net.Wire.Slowlog { n }) small_nat;
        map (fun version -> Net.Wire.Tag_at { version = version + 1 }) small_nat;
        map2
          (fun keys version -> Net.Wire.Find_bulk { keys = Array.of_list keys; version })
          (small_list gen_key_value) (opt small_nat);
        map (fun before -> Net.Wire.Compact { before }) small_nat;
        return Net.Wire.Epoch_probe;
        map
          (fun ps -> Net.Wire.Insert_batch { pairs = Array.of_list ps })
          (small_list (pair gen_key_value gen_key_value));
        map
          (fun ks -> Net.Wire.Remove_batch { keys = Array.of_list ks })
          (small_list gen_key_value);
        map
          (fun (lo, hi, version, limit) -> Net.Wire.Scan { lo; hi; version; limit })
          (quad gen_key_value gen_key_value (opt small_nat) small_nat);
        map
          (fun (lo, hi, since, limit) -> Net.Wire.Migrate_pull { lo; hi; since; limit })
          (quad gen_key_value gen_key_value small_nat small_nat);
        map2
          (fun since chains -> Net.Wire.History_batch { since; chains })
          small_nat gen_chains;
        map
          (fun (lo, hi, epoch, endpoint) -> Net.Wire.Range_seal { lo; hi; epoch; endpoint })
          (quad gen_key_value gen_key_value small_nat string_printable);
        map2 (fun lo hi -> Net.Wire.Range_unseal { lo; hi }) gen_key_value gen_key_value;
        return Net.Wire.Moves_status;
        map3
          (fun lo hi horizon -> Net.Wire.Range_drop { lo; hi; horizon })
          gen_key_value gen_key_value small_nat;
      ])

(* Every word of an envelope is non-negative. *)
let gen_word = QCheck.Gen.(oneof [ small_nat; map (fun i -> i land max_int) int ])

let gen_context =
  QCheck.Gen.(
    map3
      (fun hi lo parent ->
        Some { Obs.Span.trace = { Obs.Traceid.hi; lo }; parent; sampled = true })
      gen_word gen_word gen_word)

(* The envelopes a sender builds: none, an epoch, a replicated epoch, a
   trace context, and all three. *)
let gen_envelope =
  QCheck.Gen.(
    let epoch = map Option.some gen_word in
    oneof
      [
        return Net.Wire.plain;
        map (fun epoch -> { Net.Wire.plain with epoch }) epoch;
        map (fun epoch -> { Net.Wire.plain with epoch; replicated = true }) epoch;
        map (fun trace -> { Net.Wire.plain with trace }) gen_context;
        map2
          (fun epoch trace -> { Net.Wire.epoch; replicated = true; trace })
          epoch gen_context;
      ])

let gen_sent = QCheck.Gen.pair gen_envelope gen_request

let gen_error_code =
  QCheck.Gen.oneofl
    Net.Wire.
      [
        Bad_version;
        Bad_opcode;
        Malformed;
        Too_large;
        Timeout;
        Busy;
        Server_error;
        Bad_epoch;
        Moved;
      ]

let gen_response =
  QCheck.Gen.(
    oneof
      [
        return Net.Wire.Pong;
        return Net.Wire.Ack;
        map (fun v -> Net.Wire.Version v) small_nat;
        map (fun v -> Net.Wire.Value v) (opt gen_key_value);
        map (fun vs -> Net.Wire.Values (Array.of_list vs))
          (small_list (opt gen_key_value));
        map (fun evs -> Net.Wire.Events evs)
          (small_list (pair small_nat gen_event));
        map (fun ps -> Net.Wire.Pairs (Array.of_list ps))
          (small_list (pair gen_key_value gen_key_value));
        map (fun s -> Net.Wire.Trace_json s) string_printable;
        map (fun s -> Net.Wire.Slowlog_json s) string_printable;
        map (fun s -> Net.Wire.Snap_json s) string_printable;
        map2 (fun code message -> Net.Wire.Error { code; message }) gen_error_code
          string_printable;
        map (fun dropped -> Net.Wire.Gc_done { dropped }) small_nat;
        map3
          (fun epoch version horizon -> Net.Wire.Epoch_info { epoch; version; horizon })
          small_nat small_nat small_nat;
        map (fun chains -> Net.Wire.Histories chains) gen_chains;
        map (fun s -> Net.Wire.Moves_json s) string_printable;
      ])

let add_sent buf (env, req) = Net.Wire.add_frame buf (Net.Wire.encode_request_body env req)

(* Round-trip through the full framing path: encode into a buffer as a
   frame, scan the frame out, decode the body. *)
let roundtrip_request sent =
  let buf = Buffer.create 64 in
  add_sent buf sent;
  let bytes = Buffer.to_bytes buf in
  match Net.Wire.scan bytes ~off:0 ~len:(Bytes.length bytes) with
  | `Frame (off, len, consumed) when consumed = Bytes.length bytes ->
      Net.Wire.decode_request bytes ~off ~len = Ok sent
  | _ -> false

let roundtrip_response resp =
  let buf = Buffer.create 64 in
  Net.Wire.add_response buf resp;
  let bytes = Buffer.to_bytes buf in
  match Net.Wire.scan bytes ~off:0 ~len:(Bytes.length bytes) with
  | `Frame (off, len, consumed) when consumed = Bytes.length bytes -> (
      match Net.Wire.decode_response bytes ~off ~len with
      | Ok resp' -> Net.Wire.equal_response resp resp'
      | Error _ -> false)
  | _ -> false

let request_roundtrip_property =
  QCheck.Test.make ~name:"wire request frames round-trip" ~count:1000
    (QCheck.make gen_sent) roundtrip_request

let response_roundtrip_property =
  QCheck.Test.make ~name:"wire response frames round-trip" ~count:1000
    (QCheck.make gen_response) roundtrip_response

(* Pipelined frames concatenated in one buffer scan out one by one. *)
let pipelined_scan_property =
  QCheck.Test.make ~name:"wire pipelined frames scan in order" ~count:200
    QCheck.(make Gen.(list_size (int_range 1 20) gen_sent))
    (fun reqs ->
      let buf = Buffer.create 256 in
      List.iter (add_sent buf) reqs;
      let bytes = Buffer.to_bytes buf in
      let decoded = ref [] in
      let off = ref 0 in
      let continue = ref true in
      while !continue do
        match Net.Wire.scan bytes ~off:!off ~len:(Bytes.length bytes - !off) with
        | `Frame (boff, blen, consumed) ->
            (match Net.Wire.decode_request bytes ~off:boff ~len:blen with
            | Ok r -> decoded := r :: !decoded
            | Error _ -> continue := false);
            off := !off + consumed
        | `Partial | `Oversize _ -> continue := false
      done;
      !off = Bytes.length bytes && List.rev !decoded = reqs)

(* ---- wire codec: malformed frames ---- *)

let explain = function
  | Ok _ -> "ok"
  | Error (code, _) -> Net.Wire.error_code_name code

let scan_truncated_prefix () =
  (* 0-3 bytes can never hold the length prefix. *)
  List.iter
    (fun len ->
      match Net.Wire.scan (Bytes.make len '\x00') ~off:0 ~len with
      | `Partial -> ()
      | _ -> Alcotest.fail "truncated prefix must scan as `Partial")
    [ 0; 1; 2; 3 ]

let scan_truncated_body () =
  let buf = Buffer.create 16 in
  Net.Wire.add_request buf Net.Wire.Tag;
  let whole = Buffer.to_bytes buf in
  for len = Net.Wire.header_bytes to Bytes.length whole - 1 do
    match Net.Wire.scan whole ~off:0 ~len with
    | `Partial -> ()
    | _ -> Alcotest.fail "truncated body must scan as `Partial"
  done

let scan_oversize () =
  let b = Bytes.create 4 in
  let declared = Net.Wire.max_frame + 1 in
  Bytes.set b 0 (Char.chr ((declared lsr 24) land 0xff));
  Bytes.set b 1 (Char.chr ((declared lsr 16) land 0xff));
  Bytes.set b 2 (Char.chr ((declared lsr 8) land 0xff));
  Bytes.set b 3 (Char.chr (declared land 0xff));
  match Net.Wire.scan b ~off:0 ~len:4 with
  | `Oversize n -> check_int "declared length" declared n
  | _ -> Alcotest.fail "oversize prefix must scan as `Oversize"

let body_of_string s = (Bytes.of_string s, String.length s)

(* The good protocol version byte, as a string prefix for hand-built
   bodies — computed from Wire so these tests survive version bumps —
   and a request's prefix: the version and an empty envelope. *)
let ver = String.make 1 (Char.chr Net.Wire.protocol_version)
let req_hdr = ver ^ "\x00"

let decode_request_string s =
  explain (Net.Wire.decode_request (Bytes.of_string s) ~off:0 ~len:(String.length s))

let word v =
  let b = Bytes.create 8 in
  Bytes.set_int64_le b 0 (Int64.of_int v);
  Bytes.to_string b

let decode_bad_version () =
  List.iter
    (fun bad ->
      let b, len = body_of_string (bad ^ "\x01") in
      check_string "bad version" "bad_version"
        (explain (Net.Wire.decode_request b ~off:0 ~len));
      check_string "bad version (response)" "bad_version"
        (explain (Net.Wire.decode_response b ~off:0 ~len)))
    (* a garbage byte and the versions either side of the one accepted *)
    [
      "\x63";
      String.make 1 (Char.chr (Net.Wire.protocol_version - 1));
      String.make 1 (Char.chr (Net.Wire.protocol_version + 1));
    ]

(* Request opcodes 8, 9 and 15 (registry JSON, registry Prometheus
   text, server-relative retention) and response opcodes 7 and 9 were
   removed in version 8, request opcode 7 (one-frame snapshot) in
   version 9: they now decode like any unknown opcode. *)
let decode_bad_opcode () =
  List.iter
    (fun op ->
      check_string "bad opcode" "bad_opcode"
        (decode_request_string (req_hdr ^ String.make 1 (Char.chr op))))
    [ 0x63; 7; 8; 9; 15 ];
  List.iter
    (fun op ->
      let b, len = body_of_string (ver ^ String.make 1 (Char.chr op)) in
      check_string "bad opcode (response)" "bad_opcode"
        (explain (Net.Wire.decode_response b ~off:0 ~len)))
    [ 0x63; 7; 9 ]

let decode_truncated_payload () =
  (* insert opcode with only 4 of the 16 payload bytes *)
  let b, len = body_of_string (req_hdr ^ "\x02ABCD") in
  check_string "truncated payload" "malformed"
    (explain (Net.Wire.decode_request b ~off:0 ~len))

let decode_trailing_garbage () =
  let body = Net.Wire.encode_request_body Net.Wire.plain Net.Wire.Tag ^ "junk" in
  let b, len = body_of_string body in
  check_string "trailing bytes" "malformed"
    (explain (Net.Wire.decode_request b ~off:0 ~len))

let decode_empty_body () =
  check_string "empty body" "malformed"
    (explain (Net.Wire.decode_request (Bytes.create 0) ~off:0 ~len:0))

let decode_bad_option_tag () =
  (* find(key, version) with an option tag of 7 *)
  let b, len = body_of_string (req_hdr ^ "\x04" ^ String.make 8 '\x00' ^ "\x07") in
  check_string "bad option tag" "malformed"
    (explain (Net.Wire.decode_request b ~off:0 ~len))

let decode_bad_event_tag () =
  (* events response: count=1, version=0, event tag=9 *)
  let b, len =
    body_of_string
      (ver ^ "\x05" ^ "\x01" ^ String.make 7 '\x00' ^ String.make 8 '\x00' ^ "\x09")
  in
  check_string "bad event tag" "malformed"
    (explain (Net.Wire.decode_response b ~off:0 ~len))

let decode_pair_count_overrun () =
  (* pairs response declaring 1000 pairs with no payload behind it *)
  let b, len = body_of_string (ver ^ "\x06" ^ "\xe8\x03" ^ String.make 6 '\x00') in
  check_string "pair count overrun" "malformed"
    (explain (Net.Wire.decode_response b ~off:0 ~len))

let decode_negative_string_length () =
  (* trace response with length -1 *)
  let b, len = body_of_string (ver ^ "\x0a" ^ String.make 8 '\xff') in
  check_string "negative string length" "malformed"
    (explain (Net.Wire.decode_response b ~off:0 ~len))

let decode_bulk_count_overrun () =
  (* find_bulk request: no version, 1000 keys declared, no payload *)
  let b, len = body_of_string (req_hdr ^ "\x0d\x00" ^ "\xe8\x03" ^ String.make 6 '\x00') in
  check_string "bulk key count overrun" "malformed"
    (explain (Net.Wire.decode_request b ~off:0 ~len));
  (* values response: 1000 values declared, no payload *)
  let b, len = body_of_string (ver ^ "\x0c" ^ "\xe8\x03" ^ String.make 6 '\x00') in
  check_string "value count overrun" "malformed"
    (explain (Net.Wire.decode_response b ~off:0 ~len))

(* A negative version, and 0 too: the clock probe is [Epoch_probe]. *)
let decode_negative_tag_at () =
  let b, len = body_of_string (req_hdr ^ "\x0c" ^ String.make 8 '\xff') in
  check_string "negative tag_at version" "malformed"
    (explain (Net.Wire.decode_request b ~off:0 ~len));
  let b, len = body_of_string (req_hdr ^ "\x0c" ^ String.make 8 '\x00') in
  check_string "tag_at version 0" "malformed"
    (explain (Net.Wire.decode_request b ~off:0 ~len))

let decode_batch_count_overrun () =
  (* insert_batch declaring 1000 pairs with no payload behind the count *)
  let b, len = body_of_string (req_hdr ^ "\x15" ^ "\xe8\x03" ^ String.make 6 '\x00') in
  check_string "insert_batch pair count overrun" "malformed"
    (explain (Net.Wire.decode_request b ~off:0 ~len));
  (* remove_batch declaring 1000 keys with no payload *)
  let b, len = body_of_string (req_hdr ^ "\x16" ^ "\xe8\x03" ^ String.make 6 '\x00') in
  check_string "remove_batch key count overrun" "malformed"
    (explain (Net.Wire.decode_request b ~off:0 ~len));
  (* a count the frame could "hold" but that is negative *)
  let b, len = body_of_string (req_hdr ^ "\x15" ^ String.make 8 '\xff') in
  check_string "negative insert_batch count" "malformed"
    (explain (Net.Wire.decode_request b ~off:0 ~len))

let decode_bad_scan_limit () =
  (* scan lo=0 hi=0 version=None limit=-1 *)
  let b, len =
    body_of_string
      (req_hdr ^ "\x17" ^ String.make 16 '\x00' ^ "\x00" ^ String.make 8 '\xff')
  in
  check_string "negative scan limit" "malformed"
    (explain (Net.Wire.decode_request b ~off:0 ~len))

(* Bits 0-2 are the envelope's only flags, and the replicated mark
   (bit 1) needs an epoch (bit 0): anything else is malformed, as is a
   negative or truncated epoch word. *)
let decode_bad_envelope_flags () =
  List.iter
    (fun flags ->
      check_string
        (Printf.sprintf "envelope flags %d" flags)
        "malformed"
        (decode_request_string (ver ^ String.make 1 (Char.chr flags) ^ "\x01")))
    [ 8; 16; 32; 64; 128; 0xff; 2; 6 ];
  check_string "negative epoch" "malformed"
    (decode_request_string (ver ^ "\x01" ^ word (-1) ^ "\x01"));
  check_string "negative replicated epoch" "malformed"
    (decode_request_string (ver ^ "\x03" ^ word min_int ^ "\x01"));
  check_string "truncated epoch" "malformed" (decode_request_string (ver ^ "\x01\x05\x00"));
  check_string "epoch then ping" "ok"
    (decode_request_string (ver ^ "\x03" ^ word 7 ^ "\x01"))

(* The wrapper opcodes of version 10 (16 Stamped, 17 Replicate, 19
   Traced) are retired: they decode like any unknown opcode, with or
   without an envelope in front. *)
let decode_retired_wrapper_opcodes () =
  List.iter
    (fun op ->
      let op = String.make 1 (Char.chr op) in
      check_string "retired opcode" "bad_opcode" (decode_request_string (req_hdr ^ op));
      check_string "retired opcode, enveloped" "bad_opcode"
        (decode_request_string (ver ^ "\x07" ^ word 1 ^ word 2 ^ word 3 ^ word 4 ^ op
           ^ req_hdr ^ "\x01")))
    [ 16; 17; 19 ]

(* A trace context is three non-negative words: a negative one, or a
   context cut short, is malformed. *)
let decode_bad_traced_fields () =
  List.iter
    (fun words ->
      check_string "negative trace word" "malformed"
        (decode_request_string
           (ver ^ "\x04" ^ String.concat "" (List.map word words) ^ "\x01")))
    [ [ -1; 2; 3 ]; [ 1; min_int; 3 ]; [ 1; 2; -3 ] ];
  List.iter
    (fun n ->
      check_string "truncated trace context" "malformed"
        (decode_request_string (ver ^ "\x04" ^ String.make n '\x00')))
    [ 0; 8; 16; 23 ];
  check_string "context then ping" "ok"
    (decode_request_string (ver ^ "\x04" ^ word 1 ^ word 2 ^ word 3 ^ "\x01"))

let decode_bad_trace_clear_flag () =
  let b, len = body_of_string (req_hdr ^ "\x0a\x07") in
  check_string "bad clear flag" "malformed"
    (explain (Net.Wire.decode_request b ~off:0 ~len))

let decode_negative_gc_horizons () =
  (* compact with before = -1 *)
  let b, len = body_of_string (req_hdr ^ "\x0e" ^ String.make 8 '\xff') in
  check_string "negative compact horizon" "malformed"
    (explain (Net.Wire.decode_request b ~off:0 ~len))

(* Page bounds, pull and install horizons and seal epochs are never
   negative: each request with one word set to -1 is malformed, and
   the same request with that word at 0 decodes. *)
let decode_negative_bounds () =
  let cases =
    [
      ( "migrate_pull since",
        fun v -> Net.Wire.Migrate_pull { lo = 0; hi = 9; since = v; limit = 1 } );
      ( "migrate_pull limit",
        fun v -> Net.Wire.Migrate_pull { lo = 0; hi = 9; since = 1; limit = v } );
      ("history_batch since", fun v -> Net.Wire.History_batch { since = v; chains = [||] });
      ( "range_seal epoch",
        fun v ->
          Net.Wire.Range_seal { lo = 0; hi = 9; epoch = v; endpoint = "unix:///s" } );
      ("range_drop horizon", fun v -> Net.Wire.Range_drop { lo = 0; hi = 9; horizon = v });
    ]
  in
  List.iter
    (fun (what, req) ->
      check_string ("negative " ^ what) "malformed"
        (decode_request_string (Net.Wire.encode_request_body Net.Wire.plain (req (-1))));
      check_string ("zero " ^ what) "ok"
        (decode_request_string (Net.Wire.encode_request_body Net.Wire.plain (req 0))))
    cases

(* ---- loopback end-to-end ---- *)

module Store = Mvdict.Pskiplist.Make (Mvdict.Codec.Int_key) (Mvdict.Codec.Int_value)

let with_server ?(workers = 2) ?max_conns ?request_timeout
    ?slowlog_threshold_ns ?trace_capacity
    ?(listen = Net.Sockaddr.Tcp ("127.0.0.1", 0)) f =
  let heap = Pmem.Pheap.create_ram ~capacity:(1 lsl 24) () in
  let store = Store.create heap in
  let server =
    Net.Server.start ~store ~workers ?max_conns ?request_timeout
      ?slowlog_threshold_ns ?trace_capacity ~listen ()
  in
  match f store server (Net.Server.addr server) with
  | v ->
      Net.Server.stop server;
      v
  | exception e ->
      Net.Server.stop server;
      raise e

let e2e_full_api () =
  with_server (fun store _server addr ->
      let client = Net.Client.connect addr in
      Net.Client.ping client;
      for k = 1 to 20 do
        Net.Client.insert client ~key:k ~value:(100 + k)
      done;
      let v1 = Net.Client.tag client in
      check_int "first tagged version" 1 v1;
      Net.Client.insert client ~key:7 ~value:777;
      Net.Client.remove client ~key:8;
      let v2 = Net.Client.tag client in
      check_int "second tagged version" 2 v2;
      (* reads, current and historical *)
      check_bool "find current updated" true (Net.Client.find client 7 = Some 777);
      check_bool "find current removed" true (Net.Client.find client 8 = None);
      check_bool "find v1" true (Net.Client.find client ~version:v1 7 = Some 107);
      check_bool "find v1 not yet removed" true
        (Net.Client.find client ~version:v1 8 = Some 108);
      (* history *)
      (match Net.Client.history client 7 with
      | [ (1, Mvdict.Dict_intf.Put 107); (2, Mvdict.Dict_intf.Put 777) ] -> ()
      | evs -> Alcotest.failf "unexpected history (%d events)" (List.length evs));
      (* snapshots *)
      let snap1 = Net.Client.snapshot client ~version:v1 () in
      check_int "snapshot v1 size" 20 (Array.length snap1);
      let snap2 = Net.Client.snapshot client () in
      check_int "snapshot v2 size" 19 (Array.length snap2);
      check_bool "snapshot sorted" true
        (Array.for_all2
           (fun (k, _) (k', _) -> k <= k')
           (Array.sub snap2 0 (Array.length snap2 - 1))
           (Array.sub snap2 1 (Array.length snap2 - 1)));
      (* the server really is backed by the same store *)
      check_int "server store key count" 20 (Store.key_count store);
      Net.Client.close client)

(* A client snapshot pages Scan over [min_int, max_int) and finds
   max_int, which a half-open range cannot name, on its own: the keys at
   both ends read back as the local snapshot has them, now and at an
   older version. *)
let e2e_snapshot_key_extremes () =
  with_server (fun store _server addr ->
      let client = Net.Client.connect addr in
      List.iteri
        (fun i key -> Net.Client.insert client ~key ~value:(i + 1))
        [ min_int; -1; 0; max_int ];
      let v1 = Net.Client.tag client in
      Net.Client.insert client ~key:max_int ~value:5;
      Net.Client.remove client ~key:min_int;
      check_bool "current snapshot" true
        (Net.Client.snapshot client () = Store.extract_snapshot store ());
      check_bool "snapshot at an older version" true
        (Net.Client.snapshot client ~version:v1 ()
        = Store.extract_snapshot store ~version:v1 ());
      check_int "both ends held at the older version" 4
        (Array.length (Net.Client.snapshot client ~version:v1 ()));
      Net.Client.close client)

let e2e_pipelined_batch () =
  with_server (fun _store _server addr ->
      let client = Net.Client.connect addr in
      let reqs =
        List.concat_map
          (fun k ->
            [ Net.Wire.Insert { key = k; value = k * 2 }; Net.Wire.Find { key = k; version = None } ])
          (List.init 50 (fun i -> i))
      in
      let resps = Net.Client.call_batch client (reqs @ [ Net.Wire.Tag ]) in
      check_int "response count" 101 (List.length resps);
      List.iteri
        (fun i resp ->
          if i = 100 then
            check_bool "tag response" true (resp = Net.Wire.Version 1)
          else if i mod 2 = 0 then check_bool "ack in order" true (resp = Net.Wire.Ack)
          else
            let k = i / 2 in
            check_bool "pipelined find sees its insert" true
              (resp = Net.Wire.Value (Some (k * 2))))
        resps;
      Net.Client.close client)

(* The one registry export, rendered the way `mvkv client stats` and
   `mvkv metrics` render it: JSON through Obs.Snap.to_json, Prometheus
   text through Obs.Snap.prometheus. *)
(* Drives one insert and one find, then fetches the server's registry
   snapshot; JSON and Prometheus text are rendered client-side from it. *)
let fetch_registry_snap addr =
  let client = Net.Client.connect addr in
  Net.Client.insert client ~key:1 ~value:1;
  ignore (Net.Client.find client 1);
  let snap =
    match
      Result.bind
        (Obs.Json.of_string (Net.Client.registry_snap client))
        Obs.Snap.of_json
    with
    | Ok snap -> snap
    | Error e -> Alcotest.failf "registry snapshot does not parse: %s" e
  in
  Net.Client.close client;
  snap

let e2e_stats_json () =
  with_server (fun _store _server addr ->
      let snap = fetch_registry_snap addr in
      match Obs.Json.of_string (Obs.Json.to_string (Obs.Snap.to_json snap)) with
      | Error e -> Alcotest.failf "stats JSON does not parse: %s" e
      | Ok json -> (
          match Option.bind (Obs.Json.member "counters" json) (Obs.Json.member "net.requests") with
          | Some (Obs.Json.Int n) -> check_bool "net.requests counted" true (n >= 2)
          | _ -> Alcotest.fail "stats lacks counters/net.requests"))

let e2e_metrics_prometheus () =
  with_server (fun _store _server addr ->
      let snap = fetch_registry_snap addr in
      let text = Obs.Snap.prometheus [ ([], snap) ] in
      let lines = String.split_on_char '\n' text |> List.filter (fun l -> l <> "") in
      let mentions prefix =
        List.exists
          (fun l ->
            String.length l >= String.length prefix
            && String.sub l 0 (String.length prefix) = prefix)
          lines
      in
      (* Dotted registry names arrive sanitized, with preambles. *)
      check_bool "# TYPE present" true (mentions "# TYPE ");
      check_bool "insert op counter series" true (mentions "net_insert_ops ");
      check_bool "latency histogram buckets" true (mentions "net_insert_ns_bucket{le=");
      check_bool "histogram count series" true (mentions "net_insert_ns_count ");
      let series_name l =
        let stop =
          match (String.index_opt l '{', String.index_opt l ' ') with
          | Some b, Some sp -> min b sp
          | Some b, None -> b
          | None, Some sp -> sp
          | None, None -> String.length l
        in
        String.sub l 0 stop
      in
      check_bool "no raw dotted names in series" true
        (List.filter (fun l -> l.[0] <> '#') lines
        |> List.for_all (fun l -> not (String.contains (series_name l) '.'))))

let trace_event_names text =
  match Obs.Json.of_string text with
  | Error e -> Alcotest.failf "trace JSON does not parse: %s" e
  | Ok json -> (
      match Obs.Json.member "traceEvents" json with
      | Some (Obs.Json.List evs) ->
          List.map
            (fun e ->
              match Obs.Json.member "name" e with
              | Some (Obs.Json.String n) -> n
              | _ -> Alcotest.fail "trace event without a name")
            evs
      | _ -> Alcotest.fail "no traceEvents list")

let e2e_trace_dump () =
  (* The server installs its ring as the global span sink, so spans
     emitted anywhere in the process (recovery, store internals, the
     server's own dispatch) land in it; emit a controlled batch from
     here and read it back over the wire. *)
  with_server ~trace_capacity:4 (fun _store _server addr ->
      Fun.protect ~finally:(fun () -> Obs.Span.set_sink None) @@ fun () ->
      let client = Net.Client.connect addr in
      for i = 1 to 6 do
        Obs.Span.with_ (Printf.sprintf "test.span.%d" i) (fun () -> ())
      done;
      let names = trace_event_names (Net.Client.trace_dump client) in
      check_bool "ring overwrote the oldest two spans" true
        (names = [ "test.span.3"; "test.span.4"; "test.span.5"; "test.span.6" ]);
      (* Trace_dump clears the ring: a second dump is empty. *)
      check_bool "second dump empty" true (trace_event_names (Net.Client.trace_dump client) = []);
      (* ...and the ring keeps recording after the clear. *)
      Obs.Span.with_ "test.span.after" (fun () -> ());
      check_bool "ring live after clear" true
        (trace_event_names (Net.Client.trace_dump client) = [ "test.span.after" ]);
      Net.Client.close client)

(* clear=false is a peek: two collectors polling the same ring must
   both see the window; a clearing dump still drains it. *)
let e2e_trace_dump_peek () =
  with_server ~trace_capacity:8 (fun _store _server addr ->
      Fun.protect ~finally:(fun () -> Obs.Span.set_sink None) @@ fun () ->
      let client = Net.Client.connect addr in
      Obs.Span.with_ "test.peek" (fun () -> ());
      let names = trace_event_names (Net.Client.trace_dump ~clear:false client) in
      check_bool "peek sees the span" true (List.mem "test.peek" names);
      let names = trace_event_names (Net.Client.trace_dump ~clear:false client) in
      check_bool "second peek still sees it" true (List.mem "test.peek" names);
      let names = trace_event_names (Net.Client.trace_dump client) in
      check_bool "clearing dump sees it last" true (List.mem "test.peek" names);
      check_bool "ring drained" true
        (trace_event_names (Net.Client.trace_dump client) = []);
      Net.Client.close client)

let e2e_registry_snap () =
  with_server (fun _store _server addr ->
      let client = Net.Client.connect addr in
      Net.Client.insert client ~key:1 ~value:1;
      let text = Net.Client.registry_snap client in
      (match Obs.Json.of_string text with
      | Error e -> Alcotest.failf "snapshot JSON does not parse: %s" e
      | Ok json -> (
          match Obs.Snap.of_json json with
          | Error e -> Alcotest.failf "snapshot does not deserialise: %s" e
          | Ok snap ->
              check_bool "net.requests counted" true
                (Obs.Snap.counter snap "net.requests" >= 1);
              check_bool "insert latency histogram present" true
                (Obs.Snap.find_hist snap "net.insert.ns" <> None)));
      Net.Client.close client)

(* A client inside a sampled context sends it in each frame's envelope,
   and the server runs the request under it: it records a srv.* span
   whose trace id and parent are the client's. An unsampled context
   does not travel. *)
let e2e_traced_request_spans () =
  with_server ~trace_capacity:64 (fun _store _server addr ->
      Fun.protect ~finally:(fun () -> Obs.Span.set_sink None) @@ fun () ->
      let client = Net.Client.connect addr in
      let trace = Obs.Traceid.generate () in
      let parent = Obs.Traceid.new_span_id () in
      let under sampled f =
        Obs.Span.with_context (Some { Obs.Span.trace; parent; sampled }) f
      in
      let insert () = Net.Client.call client (Net.Wire.Insert { key = 5; value = 50 }) in
      (match under true insert with
      | Net.Wire.Ack -> ()
      | r -> Alcotest.failf "traced insert answered %a" Net.Wire.pp_response r);
      let json = Net.Client.trace_dump client in
      (match Obs.Json.of_string json with
      | Error e -> Alcotest.failf "trace JSON does not parse: %s" e
      | Ok doc -> (
          match Obs.Json.member "traceEvents" doc with
          | Some (Obs.Json.List evs) ->
              let srv =
                List.filter
                  (fun e -> Obs.Json.member "name" e = Some (Obs.Json.String "srv.insert"))
                  evs
              in
              check_int "one srv.insert span" 1 (List.length srv);
              let args = Option.get (Obs.Json.member "args" (List.hd srv)) in
              check_bool "span carries the trace id" true
                (Obs.Json.member "trace" args
                = Some (Obs.Json.String (Obs.Traceid.to_hex trace)));
              check_bool "span parents the client span" true
                (Obs.Json.member "parent" args = Some (Obs.Json.Int parent))
          | _ -> Alcotest.fail "no traceEvents list"));
      (* unsampled contexts must not record anything *)
      under false (fun () -> Net.Client.ping client);
      check_bool "unsampled request recorded no span" true
        (trace_event_names (Net.Client.trace_dump client) = []);
      Net.Client.close client)

(* The envelope's epoch fences and its replicated mark labels: a frame
   stamped below the epoch the server adopted is refused with
   Bad_epoch, and a replicated insert is applied and counted under
   net.replicate, not net.insert. *)
let e2e_envelope_epoch_and_replicated () =
  with_server (fun store _server addr ->
      let client = Net.Client.connect ~epoch:2 addr in
      let stale = Net.Client.connect ~epoch:1 addr in
      Net.Client.ping client;
      (match Net.Client.ping stale with
      | exception Net.Client.Remote_error (Net.Wire.Bad_epoch, _) -> ()
      | () -> Alcotest.fail "a frame stamped with a stale epoch was served");
      let ops name =
        let text = Net.Client.registry_snap client in
        match Result.bind (Obs.Json.of_string text) Obs.Snap.of_json with
        | Ok snap -> Obs.Snap.counter snap name
        | Error e -> Alcotest.failf "registry snapshot does not parse: %s" e
      in
      let replicated = ops "net.replicate.ops" and inserts = ops "net.insert.ops" in
      ignore (Net.Client.replicate client ~epoch:2 (Net.Wire.Insert { key = 9; value = 90 }));
      check_bool "the replicated insert is applied" true (Store.find store 9 = Some 90);
      check_int "counted under net.replicate" (replicated + 1) (ops "net.replicate.ops");
      check_int "not under net.insert" inserts (ops "net.insert.ops");
      Net.Client.close stale;
      Net.Client.close client)

let slowlog_entries text =
  match Obs.Json.of_string text with
  | Error e -> Alcotest.failf "slowlog JSON does not parse: %s" e
  | Ok (Obs.Json.List entries) ->
      List.map
        (fun e ->
          match (Obs.Json.member "op" e, Obs.Json.member "key" e) with
          | Some (Obs.Json.String op), Some (Obs.Json.Int k) -> (op, Some k)
          | Some (Obs.Json.String op), Some Obs.Json.Null -> (op, None)
          | _ -> Alcotest.fail "slowlog entry missing op/key")
        entries
  | Ok _ -> Alcotest.fail "slowlog payload is not a list"

let e2e_slowlog () =
  (* threshold 1ns: every request is "slow" and must be captured. *)
  with_server ~slowlog_threshold_ns:1 (fun _store _server addr ->
      let client = Net.Client.connect addr in
      Net.Client.insert client ~key:42 ~value:1;
      ignore (Net.Client.find client 42);
      (match slowlog_entries (Net.Client.slowlog client ~n:2) with
      | [ ("find", Some 42); ("insert", Some 42) ] -> ()
      | entries ->
          Alcotest.failf "unexpected slowlog entries: %s"
            (String.concat ";"
               (List.map
                  (fun (op, k) ->
                    op ^ match k with Some k -> "/" ^ string_of_int k | None -> "")
                  entries)));
      (* n caps the result *)
      check_int "n=1 returns one entry" 1
        (List.length (slowlog_entries (Net.Client.slowlog client ~n:1)));
      Net.Client.close client);
  (* an unreachable threshold filters everything out *)
  with_server ~slowlog_threshold_ns:max_int (fun _store _server addr ->
      let client = Net.Client.connect addr in
      Net.Client.insert client ~key:1 ~value:1;
      check_bool "nothing below threshold" true
        (slowlog_entries (Net.Client.slowlog client ~n:10) = []);
      Net.Client.close client)

(* A raw socket speaking deliberately broken frames: the server must
   answer each with an error frame and keep serving the connection. *)
type raw = { fd : Unix.file_descr; buf : Bytes.t; mutable fill : int; mutable start : int }

let raw_connect addr = { fd = Net.Sockaddr.connect addr; buf = Bytes.create (1 lsl 20); fill = 0; start = 0 }

let raw_write raw s = Net.Sockaddr.write_string raw.fd s
let raw_close raw = Unix.close raw.fd

(* Responses may arrive many frames per [read]; keep the leftover. *)
let raw_read_response raw =
  let rec go () =
    match Net.Wire.scan raw.buf ~off:raw.start ~len:(raw.fill - raw.start) with
    | `Frame (off, len, consumed) -> (
        raw.start <- raw.start + consumed;
        match Net.Wire.decode_response raw.buf ~off ~len with
        | Ok r -> r
        | Error (c, m) -> Alcotest.failf "undecodable response: %s %s" (Net.Wire.error_code_name c) m)
    | `Oversize _ -> Alcotest.fail "oversize response"
    | `Partial -> (
        if raw.start > 0 then begin
          Bytes.blit raw.buf raw.start raw.buf 0 (raw.fill - raw.start);
          raw.fill <- raw.fill - raw.start;
          raw.start <- 0
        end;
        match Unix.read raw.fd raw.buf raw.fill (Bytes.length raw.buf - raw.fill) with
        | 0 -> raise End_of_file
        | n ->
            raw.fill <- raw.fill + n;
            go ())
  in
  go ()

let frame_of_body body =
  let buf = Buffer.create 64 in
  Net.Wire.add_frame buf body;
  Buffer.contents buf

let expect_error what code resp =
  match resp with
  | Net.Wire.Error { code = c; _ } when c = code -> ()
  | resp ->
      Alcotest.failf "%s: expected %s error, got %a" what
        (Net.Wire.error_code_name code) Net.Wire.pp_response resp

let e2e_error_frames_keep_connection () =
  with_server (fun _store _server addr ->
      let fd = raw_connect addr in
      (* 1. wrong protocol version *)
      raw_write fd (frame_of_body "\x63\x01");
      expect_error "bad version" Net.Wire.Bad_version (raw_read_response fd);
      (* 2. unknown opcode *)
      raw_write fd (frame_of_body (req_hdr ^ "\x63"));
      expect_error "bad opcode" Net.Wire.Bad_opcode (raw_read_response fd);
      (* 3. garbled payload *)
      raw_write fd (frame_of_body (req_hdr ^ "\x02AB"));
      expect_error "malformed" Net.Wire.Malformed (raw_read_response fd);
      (* 4. the opcodes removed in versions 8, 9 and 11 *)
      List.iter
        (fun op ->
          raw_write fd (frame_of_body (req_hdr ^ String.make 1 (Char.chr op)));
          expect_error "removed opcode" Net.Wire.Bad_opcode (raw_read_response fd))
        [ 7; 8; 9; 15; 16; 17; 19 ];
      (* ... and the connection is still perfectly usable *)
      raw_write fd
        (frame_of_body (Net.Wire.encode_request_body Net.Wire.plain Net.Wire.Ping));
      check_bool "ping after errors" true (raw_read_response fd = Net.Wire.Pong);
      (* 5. an oversize declared length is fatal: error frame, then EOF *)
      let b = Bytes.create 4 in
      let declared = Net.Wire.max_frame + 1 in
      Bytes.set b 0 (Char.chr ((declared lsr 24) land 0xff));
      Bytes.set b 1 (Char.chr ((declared lsr 16) land 0xff));
      Bytes.set b 2 (Char.chr ((declared lsr 8) land 0xff));
      Bytes.set b 3 (Char.chr (declared land 0xff));
      raw_write fd (Bytes.to_string b);
      expect_error "oversize" Net.Wire.Too_large (raw_read_response fd);
      check_bool "connection closed after oversize" true
        (match raw_read_response fd with
        | exception End_of_file -> true
        | _ -> false);
      raw_close fd)

(* Regression for the protocol version bump: a frame carrying the
   previous version (a stale client) is answered with a Bad_version
   error frame — not a closed connection, not a hang — and the very
   next well-formed request on the same connection succeeds. *)
let e2e_stale_version_keeps_connection () =
  with_server (fun _store _server addr ->
      let fd = raw_connect addr in
      let stale = String.make 1 (Char.chr (Net.Wire.protocol_version - 1)) in
      (* a version-7 Tag request, bit-exact *)
      raw_write fd (frame_of_body (stale ^ "\x05"));
      expect_error "stale version" Net.Wire.Bad_version (raw_read_response fd);
      raw_write fd
        (frame_of_body (Net.Wire.encode_request_body Net.Wire.plain Net.Wire.Ping));
      check_bool "connection usable after stale-version frame" true
        (raw_read_response fd = Net.Wire.Pong);
      raw_close fd)

let e2e_batch_and_scan () =
  with_server (fun _store _server addr ->
      let client = Net.Client.connect addr in
      Net.Client.insert_batch client (List.init 50 (fun k -> (k, k * 10)));
      let v1 = Net.Client.tag client in
      Net.Client.insert_batch client [ (7, 700); (90, 900) ];
      Net.Client.remove_batch client [ 3; 4; 404 ];
      check_bool "batched insert visible" true (Net.Client.find client 7 = Some 700);
      check_bool "batched remove hides" true (Net.Client.find client 3 = None);
      check_bool "old version intact" true
        (Net.Client.find client ~version:v1 7 = Some 70);
      (* ranged scan pages through [lo, hi) in ascending key order;
         limit=4 forces several pages *)
      let acc = ref [] in
      let n =
        Net.Client.scan client ~lo:0 ~hi:10 ~limit:4 (fun k v ->
            acc := (k, v) :: !acc)
      in
      let expect =
        [ (0, 0); (1, 10); (2, 20); (5, 50); (6, 60); (7, 700); (8, 80); (9, 90) ]
      in
      check_int "scan streams the live range" (List.length expect) n;
      check_bool "scan pairs ascending" true (List.rev !acc = expect);
      (* pinned to v1, the batch-removed keys are still visible *)
      let acc = ref [] in
      ignore
        (Net.Client.scan client ~version:v1 ~lo:0 ~hi:5 (fun k v ->
             acc := (k, v) :: !acc));
      check_bool "pinned scan sees pre-batch state" true
        (List.rev !acc = [ (0, 0); (1, 10); (2, 20); (3, 30); (4, 40) ]);
      Net.Client.close client)

let e2e_tag_at_find_bulk () =
  with_server (fun store _server addr ->
      let client = Net.Client.connect addr in
      for k = 0 to 9 do
        Net.Client.insert client ~key:k ~value:(k * 2)
      done;
      check_int "probe before any tag" 0 (Net.Client.clock client);
      (* jump the clock straight to 3, as a cluster-wide tag would *)
      check_int "tag_at 3" 3 (Net.Client.tag_at client ~version:3);
      check_int "store clock followed" 3 (Store.current_version store);
      (* a lower target never rolls the clock back *)
      check_int "tag_at 2 answers current" 3 (Net.Client.tag_at client ~version:2);
      (* bulk lookup, hits and misses interleaved, answers in key order *)
      let keys = [| 7; 99; 0; 3; 42 |] in
      let vs = Net.Client.find_bulk client keys in
      check_bool "bulk values in input order" true
        (vs = [| Some 14; None; Some 0; Some 6; None |]);
      let vs0 = Net.Client.find_bulk client ~version:3 keys in
      check_bool "bulk at a version" true (vs0 = vs);
      check_bool "empty bulk" true (Net.Client.find_bulk client [||] = [||]);
      Net.Client.close client;
      (* a far target is one step, not one tag per version between *)
      let far = Net.Client.connect ~retries:0 ~timeout_ms:2_000 addr in
      let target = Store.current_version store + 1_000_000_000 in
      check_int "tag_at 10^9 versions ahead, within 2 s" target
        (Net.Client.tag_at far ~version:target);
      Net.Client.close far)

let e2e_compact_retention () =
  with_server (fun store _server addr ->
      let client = Net.Client.connect addr in
      (* Three generations of 10 keys, one version per overwrite wave. *)
      for round = 1 to 3 do
        for k = 0 to 9 do
          Net.Client.insert client ~key:k ~value:((round * 100) + k)
        done;
        ignore (Net.Client.tag client)
      done;
      (* Explicit horizon: everything below the current version. *)
      let v = Store.current_version store in
      let dropped = Net.Client.compact client ~before:v in
      check_int "two superseded waves dropped" 20 dropped;
      check_bool "current values intact" true (Net.Client.find client 5 = Some 305);
      (* A retention window is client-side, as `mvkv client compact
         --retain` does it: probe the clock, compact below clock - keep.
         With the full history already gone, keep=0 drops nothing more. *)
      let retain keep =
        let before = max 0 (Net.Client.clock client - keep) in
        (before, if before > 0 then Net.Client.compact client ~before else 0)
      in
      let before, dropped = retain 0 in
      check_int "retention horizon is the clock" v before;
      check_int "nothing left to drop" 0 dropped;
      (* Two more waves then retention keep=1: the horizon lands on the
         second-to-last wave, so the older floor entries go while the
         last [keep] versions stay readable. *)
      for round = 4 to 5 do
        for k = 0 to 9 do
          Net.Client.insert client ~key:k ~value:((round * 100) + k)
        done;
        ignore (Net.Client.tag client)
      done;
      let before, dropped = retain 1 in
      check_int "horizon = clock - keep" 4 before;
      check_int "superseded floors dropped" 10 dropped;
      check_bool "store serves the last wave" true
        (Net.Client.find client 5 = Some 505);
      check_bool "retained version still readable" true
        (Net.Client.find client ~version:4 5 = Some 405);
      Net.Client.close client)

let e2e_request_timeout () =
  with_server ~request_timeout:0.2 (fun _store _server addr ->
      let fd = raw_connect addr in
      (* header promising 10 body bytes, then only 2 — the server must
         give up after request_timeout, answer Timeout and close. *)
      raw_write fd "\x00\x00\x00\x0a\x01\x05";
      expect_error "stalled frame" Net.Wire.Timeout (raw_read_response fd);
      check_bool "connection closed after timeout" true
        (match raw_read_response fd with
        | exception End_of_file -> true
        | _ -> false);
      raw_close fd)

let e2e_backpressure_busy () =
  with_server ~workers:1 ~max_conns:1 (fun _store _server addr ->
      let c1 = Net.Client.connect addr in
      Net.Client.ping c1;
      (* second concurrent connection is over the limit *)
      let fd = raw_connect addr in
      expect_error "over limit" Net.Wire.Busy (raw_read_response fd);
      raw_close fd;
      Net.Client.close c1;
      (* once the first connection drains, new clients are welcome *)
      let rec retry n =
        let c2 = Net.Client.connect addr in
        match Net.Client.ping c2 with
        | () -> Net.Client.close c2
        | exception _ when n > 0 ->
            Net.Client.close c2;
            Unix.sleepf 0.05;
            retry (n - 1)
      in
      retry 40)

let e2e_concurrent_clients () =
  with_server ~workers:3 (fun store _server addr ->
      let per_domain = 300 in
      let domains =
        Array.init 2 (fun d ->
            Domain.spawn (fun () ->
                let client = Net.Client.connect addr in
                let base = d * per_domain in
                List.init per_domain (fun i -> base + i)
                |> List.iter (fun k -> Net.Client.insert client ~key:k ~value:(k * 10));
                (* batched reads of our own writes *)
                let resps =
                  Net.Client.call_batch client
                    (List.init per_domain (fun i ->
                         Net.Wire.Find { key = base + i; version = None }))
                in
                Net.Client.close client;
                List.for_all2
                  (fun i resp -> resp = Net.Wire.Value (Some ((base + i) * 10)))
                  (List.init per_domain (fun i -> i))
                  resps))
      in
      Array.iter (fun d -> check_bool "domain saw its writes" true (Domain.join d)) domains;
      check_int "all keys present" (2 * per_domain) (Store.key_count store))

(* Regression: a clock probe ([Epoch_probe]) drains every connection's
   write flag. Probes used to raise their own flag first, so two
   probes dispatched by two workers each waited on the other's flag
   forever. *)
let e2e_concurrent_probes () =
  with_server ~workers:2 (fun _store _server addr ->
      let per_domain = 100_000 in
      let probes = Atomic.make 0 and finished = Atomic.make 0 in
      let domains =
        Array.init 2 (fun _ ->
            Domain.spawn (fun () ->
                Fun.protect
                  ~finally:(fun () -> Atomic.incr finished)
                  (fun () ->
                    let client = Net.Client.connect addr in
                    for _ = 1 to per_domain do
                      ignore (Net.Client.clock client);
                      Atomic.incr probes
                    done;
                    Net.Client.close client)))
      in
      Watchdog.await_progress ~what:"concurrent clock probes" ~stall_s:5.0
        ~progress:(fun () -> Atomic.get probes)
        ~finished:(fun () -> Atomic.get finished = 2);
      Array.iter Domain.join domains;
      check_int "every probe answered" (2 * per_domain) (Atomic.get probes))

let e2e_graceful_drain () =
  with_server (fun _store server addr ->
      let fd = raw_connect addr in
      (* make sure the connection is attached to a worker *)
      raw_write fd
        (frame_of_body (Net.Wire.encode_request_body Net.Wire.plain Net.Wire.Ping));
      check_bool "warmup ping" true (raw_read_response fd = Net.Wire.Pong);
      (* pipeline a burst, then stop: every queued request must still
         get its response before the server closes the connection *)
      let n = 100 in
      let buf = Buffer.create 4096 in
      for k = 1 to n do
        Net.Wire.add_request buf (Net.Wire.Insert { key = k; value = k })
      done;
      raw_write fd (Buffer.contents buf);
      Net.Server.stop server;
      for _ = 1 to n do
        check_bool "drained ack" true (raw_read_response fd = Net.Wire.Ack)
      done;
      check_bool "closed after drain" true
        (match raw_read_response fd with
        | exception End_of_file -> true
        | _ -> false);
      raw_close fd;
      (* and the listener is really gone *)
      check_bool "listener closed" true
        (match Net.Client.connect ~retries:0 addr with
        | exception _ -> true
        | c ->
            Net.Client.close c;
            false))

(* One worker owns every connection it accepts and serves whichever is
   ready: three persistent clients of a one-worker server are all
   answered, round after round. The client timeouts turn a stranded
   connection into a failure instead of a hang. *)
let e2e_clients_share_a_worker () =
  with_server ~workers:1 (fun _store _server addr ->
      let clients =
        Array.init 3 (fun _ -> Net.Client.connect ~retries:0 ~timeout_ms:2000 addr)
      in
      Fun.protect
        ~finally:(fun () -> Array.iter Net.Client.close clients)
        (fun () ->
          for round = 1 to 100 do
            Array.iteri
              (fun i client ->
                let key = (3 * round) + i in
                Net.Client.insert client ~key ~value:(key * 10);
                check_bool "find answered" true
                  (Net.Client.find client key = Some (key * 10));
                ignore (Net.Client.tag client))
              clients
          done))

(* A peer that pipelines large replies and never reads them fills the
   socket buffers; the reply write then times out after
   [request_timeout] and the server drops that peer, so the other
   connections of its one worker are served again. *)
let e2e_stalled_reader_dropped () =
  let path = Printf.sprintf "test_net_stalled_%d.sock" (Unix.getpid ()) in
  with_server ~workers:1 ~request_timeout:0.5
    ~listen:(Net.Sockaddr.Unix_sock path) (fun store _server addr ->
      Store.insert_batch store (List.init 65_536 (fun k -> (k, k)));
      let raw = raw_connect addr in
      Unix.setsockopt_float raw.fd Unix.SO_RCVTIMEO 5.0;
      Fun.protect
        ~finally:(fun () -> raw_close raw)
        (fun () ->
          (* each reply is a whole-range page of 65,536 pairs, ~1 MiB *)
          let buf = Buffer.create 1024 in
          for _ = 1 to 16 do
            Net.Wire.add_request buf
              (Net.Wire.Scan { lo = 0; hi = max_int; version = None; limit = 0 })
          done;
          raw_write raw (Buffer.contents buf);
          let client = Net.Client.connect ~retries:0 ~timeout_ms:5000 addr in
          Fun.protect
            ~finally:(fun () -> Net.Client.close client)
            (fun () ->
              check_bool "find answered beside a stalled reader" true
                (Net.Client.find client 7 = Some 7));
          (* what the server wrote before it gave up, then EOF or reset *)
          let chunk = Bytes.create 65_536 in
          let rec drain () =
            match Unix.read raw.fd chunk 0 (Bytes.length chunk) with
            | 0 -> true
            | _ -> drain ()
            | exception Unix.Unix_error (Unix.ECONNRESET, _, _) -> true
          in
          check_bool "stalled peer dropped" true (drain ())))

(* [Unix.select] cannot watch a descriptor at or past FD_SETSIZE
   (1,024): the server refuses such a connection with [Busy] instead of
   handing it to a worker, and keeps serving. *)
let e2e_fd_past_setsize_busy () =
  with_server (fun _store _server addr ->
      let held = ref [] in
      let release () =
        List.iter Unix.close !held;
        held := []
      in
      Fun.protect ~finally:release (fun () ->
          (match
             for _ = 1 to 1_100 do
               held := Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 :: !held
             done
           with
          | () -> ()
          | exception Unix.Unix_error ((Unix.EMFILE | Unix.ENFILE), _, _) ->
              release ();
              Alcotest.skip ());
          let raw = raw_connect addr in
          Unix.setsockopt_float raw.fd Unix.SO_RCVTIMEO 5.0;
          Fun.protect
            ~finally:(fun () -> raw_close raw)
            (fun () ->
              expect_error "descriptor past FD_SETSIZE" Net.Wire.Busy
                (raw_read_response raw)));
      let client = Net.Client.connect ~retries:0 ~timeout_ms:5000 addr in
      Fun.protect
        ~finally:(fun () -> Net.Client.close client)
        (fun () -> Net.Client.ping client))

let e2e_unix_socket_reconnect () =
  let path = "test_net_reconnect.sock" in
  let listen = Net.Sockaddr.Unix_sock path in
  let heap = Pmem.Pheap.create_ram ~capacity:(1 lsl 22) () in
  let store = Store.create heap in
  let server = ref (Net.Server.start ~store ~workers:1 ~listen ()) in
  let client = Net.Client.connect ~retries:8 listen in
  Net.Client.insert client ~key:1 ~value:11;
  (* bounce the server on the same path; the client's next call must
     reconnect with backoff and succeed *)
  Net.Server.stop !server;
  server := Net.Server.start ~store ~workers:1 ~listen ();
  check_bool "find after reconnect" true (Net.Client.find client 1 = Some 11);
  Net.Client.close client;
  Net.Server.stop !server

(* A find that needs no retry allocates what it sends and reads, and
   no retry schedule: that is made on a first failure, since its jitter
   state, seeded from the OS, cost nearly as much as the rest of the
   call. Counted in this domain; the server's workers run in their own. *)
let e2e_find_allocation () =
  with_server (fun _store _server addr ->
      let client = Net.Client.connect addr in
      Net.Client.insert client ~key:1 ~value:11;
      let n = 2_000 in
      let w0 = Gc.minor_words () in
      for _ = 1 to n do
        ignore (Net.Client.find client 1)
      done;
      let per_find = (Gc.minor_words () -. w0) /. float_of_int n in
      Net.Client.close client;
      check_bool
        (Printf.sprintf "%.1f minor words per find, at most 100" per_find)
        true (per_find <= 100.))

let () =
  Watchdog.run "net"
    [
      ( "wire-roundtrip",
        [
          QCheck_alcotest.to_alcotest request_roundtrip_property;
          QCheck_alcotest.to_alcotest response_roundtrip_property;
          QCheck_alcotest.to_alcotest pipelined_scan_property;
        ] );
      ( "wire-malformed",
        [
          Alcotest.test_case "truncated length prefix" `Quick scan_truncated_prefix;
          Alcotest.test_case "truncated body" `Quick scan_truncated_body;
          Alcotest.test_case "oversize declared length" `Quick scan_oversize;
          Alcotest.test_case "bad protocol version" `Quick decode_bad_version;
          Alcotest.test_case "unknown opcode" `Quick decode_bad_opcode;
          Alcotest.test_case "truncated payload" `Quick decode_truncated_payload;
          Alcotest.test_case "trailing bytes" `Quick decode_trailing_garbage;
          Alcotest.test_case "empty body" `Quick decode_empty_body;
          Alcotest.test_case "bad option tag" `Quick decode_bad_option_tag;
          Alcotest.test_case "bad event tag" `Quick decode_bad_event_tag;
          Alcotest.test_case "pair count overrun" `Quick decode_pair_count_overrun;
          Alcotest.test_case "negative string length" `Quick decode_negative_string_length;
          Alcotest.test_case "bulk count overrun" `Quick decode_bulk_count_overrun;
          Alcotest.test_case "negative tag_at version" `Quick decode_negative_tag_at;
          Alcotest.test_case "batch count overruns" `Quick decode_batch_count_overrun;
          Alcotest.test_case "bad scan limit" `Quick decode_bad_scan_limit;
          Alcotest.test_case "negative gc horizons" `Quick decode_negative_gc_horizons;
          Alcotest.test_case "negative page bounds and stamps" `Quick
            decode_negative_bounds;
          Alcotest.test_case "bad envelope flags" `Quick decode_bad_envelope_flags;
          Alcotest.test_case "retired wrapper opcodes" `Quick
            decode_retired_wrapper_opcodes;
          Alcotest.test_case "bad traced fields" `Quick decode_bad_traced_fields;
          Alcotest.test_case "bad trace clear flag" `Quick decode_bad_trace_clear_flag;
        ] );
      ( "server-e2e",
        [
          Alcotest.test_case "full dict API over loopback" `Quick e2e_full_api;
          Alcotest.test_case "snapshot of min_int, -1, 0, max_int = local" `Quick
            e2e_snapshot_key_extremes;
          Alcotest.test_case "pipelined batch" `Quick e2e_pipelined_batch;
          Alcotest.test_case "stats returns registry JSON" `Quick e2e_stats_json;
          Alcotest.test_case "metrics returns Prometheus text" `Quick
            e2e_metrics_prometheus;
          Alcotest.test_case "trace dump returns and clears the span ring" `Quick
            e2e_trace_dump;
          Alcotest.test_case "trace dump clear=false is a peek" `Quick
            e2e_trace_dump_peek;
          Alcotest.test_case "registry snapshot opcode" `Quick e2e_registry_snap;
          Alcotest.test_case "traced requests record remote child spans" `Quick
            e2e_traced_request_spans;
          Alcotest.test_case "envelope epoch fences, replicated mark labels" `Quick
            e2e_envelope_epoch_and_replicated;
          Alcotest.test_case "slowlog captures and filters by threshold" `Quick
            e2e_slowlog;
          Alcotest.test_case "error frames keep the connection usable" `Quick
            e2e_error_frames_keep_connection;
          Alcotest.test_case "stale protocol version keeps the connection usable"
            `Quick e2e_stale_version_keeps_connection;
          Alcotest.test_case "tag_at and find_bulk opcodes" `Quick e2e_tag_at_find_bulk;
          Alcotest.test_case "batch opcodes and ranged scan" `Quick e2e_batch_and_scan;
          Alcotest.test_case "compact and retention opcodes" `Quick
            e2e_compact_retention;
          Alcotest.test_case "per-request timeout" `Quick e2e_request_timeout;
          Alcotest.test_case "busy backpressure" `Quick e2e_backpressure_busy;
          Alcotest.test_case "concurrent clients (2 domains)" `Quick
            e2e_concurrent_clients;
          Alcotest.test_case "concurrent clock probes (2 domains) never deadlock" `Quick
            e2e_concurrent_probes;
          Alcotest.test_case "graceful shutdown drains in-flight requests" `Quick
            e2e_graceful_drain;
          Alcotest.test_case "unix socket + reconnect with backoff" `Quick
            e2e_unix_socket_reconnect;
          Alcotest.test_case "a find with no retry allocates at most 100 words" `Quick
            e2e_find_allocation;
          Alcotest.test_case "three persistent clients share one worker" `Quick
            e2e_clients_share_a_worker;
          Alcotest.test_case "a peer that stops reading is dropped" `Quick
            e2e_stalled_reader_dropped;
          Alcotest.test_case "a socket past FD_SETSIZE gets Busy" `Quick
            e2e_fd_past_setsize_busy;
        ] );
    ]
