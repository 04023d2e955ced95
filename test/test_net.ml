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

let gen_plain_request =
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
        map (fun version -> Net.Wire.Snapshot { version }) (opt small_nat);
        map (fun clear -> Net.Wire.Trace_dump { clear }) bool;
        return Net.Wire.Registry_snap;
        map (fun n -> Net.Wire.Slowlog { n }) small_nat;
        map (fun version -> Net.Wire.Tag_at { version }) small_nat;
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
      ])

(* The epoch wrappers may enclose any plain (non-wrapper) request —
   nesting is rejected by the codec. *)
let gen_wrapped_request =
  QCheck.Gen.(
    oneof
      [
        gen_plain_request;
        map2
          (fun epoch req -> Net.Wire.Stamped { epoch; req })
          small_nat gen_plain_request;
        map2
          (fun epoch req -> Net.Wire.Replicate { epoch; req })
          small_nat gen_plain_request;
      ])

(* The full request space adds the outermost trace-context wrapper,
   which may enclose a plain or epoch-wrapped request. *)
let gen_request =
  QCheck.Gen.(
    oneof
      [
        gen_wrapped_request;
        map2
          (fun (trace_hi, trace_lo, parent_span, sampled) req ->
            Net.Wire.Traced { trace_hi; trace_lo; parent_span; sampled; req })
          (quad (int_bound 0xffff) (int_bound 0xffff) (int_bound 0xffff) bool)
          gen_wrapped_request;
      ])

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
      ]

let gen_event =
  QCheck.Gen.(
    oneof
      [
        return Mvdict.Dict_intf.Del;
        map (fun v -> Mvdict.Dict_intf.Put v) gen_key_value;
      ])

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
        map2 (fun epoch version -> Net.Wire.Epoch_info { epoch; version }) small_nat
          small_nat;
      ])

(* Round-trip through the full framing path: encode into a buffer as a
   frame, scan the frame out, decode the body. *)
let roundtrip_request req =
  let buf = Buffer.create 64 in
  Net.Wire.add_request buf req;
  let bytes = Buffer.to_bytes buf in
  match Net.Wire.scan bytes ~off:0 ~len:(Bytes.length bytes) with
  | `Frame (off, len, consumed) when consumed = Bytes.length bytes -> (
      match Net.Wire.decode_request bytes ~off ~len with
      | Ok req' -> Net.Wire.equal_request req req'
      | Error _ -> false)
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
    (QCheck.make gen_request) roundtrip_request

let response_roundtrip_property =
  QCheck.Test.make ~name:"wire response frames round-trip" ~count:1000
    (QCheck.make gen_response) roundtrip_response

(* Pipelined frames concatenated in one buffer scan out one by one. *)
let pipelined_scan_property =
  QCheck.Test.make ~name:"wire pipelined frames scan in order" ~count:200
    QCheck.(make Gen.(list_size (int_range 1 20) gen_request))
    (fun reqs ->
      let buf = Buffer.create 256 in
      List.iter (Net.Wire.add_request buf) reqs;
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
   bodies — computed from Wire so these tests survive version bumps. *)
let ver = String.make 1 (Char.chr Net.Wire.protocol_version)

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
   removed in version 8: they now decode like any unknown opcode. *)
let decode_bad_opcode () =
  List.iter
    (fun op ->
      let b, len = body_of_string (ver ^ String.make 1 (Char.chr op)) in
      check_string "bad opcode" "bad_opcode"
        (explain (Net.Wire.decode_request b ~off:0 ~len)))
    [ 0x63; 8; 9; 15 ];
  List.iter
    (fun op ->
      let b, len = body_of_string (ver ^ String.make 1 (Char.chr op)) in
      check_string "bad opcode (response)" "bad_opcode"
        (explain (Net.Wire.decode_response b ~off:0 ~len)))
    [ 0x63; 7; 9 ]

let decode_truncated_payload () =
  (* insert opcode with only 4 of the 16 payload bytes *)
  let b, len = body_of_string (ver ^ "\x02ABCD") in
  check_string "truncated payload" "malformed"
    (explain (Net.Wire.decode_request b ~off:0 ~len))

let decode_trailing_garbage () =
  let body = Net.Wire.encode_request_body Net.Wire.Tag ^ "junk" in
  let b, len = body_of_string body in
  check_string "trailing bytes" "malformed"
    (explain (Net.Wire.decode_request b ~off:0 ~len))

let decode_empty_body () =
  check_string "empty body" "malformed"
    (explain (Net.Wire.decode_request (Bytes.create 0) ~off:0 ~len:0))

let decode_bad_option_tag () =
  (* find(key, version) with an option tag of 7 *)
  let b, len = body_of_string (ver ^ "\x04" ^ String.make 8 '\x00' ^ "\x07") in
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
  let b, len = body_of_string (ver ^ "\x0d\x00" ^ "\xe8\x03" ^ String.make 6 '\x00') in
  check_string "bulk key count overrun" "malformed"
    (explain (Net.Wire.decode_request b ~off:0 ~len));
  (* values response: 1000 values declared, no payload *)
  let b, len = body_of_string (ver ^ "\x0c" ^ "\xe8\x03" ^ String.make 6 '\x00') in
  check_string "value count overrun" "malformed"
    (explain (Net.Wire.decode_response b ~off:0 ~len))

let decode_negative_tag_at () =
  let b, len = body_of_string (ver ^ "\x0c" ^ String.make 8 '\xff') in
  check_string "negative tag_at version" "malformed"
    (explain (Net.Wire.decode_request b ~off:0 ~len))

let decode_batch_count_overrun () =
  (* insert_batch declaring 1000 pairs with no payload behind the count *)
  let b, len = body_of_string (ver ^ "\x15" ^ "\xe8\x03" ^ String.make 6 '\x00') in
  check_string "insert_batch pair count overrun" "malformed"
    (explain (Net.Wire.decode_request b ~off:0 ~len));
  (* remove_batch declaring 1000 keys with no payload *)
  let b, len = body_of_string (ver ^ "\x16" ^ "\xe8\x03" ^ String.make 6 '\x00') in
  check_string "remove_batch key count overrun" "malformed"
    (explain (Net.Wire.decode_request b ~off:0 ~len));
  (* a count the frame could "hold" but that is negative *)
  let b, len = body_of_string (ver ^ "\x15" ^ String.make 8 '\xff') in
  check_string "negative insert_batch count" "malformed"
    (explain (Net.Wire.decode_request b ~off:0 ~len))

let decode_bad_scan_limit () =
  (* scan lo=0 hi=0 version=None limit=-1 *)
  let b, len =
    body_of_string
      (ver ^ "\x17" ^ String.make 16 '\x00' ^ "\x00" ^ String.make 8 '\xff')
  in
  check_string "negative scan limit" "malformed"
    (explain (Net.Wire.decode_request b ~off:0 ~len))

let decode_nested_epoch_wrapper () =
  (* wrapper nesting is bounded at one level: every combination of
     Stamped/Replicate inside Stamped/Replicate must decode as
     malformed, never recurse *)
  List.iter
    (fun (outer : Net.Wire.request -> Net.Wire.request) ->
      List.iter
        (fun (inner : Net.Wire.request -> Net.Wire.request) ->
          let body =
            Net.Wire.encode_request_body (outer (inner Net.Wire.Ping))
          in
          let b, len = body_of_string body in
          check_string "nested wrapper" "malformed"
            (explain (Net.Wire.decode_request b ~off:0 ~len)))
        [
          (fun r -> Net.Wire.Stamped { epoch = 1; req = r });
          (fun r -> Net.Wire.Replicate { epoch = 1; req = r });
        ])
    [
      (fun r -> Net.Wire.Stamped { epoch = 2; req = r });
      (fun r -> Net.Wire.Replicate { epoch = 2; req = r });
    ]

let decode_nested_traced_wrapper () =
  (* Traced is strictly outermost: a Traced inside Traced, Stamped or
     Replicate must decode as malformed. (Traced over Stamped/Replicate
     is the legal composition and is covered by the round-trip
     property.) *)
  let traced r =
    Net.Wire.Traced
      { trace_hi = 1; trace_lo = 2; parent_span = 3; sampled = true; req = r }
  in
  List.iter
    (fun (outer : Net.Wire.request -> Net.Wire.request) ->
      let body = Net.Wire.encode_request_body (outer (traced Net.Wire.Ping)) in
      let b, len = body_of_string body in
      check_string "nested traced wrapper" "malformed"
        (explain (Net.Wire.decode_request b ~off:0 ~len)))
    [
      traced;
      (fun r -> Net.Wire.Stamped { epoch = 1; req = r });
      (fun r -> Net.Wire.Replicate { epoch = 1; req = r });
    ]

let decode_bad_traced_fields () =
  (* opcode 19 with a sampled flag that is neither 0 nor 1 *)
  let b, len =
    body_of_string (ver ^ "\x13" ^ String.make 24 '\x00' ^ "\x07" ^ ver ^ "\x01")
  in
  check_string "bad sampled flag" "malformed"
    (explain (Net.Wire.decode_request b ~off:0 ~len));
  (* negative trace id half *)
  let b, len =
    body_of_string
      (ver ^ "\x13" ^ String.make 8 '\xff' ^ String.make 16 '\x00' ^ "\x01" ^ ver
     ^ "\x01")
  in
  check_string "negative trace field" "malformed"
    (explain (Net.Wire.decode_request b ~off:0 ~len))

let decode_bad_trace_clear_flag () =
  let b, len = body_of_string (ver ^ "\x0a\x07") in
  check_string "bad clear flag" "malformed"
    (explain (Net.Wire.decode_request b ~off:0 ~len))

let decode_negative_gc_horizons () =
  (* compact with before = -1 *)
  let b, len = body_of_string (ver ^ "\x0e" ^ String.make 8 '\xff') in
  check_string "negative compact horizon" "malformed"
    (explain (Net.Wire.decode_request b ~off:0 ~len))

(* ---- loopback end-to-end ---- *)

module Store = Mvdict.Pskiplist.Make (Mvdict.Codec.Int_key) (Mvdict.Codec.Int_value)

let with_server ?(workers = 2) ?batch ?max_conns ?request_timeout
    ?slowlog_threshold_ns ?trace_capacity
    ?(listen = Net.Sockaddr.Tcp ("127.0.0.1", 0)) f =
  let heap = Pmem.Pheap.create_ram ~capacity:(1 lsl 24) () in
  let store = Store.create heap in
  let server =
    Net.Server.start ~store ~workers ?batch ?max_conns ?request_timeout
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

(* A Traced frame runs the request under the carried context: the
   server records a srv.* span whose trace id and parent are the
   client's. *)
let e2e_traced_request_spans () =
  with_server ~trace_capacity:64 (fun _store _server addr ->
      Fun.protect ~finally:(fun () -> Obs.Span.set_sink None) @@ fun () ->
      let client = Net.Client.connect addr in
      let trace = Obs.Traceid.generate () in
      let parent = Obs.Traceid.new_span_id () in
      (match
         Net.Client.call client
           (Net.Wire.Traced
              {
                trace_hi = trace.Obs.Traceid.hi;
                trace_lo = trace.Obs.Traceid.lo;
                parent_span = parent;
                sampled = true;
                req = Net.Wire.Insert { key = 5; value = 50 };
              })
       with
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
      (match
         Net.Client.call client
           (Net.Wire.Traced
              {
                trace_hi = trace.Obs.Traceid.hi;
                trace_lo = trace.Obs.Traceid.lo;
                parent_span = parent;
                sampled = false;
                req = Net.Wire.Ping;
              })
       with
      | Net.Wire.Pong -> ()
      | r -> Alcotest.failf "unsampled traced ping answered %a" Net.Wire.pp_response r);
      check_bool "unsampled request recorded no span" true
        (trace_event_names (Net.Client.trace_dump client) = []);
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
      raw_write fd (frame_of_body (ver ^ "\x63"));
      expect_error "bad opcode" Net.Wire.Bad_opcode (raw_read_response fd);
      (* 3. garbled payload *)
      raw_write fd (frame_of_body (ver ^ "\x02AB"));
      expect_error "malformed" Net.Wire.Malformed (raw_read_response fd);
      (* 4. the opcodes removed in version 8 *)
      List.iter
        (fun op ->
          raw_write fd (frame_of_body (ver ^ String.make 1 (Char.chr op)));
          expect_error "removed opcode" Net.Wire.Bad_opcode (raw_read_response fd))
        [ 8; 9; 15 ];
      (* ... and the connection is still perfectly usable *)
      raw_write fd
        (frame_of_body (Net.Wire.encode_request_body Net.Wire.Ping));
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
      raw_write fd (frame_of_body (Net.Wire.encode_request_body Net.Wire.Ping));
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
      (* a pipelined run of plain Insert frames coalesces server-side
         into one store-level batch — while still acking every frame.
         The run only forms when the frames drain in one wakeup, so
         allow a few attempts before declaring coalescing broken. *)
      let coalesced = Obs.Registry.counter "net.coalesced_frames" in
      let rec attempt tries base =
        let before = Obs.Metric.value coalesced in
        let reqs =
          List.init 16 (fun i -> Net.Wire.Insert { key = base + i; value = i })
        in
        let resps = Net.Client.call_batch client reqs in
        check_bool "coalesced run still acks each frame" true
          (List.for_all (fun r -> r = Net.Wire.Ack) resps);
        if Obs.Metric.value coalesced > before then ()
        else if tries > 1 then attempt (tries - 1) (base + 16)
        else Alcotest.fail "pipelined mutation run never coalesced"
      in
      attempt 5 1000;
      check_bool "coalesced writes landed" true
        (Net.Client.find client 1008 = Some 8);
      Net.Client.close client)

let e2e_tag_at_find_bulk () =
  with_server (fun store _server addr ->
      let client = Net.Client.connect addr in
      for k = 0 to 9 do
        Net.Client.insert client ~key:k ~value:(k * 2)
      done;
      (* Tag_at 0 is a pure version probe *)
      check_int "probe before any tag" 0 (Net.Client.tag_at client ~version:0);
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
      Net.Client.close client)

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
        let before = max 0 (Net.Client.tag_at client ~version:0 - keep) in
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

(* Regression: a clock probe ([Tag_at 0]) drains every connection's
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
                      ignore (Net.Client.tag_at client ~version:0);
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
        (frame_of_body (Net.Wire.encode_request_body Net.Wire.Ping));
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
          Alcotest.test_case "nested epoch wrapper" `Quick decode_nested_epoch_wrapper;
          Alcotest.test_case "nested traced wrapper" `Quick decode_nested_traced_wrapper;
          Alcotest.test_case "bad traced fields" `Quick decode_bad_traced_fields;
          Alcotest.test_case "bad trace clear flag" `Quick decode_bad_trace_clear_flag;
        ] );
      ( "server-e2e",
        [
          Alcotest.test_case "full dict API over loopback" `Quick e2e_full_api;
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
          Alcotest.test_case "three persistent clients share one worker" `Quick
            e2e_clients_share_a_worker;
          Alcotest.test_case "a peer that stops reading is dropped" `Quick
            e2e_stalled_reader_dropped;
          Alcotest.test_case "a socket past FD_SETSIZE gets Busy" `Quick
            e2e_fd_past_setsize_busy;
        ] );
    ]
