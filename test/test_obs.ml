(* Tests for lib/obs: counters/gauges under concurrent domains,
   histogram bucketing and percentiles, span nesting, registry JSON
   round-trip, and the disabled-path zero-allocation guarantee. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* Counters / gauges *)

let counter_basics () =
  let c = Obs.Registry.counter "test.counter.basics" in
  Obs.Metric.reset_counter c;
  Obs.Metric.incr c;
  Obs.Metric.add c 41;
  check_int "incr + add" 42 (Obs.Metric.value c);
  check_bool "same handle for same name" true
    (Obs.Registry.counter "test.counter.basics" == c);
  Obs.Metric.reset_counter c;
  check_int "reset" 0 (Obs.Metric.value c)

let counter_concurrent_domains () =
  let c = Obs.Registry.counter "test.counter.concurrent" in
  Obs.Metric.reset_counter c;
  let per_domain = 20_000 and domains = 4 in
  ignore
    (Concurrent.Parallel.run ~threads:domains (fun _ ->
         for _ = 1 to per_domain do
           Obs.Metric.incr c
         done));
  check_int "no lost updates" (per_domain * domains) (Obs.Metric.value c)

let gauge_basics () =
  let g = Obs.Registry.gauge "test.gauge.basics" in
  Obs.Metric.set g 17;
  check_int "set/get" 17 (Obs.Metric.gauge_value g);
  Obs.Metric.set g 3;
  check_int "last write wins" 3 (Obs.Metric.gauge_value g)

let registry_kind_mismatch () =
  ignore (Obs.Registry.counter "test.kind.clash");
  Alcotest.check_raises "counter reused as histogram"
    (Invalid_argument
       "Obs.Registry: test.kind.clash already registered as a different kind (wanted histogram)")
    (fun () -> ignore (Obs.Registry.histogram "test.kind.clash"))

(* Histogram *)

let histogram_buckets_monotone () =
  (* index_of is monotone and bucket_lo inverts it to the right range. *)
  let ok = ref true in
  let last = ref (-1) in
  List.iter
    (fun v ->
      let i = Obs.Histogram.index_of v in
      if i < !last then ok := false;
      last := i;
      if Obs.Histogram.bucket_lo i > v then ok := false)
    [ 0; 1; 15; 16; 17; 31; 32; 100; 1_000; 65_536; 1_000_000; 1 lsl 40; 1 lsl 61 ];
  check_bool "monotone buckets containing their values" true !ok

let histogram_percentiles () =
  let h = Obs.Registry.histogram "test.histogram.percentiles" in
  Obs.Histogram.reset h;
  for v = 1 to 1000 do
    Obs.Histogram.record h v
  done;
  check_int "count" 1000 (Obs.Histogram.count h);
  check_int "max exact" 1000 (Obs.Histogram.max_value h);
  Alcotest.(check (float 0.5)) "mean" 500.5 (Obs.Histogram.mean h);
  let within q lo hi =
    let p = Obs.Histogram.percentile h q in
    check_bool
      (Printf.sprintf "p%.0f=%d in [%d,%d]" (q *. 100.0) p lo hi)
      true
      (p >= lo && p <= hi)
  in
  (* Bucket resolution is 1/16 per octave; allow ~10% slack. *)
  within 0.50 450 560;
  within 0.90 830 990;
  within 0.99 900 1000;
  check_int "empty percentile" 0
    (Obs.Histogram.percentile (Obs.Histogram.create "test.histogram.empty") 0.5)

let histogram_concurrent_domains () =
  let h = Obs.Registry.histogram "test.histogram.concurrent" in
  Obs.Histogram.reset h;
  let per_domain = 10_000 and domains = 4 in
  ignore
    (Concurrent.Parallel.run ~threads:domains (fun tid ->
         for i = 1 to per_domain do
           Obs.Histogram.record h ((tid * per_domain) + i)
         done));
  check_int "count" (per_domain * domains) (Obs.Histogram.count h);
  check_int "max" (domains * per_domain) (Obs.Histogram.max_value h)

(* Spans *)

let span_nesting_and_sink () =
  let events = ref [] in
  Obs.Span.set_sink (Some (fun e -> events := e :: !events));
  let result =
    Obs.Span.with_ "test.outer" (fun () ->
        Obs.Span.with_ "test.inner" (fun () -> 7))
  in
  Obs.Span.set_sink None;
  check_int "body result" 7 result;
  match List.rev !events with
  | [ inner; outer ] ->
      Alcotest.(check string) "inner name" "test.inner" inner.Obs.Span.name;
      Alcotest.(check string) "outer name" "test.outer" outer.Obs.Span.name;
      check_int "inner depth" 2 inner.Obs.Span.depth;
      check_int "outer depth" 1 outer.Obs.Span.depth;
      check_bool "inner nested in outer" true
        (inner.Obs.Span.start_ns >= outer.Obs.Span.start_ns
        && inner.Obs.Span.stop_ns <= outer.Obs.Span.stop_ns);
      check_bool "histogram recorded" true
        (Obs.Histogram.count (Obs.Registry.histogram "span.test.outer") >= 1)
  | events -> Alcotest.failf "expected 2 span events, got %d" (List.length events)

let span_disabled_is_noop () =
  let events = ref 0 in
  Obs.Span.set_sink (Some (fun _ -> incr events));
  Obs.Control.with_disabled (fun () ->
      Obs.Span.with_ "test.disabled.span" (fun () -> ()));
  Obs.Span.set_sink None;
  check_int "no events while disabled" 0 !events

(* Disabled path: no allocation, histogram untouched, counter counts. *)

let disabled_path_allocates_nothing () =
  let op = Obs.Instr.op "test.disabled.op" in
  let c = Obs.Registry.counter "test.disabled.op.ops" in
  Obs.Metric.reset_counter c;
  let h = Obs.Registry.histogram "test.disabled.op.ns" in
  Obs.Histogram.reset h;
  let iterations = 100_000 in
  Obs.Control.with_disabled (fun () ->
      let w0 = Gc.minor_words () in
      for _ = 1 to iterations do
        Obs.Instr.finish op (Obs.Instr.start ())
      done;
      let w1 = Gc.minor_words () in
      (* The two Gc.minor_words calls may box a handful of words; any
         per-op allocation would show up as >= [iterations] words. *)
      check_bool "no per-op allocation" true (w1 -. w0 < 64.0));
  check_int "counter still counts when disabled" iterations (Obs.Metric.value c);
  check_int "histogram untouched when disabled" 0 (Obs.Histogram.count h)

let enabled_path_records () =
  let op = Obs.Instr.op "test.enabled.op" in
  let h = Obs.Registry.histogram "test.enabled.op.ns" in
  Obs.Histogram.reset h;
  for _ = 1 to 100 do
    Obs.Instr.finish op (Obs.Instr.start ())
  done;
  check_int "histogram samples" 100 (Obs.Histogram.count h)

(* JSON *)

let json_roundtrip () =
  let v =
    Obs.Json.Obj
      [
        ("s", Obs.Json.String "he\"llo\n");
        ("i", Obs.Json.Int (-42));
        ("f", Obs.Json.Float 1.5);
        ("b", Obs.Json.Bool true);
        ("n", Obs.Json.Null);
        ("l", Obs.Json.List [ Obs.Json.Int 1; Obs.Json.Obj [] ]);
      ]
  in
  (match Obs.Json.of_string (Obs.Json.to_string v) with
  | Ok v' -> check_bool "compact roundtrip" true (v = v')
  | Error e -> Alcotest.fail e);
  (match Obs.Json.of_string (Obs.Json.to_string ~indent:true v) with
  | Ok v' -> check_bool "indented roundtrip" true (v = v')
  | Error e -> Alcotest.fail e);
  check_bool "trailing garbage rejected" true
    (match Obs.Json.of_string "{} x" with Error _ -> true | Ok _ -> false);
  check_bool "truncated rejected" true
    (match Obs.Json.of_string "[1, 2" with Error _ -> true | Ok _ -> false)

let json_non_finite_floats () =
  (* NaN/inf have no JSON spelling; the writer must degrade them to
     null so every document we emit stays parseable. *)
  let v =
    Obs.Json.Obj
      [
        ("a", Obs.Json.Float Float.nan);
        ("b", Obs.Json.Float Float.infinity);
        ("c", Obs.Json.Float Float.neg_infinity);
        ("d", Obs.Json.Float 2.5);
      ]
  in
  let text = String.lowercase_ascii (Obs.Json.to_string v) in
  let has sub =
    let n = String.length text and m = String.length sub in
    let rec go i = i + m <= n && (String.sub text i m = sub || go (i + 1)) in
    go 0
  in
  check_bool "no bare nan/inf spelling in output" true (not (has "nan" || has "inf"));
  match Obs.Json.of_string text with
  | Error e -> Alcotest.fail e
  | Ok v' ->
      check_bool "non-finite floats become null" true
        (v'
        = Obs.Json.Obj
            [
              ("a", Obs.Json.Null);
              ("b", Obs.Json.Null);
              ("c", Obs.Json.Null);
              ("d", Obs.Json.Float 2.5);
            ])

(* The registry's one JSON rendering is the {!Obs.Snap} document (what
   `mvkv client stats`, `mvkv --stats` and BENCH_<fig>.json print): it
   must round-trip through the parser with values, histogram
   percentiles and the pmem counters intact. *)
let registry_json_shape () =
  let c = Obs.Registry.counter "test.json.counter" in
  Obs.Metric.reset_counter c;
  Obs.Metric.add c 5;
  let h = Obs.Registry.histogram "test.json.hist" in
  Obs.Histogram.reset h;
  Obs.Histogram.record h 1234;
  let text =
    Obs.Json.to_string ~indent:true (Obs.Snap.to_json (Obs.Snap.of_registry ()))
  in
  match Result.bind (Obs.Json.of_string text) Obs.Snap.of_json with
  | Error e -> Alcotest.fail e
  | Ok snap ->
      check_int "counter present with value" 5
        (Obs.Snap.counter snap "test.json.counter");
      (match Obs.Snap.find_hist snap "test.json.hist" with
      | Some hist ->
          check_int "count key" 1 hist.hcount;
          check_bool "max and percentiles computable from the buckets" true
            (hist.hmax = 1234
            && List.for_all
                 (fun q -> Obs.Snap.hist_percentile hist q = Obs.Histogram.percentile h q)
                 [ 0.50; 0.90; 0.99 ])
      | None -> Alcotest.fail "histogram missing from JSON");
      check_bool "pmem counters folded into the same registry" true
        (List.mem_assoc "pmem.flushed_lines" snap)

(* Histogram percentile laws, property-checked. *)

let percentile_properties =
  QCheck.Test.make ~name:"percentile monotone in q and bounded by max" ~count:200
    QCheck.(make Gen.(list_size (int_range 1 200) (int_range 0 (1 lsl 40))))
    (fun samples ->
      let h = Obs.Histogram.create "test.histogram.qcheck" in
      List.iter (fun v -> Obs.Histogram.record h v) samples;
      let qs = [ 0.0; 0.1; 0.25; 0.5; 0.75; 0.9; 0.99; 1.0 ] in
      let ps = List.map (fun q -> Obs.Histogram.percentile h q) qs in
      let rec monotone = function
        | a :: (b :: _ as rest) -> a <= b && monotone rest
        | _ -> true
      in
      monotone ps
      && List.for_all (fun p -> p <= Obs.Histogram.max_value h) ps
      && Obs.Histogram.count h = List.length samples)

(* Histogram merge: count/sum exactly additive, max of max, and the
   merged percentiles bracket the inputs' — the law that makes fleet
   p99 aggregation honest. *)

let histogram_merge_properties =
  QCheck.Test.make
    ~name:"histogram merge: additive count/sum, bracketed percentiles" ~count:200
    QCheck.(
      make
        ~print:(fun (xs, ys) ->
          let s l = String.concat "," (List.map string_of_int l) in
          Printf.sprintf "a=[%s] b=[%s]" (s xs) (s ys))
        Gen.(
          pair
            (list_size (int_range 1 100) (int_range 0 (1 lsl 40)))
            (list_size (int_range 1 100) (int_range 0 (1 lsl 40)))))
    (fun (xs, ys) ->
      let a = Obs.Histogram.create "test.merge.a"
      and b = Obs.Histogram.create "test.merge.b" in
      List.iter (Obs.Histogram.record a) xs;
      List.iter (Obs.Histogram.record b) ys;
      let m = Obs.Histogram.merge a b in
      let exact =
        Obs.Histogram.count m = List.length xs + List.length ys
        && Obs.Histogram.sum m = Obs.Histogram.sum a + Obs.Histogram.sum b
        && Obs.Histogram.max_value m
           = max (Obs.Histogram.max_value a) (Obs.Histogram.max_value b)
      in
      (* Bracketing holds at bucket granularity: percentiles are bucket
         midpoints whose exact value depends on the histogram's own max
         (the top-bucket clamp), so compare the buckets they land in. *)
      let bracketed =
        List.for_all
          (fun q ->
            let bucket h = Obs.Histogram.index_of (Obs.Histogram.percentile h q) in
            let bm = bucket m and ba = bucket a and bb = bucket b in
            bm >= min ba bb && bm <= max ba bb)
          [ 0.0; 0.25; 0.5; 0.9; 0.99; 1.0 ]
      in
      exact && bracketed)

(* Trace ids *)

let traceid_basics () =
  let a = Obs.Traceid.generate () and b = Obs.Traceid.generate () in
  check_bool "generated ids are non-null" true
    ((not (Obs.Traceid.is_null a)) && not (Obs.Traceid.is_null b));
  check_bool "distinct ids" false (Obs.Traceid.equal a b);
  check_int "hex is 32 digits" 32 (String.length (Obs.Traceid.to_hex a));
  (match Obs.Traceid.of_hex (Obs.Traceid.to_hex a) with
  | Some a' -> check_bool "hex roundtrip" true (Obs.Traceid.equal a a')
  | None -> Alcotest.fail "own hex did not parse");
  List.iter
    (fun s ->
      check_bool ("rejects " ^ s) true (Obs.Traceid.of_hex s = None))
    [ ""; "abc"; String.make 32 'g'; String.make 33 '0' ];
  check_bool "span ids are nonzero" true
    (List.for_all
       (fun _ -> Obs.Traceid.new_span_id () > 0)
       (List.init 100 Fun.id));
  check_bool "coin at 0 never fires" true
    (List.for_all (fun _ -> not (Obs.Traceid.coin ~rate:0.0 ())) (List.init 50 Fun.id));
  check_bool "coin at 1 always fires" true
    (List.for_all (fun _ -> Obs.Traceid.coin ~rate:1.0 ()) (List.init 50 Fun.id))

(* Span trace contexts *)

let span_context_propagation () =
  let events = ref [] in
  Obs.Span.set_sink (Some (fun e -> events := e :: !events));
  let trace = Obs.Traceid.generate () in
  Obs.Span.with_context
    (Some { Obs.Span.trace; parent = 42; sampled = true })
    (fun () ->
      Obs.Span.with_ "test.ctx.outer" (fun () ->
          (match Obs.Span.get_context () with
          | Some c ->
              check_bool "trace id inherited inside the span" true
                (Obs.Traceid.equal c.Obs.Span.trace trace);
              check_bool "context re-pointed at the open span" true
                (c.Obs.Span.parent <> 42 && c.Obs.Span.parent > 0)
          | None -> Alcotest.fail "no context inside with_context");
          Obs.Span.with_ "test.ctx.inner" (fun () -> ())));
  Obs.Span.set_sink None;
  check_bool "context restored after the body" true (Obs.Span.get_context () = None);
  match List.rev !events with
  | [ inner; outer ] ->
      check_bool "both spans carry the trace id" true
        (Obs.Traceid.equal inner.Obs.Span.trace trace
        && Obs.Traceid.equal outer.Obs.Span.trace trace);
      check_bool "span ids allocated and distinct" true
        (inner.Obs.Span.span_id > 0
        && outer.Obs.Span.span_id > 0
        && inner.Obs.Span.span_id <> outer.Obs.Span.span_id);
      check_int "inner parents the outer span" outer.Obs.Span.span_id
        inner.Obs.Span.parent;
      check_int "outer parents the context" 42 outer.Obs.Span.parent
  | evs -> Alcotest.failf "expected 2 span events, got %d" (List.length evs)

let span_no_context_is_contextless () =
  let events = ref [] in
  Obs.Span.set_sink (Some (fun e -> events := e :: !events));
  Obs.Span.with_ "test.ctx.none" (fun () -> ());
  Obs.Span.set_sink None;
  match !events with
  | [ e ] ->
      check_bool "null trace outside a context" true (Obs.Traceid.is_null e.Obs.Span.trace);
      check_int "no span id" 0 e.Obs.Span.span_id;
      check_int "no parent" 0 e.Obs.Span.parent
  | evs -> Alcotest.failf "expected 1 span event, got %d" (List.length evs)

(* Registry snapshots (fleet aggregation unit) *)

let snap_json_roundtrip_and_merge () =
  let c = Obs.Registry.counter "test.snap.counter" in
  Obs.Metric.reset_counter c;
  Obs.Metric.add c 7;
  let h = Obs.Registry.histogram "test.snap.hist" in
  Obs.Histogram.reset h;
  List.iter (fun v -> Obs.Histogram.record h v) [ 1; 10; 100 ];
  let s = Obs.Snap.of_registry () in
  (match Obs.Snap.of_json (Obs.Snap.to_json s) with
  | Ok s' -> check_bool "json roundtrip" true (s = s')
  | Error e -> Alcotest.fail e);
  (match Obs.Json.of_string (Obs.Json.to_string (Obs.Snap.to_json s)) with
  | Ok j -> (
      match Obs.Snap.of_json j with
      | Ok s' -> check_bool "roundtrip through text" true (s = s')
      | Error e -> Alcotest.fail e)
  | Error e -> Alcotest.fail e);
  let m = Obs.Snap.merge s s in
  check_int "merged counters add" 14 (Obs.Snap.counter m "test.snap.counter");
  (match Obs.Snap.find_hist m "test.snap.hist" with
  | Some hh ->
      check_int "merged hist count" 6 hh.Obs.Snap.hcount;
      check_int "merged hist sum" 222 hh.Obs.Snap.hsum;
      check_int "merged hist max" 100 hh.Obs.Snap.hmax
  | None -> Alcotest.fail "merged histogram missing");
  check_bool "merge_all []" true (Obs.Snap.merge_all [] = []);
  check_bool "merge_all singleton" true (Obs.Snap.merge_all [ s ] = s);
  (* garbage in, error out — never an exception *)
  List.iter
    (fun bad ->
      check_bool "bad snapshot JSON rejected" true
        (match Obs.Snap.of_json bad with Error _ -> true | Ok _ -> false))
    [
      Obs.Json.Int 3;
      Obs.Json.Obj [ ("histograms", Obs.Json.Obj [ ("h", Obs.Json.Int 1) ]) ];
    ]

let snap_percentile_and_le_fraction () =
  let h = Obs.Registry.histogram "test.snap.le" in
  Obs.Histogram.reset h;
  for _ = 1 to 9 do
    Obs.Histogram.record h 10
  done;
  Obs.Histogram.record h 1_000_000;
  let s = Obs.Snap.of_registry () in
  match Obs.Snap.find_hist s "test.snap.le" with
  | None -> Alcotest.fail "histogram missing from snapshot"
  | Some hh ->
      check_int "snapshot p50 matches live histogram"
        (Obs.Histogram.percentile h 0.5)
        (Obs.Snap.hist_percentile hh 0.5);
      (match Obs.Snap.hist_le_fraction hh ~le:100_000 with
      | Some f -> Alcotest.(check (float 0.001)) "9 of 10 under the bar" 0.9 f
      | None -> Alcotest.fail "le fraction empty");
      check_bool "empty histogram yields None" true
        (Obs.Snap.hist_le_fraction
           { Obs.Snap.hcount = 0; hsum = 0; hmax = 0; buckets = [] }
           ~le:1
        = None)

let snap_prometheus_labels () =
  let s1 = [ ("test.fleet.ops", Obs.Snap.Counter 3) ]
  and s2 = [ ("test.fleet.ops", Obs.Snap.Counter 4) ] in
  let page =
    Obs.Snap.prometheus
      [
        ([ ("shard", "0"); ("replica", "0") ], s1);
        ([ ("shard", "1"); ("replica", "0") ], s2);
      ]
  in
  let lines = String.split_on_char '\n' page |> List.filter (fun l -> l <> "") in
  let count p = List.length (List.filter p lines) in
  let has_prefix p l = String.length l >= String.length p && String.sub l 0 (String.length p) = p in
  check_int "one TYPE preamble for the family" 1
    (count (has_prefix "# TYPE test_fleet_ops"));
  check_int "one series per node" 1
    (count (has_prefix "test_fleet_ops{shard=\"0\",replica=\"0\"}"));
  check_int "second node labelled" 1
    (count (has_prefix "test_fleet_ops{shard=\"1\",replica=\"0\"}"))

(* SLOs *)

let slo_parse_and_burn () =
  (match Obs.Slo.parse "find=1ms, insert=500us" with
  | Ok
      [
        { Obs.Slo.op = "find"; threshold_ns = 1_000_000 };
        { Obs.Slo.op = "insert"; threshold_ns = 500_000 };
      ] ->
      ()
  | Ok os -> Alcotest.failf "parsed %d unexpected objectives" (List.length os)
  | Error e -> Alcotest.fail e);
  List.iter
    (fun spec ->
      check_bool ("rejects " ^ spec) true
        (match Obs.Slo.parse spec with Error _ -> true | Ok _ -> false))
    [ ""; "find"; "=1ms"; "find=1"; "find=0ms"; "find=1ms,find=2ms" ];
  let t = Obs.Slo.create [ { Obs.Slo.op = "testburn"; threshold_ns = 1000 } ] in
  Obs.Slo.note t ~op:"testburn" ~latency_ns:500;
  Obs.Slo.note t ~op:"testburn" ~latency_ns:1000;
  Obs.Slo.note t ~op:"testburn" ~latency_ns:5000;
  Obs.Slo.note t ~op:"unknown" ~latency_ns:1;
  check_int "ok counter" 2 (Obs.Metric.value (Obs.Registry.counter "slo.testburn.ok"));
  check_int "violation counter" 1
    (Obs.Metric.value (Obs.Registry.counter "slo.testburn.violations"));
  check_bool "burn window counts the violation" true
    (Obs.Window.sum (Obs.Registry.window "slo.testburn.rate.violations") ~window_s:60
    >= 1);
  Alcotest.(check string)
    "objectives render back" "find=1ms,insert=500us"
    (Obs.Slo.to_string
       [
         { Obs.Slo.op = "find"; threshold_ns = 1_000_000 };
         { Obs.Slo.op = "insert"; threshold_ns = 500_000 };
       ])

let slo_attainment () =
  let h = Obs.Registry.histogram "net.testslo.ns" in
  Obs.Histogram.reset h;
  for _ = 1 to 9 do
    Obs.Histogram.record h 10
  done;
  Obs.Histogram.record h 1_000_000;
  let snap = Obs.Snap.of_registry () in
  (match
     Obs.Slo.attainment [ { Obs.Slo.op = "testslo"; threshold_ns = 100_000 } ] snap
   with
  | Some ("testslo", f) -> Alcotest.(check (float 0.001)) "attainment" 0.9 f
  | Some (op, _) -> Alcotest.failf "wrong op %s" op
  | None -> Alcotest.fail "no attainment");
  check_bool "unknown op yields None" true
    (Obs.Slo.attainment [ { Obs.Slo.op = "nosuch"; threshold_ns = 1 } ] snap = None)

(* Merged Chrome traces *)

let merge_chrome_rebases_and_dedups () =
  let trace = Obs.Traceid.generate () in
  let ev ~span ~parent ~start name =
    {
      Obs.Span.name;
      depth = 1;
      start_ns = start;
      stop_ns = start + 100;
      dom = 0;
      trace;
      span_id = span;
      parent;
    }
  in
  let d1 = Obs.Tracebuf.chrome_json ~clock_ns:1_000 [ ev ~span:1 ~parent:0 ~start:500 "root" ] in
  let d2 =
    Obs.Tracebuf.chrome_json ~clock_ns:2_000
      [ ev ~span:2 ~parent:1 ~start:900 "child"; ev ~span:1 ~parent:0 ~start:400 "root" ]
  in
  let merged = Obs.Tracebuf.merge_chrome [ ("a", d1, 0); ("b", d2, 2_000) ] in
  (match Obs.Json.of_string (Obs.Json.to_string merged) with
  | Error e -> Alcotest.fail e
  | Ok _ -> ());
  match Obs.Json.member "traceEvents" merged with
  | Some (Obs.Json.List evs) ->
      let metas, spans =
        List.partition
          (fun e -> Obs.Json.member "ph" e = Some (Obs.Json.String "M"))
          evs
      in
      check_int "one process_name per part" 2 (List.length metas);
      check_bool "labels name the lanes" true
        (List.exists
           (fun e ->
             match Obs.Json.member "args" e with
             | Some args -> Obs.Json.member "name" args = Some (Obs.Json.String "b")
             | None -> false)
           metas);
      (* span 1 appeared in both parts: kept once *)
      let with_span id =
        List.filter
          (fun e ->
            match Obs.Json.member "args" e with
            | Some args -> Obs.Json.member "span" args = Some (Obs.Json.Int id)
            | None -> false)
          spans
      in
      check_int "duplicate span deduplicated" 1 (List.length (with_span 1));
      check_int "unique span kept" 1 (List.length (with_span 2));
      (* part b's delta (2000 ns) shifts its events by 2 us *)
      (match with_span 2 with
      | [ child ] -> (
          match Obs.Json.member "ts" child with
          | Some (Obs.Json.Float ts) ->
              Alcotest.(check (float 1e-9)) "rebased ts" 2.9 ts
          | _ -> Alcotest.fail "child has no ts")
      | _ -> assert false);
      (* parts keep distinct pid lanes *)
      let pids =
        List.sort_uniq compare
          (List.filter_map (fun e -> Obs.Json.member "pid" e) spans)
      in
      check_int "two pid lanes" 2 (List.length pids)
  | _ -> Alcotest.fail "no traceEvents list"

(* Sliding windows, on a fake clock so seconds advance on demand. *)

let with_fake_clock f =
  let now = ref 1_000_000_000_000 in
  Obs.Clock.set_source (fun () -> !now);
  Fun.protect
    ~finally:(fun () ->
      Obs.Clock.set_source (fun () -> int_of_float (Unix.gettimeofday () *. 1e9)))
    (fun () -> f (fun s -> now := !now + (s * 1_000_000_000)))

let window_rates () =
  with_fake_clock (fun advance ->
      let w = Obs.Window.create "test.window.rates" in
      Obs.Window.add w 10;
      check_int "running second counts" 10 (Obs.Window.sum w ~window_s:1);
      advance 1;
      Obs.Window.add w 20;
      check_int "two-second sum" 30 (Obs.Window.sum w ~window_s:2);
      check_int "one-second sum sees only the running second" 20
        (Obs.Window.sum w ~window_s:1);
      Alcotest.(check (float 0.001)) "rate averages over the window" 15.0
        (Obs.Window.rate w ~window_s:2);
      (* Old seconds fall out of the window. *)
      advance 60;
      check_int "stale buckets expire" 0 (Obs.Window.sum w ~window_s:10);
      check_bool "bad window rejected" true
        (match Obs.Window.sum w ~window_s:0 with
        | exception Invalid_argument _ -> true
        | _ -> false))

let window_clock_swap () =
  (* A window created under one clock source must keep working after
     the source is swapped to one that reads *behind* the creation
     anchor — the CLI installs a monotonic source at startup, after
     module-init windows were created under the wall clock. *)
  let now = ref 4_000_000_000_000_000_000 in
  Obs.Clock.set_source (fun () -> !now);
  Fun.protect
    ~finally:(fun () ->
      Obs.Clock.set_source (fun () -> int_of_float (Unix.gettimeofday () *. 1e9)))
    (fun () ->
      let w = Obs.Window.create "test.window.clockswap" in
      now := 1_000_000_000_000;
      Obs.Window.add w 7;
      check_int "events visible after the clock runs behind the anchor" 7
        (Obs.Window.sum w ~window_s:10))

let window_concurrent () =
  let w = Obs.Window.create "test.window.concurrent" in
  let per_domain = 20_000 and domains = 4 in
  ignore
    (Concurrent.Parallel.run ~threads:domains (fun _ ->
         for _ = 1 to per_domain do
           Obs.Window.incr w
         done));
  (* The whole run takes well under the max window; every event must be
     in the trailing-120s sum. *)
  check_int "no lost events under domains" (per_domain * domains)
    (Obs.Window.sum w ~window_s:120)

(* Trace ring *)

let mkspan ?(dom = 0) ?(trace = Obs.Traceid.null) ?(span_id = 0) ?(parent = 0)
    name i =
  {
    Obs.Span.name;
    depth = 1;
    start_ns = i * 100;
    stop_ns = (i * 100) + 50;
    dom;
    trace;
    span_id;
    parent;
  }

let tracebuf_overwrites_oldest () =
  let t = Obs.Tracebuf.create ~capacity:4 in
  for i = 1 to 10 do
    Obs.Tracebuf.record t (mkspan "s" i)
  done;
  check_int "total counts everything" 10 (Obs.Tracebuf.total t);
  check_int "length capped" 4 (Obs.Tracebuf.length t);
  (match Obs.Tracebuf.dump t with
  | [ a; b; c; d ] ->
      check_int "oldest surviving span first" 700 a.Obs.Span.start_ns;
      check_int "then 8" 800 b.Obs.Span.start_ns;
      check_int "then 9" 900 c.Obs.Span.start_ns;
      check_int "newest last" 1000 d.Obs.Span.start_ns
  | l -> Alcotest.failf "expected 4 spans, got %d" (List.length l));
  Obs.Tracebuf.clear t;
  check_int "clear empties" 0 (Obs.Tracebuf.length t);
  check_bool "dump after clear" true (Obs.Tracebuf.dump t = [])

let tracebuf_as_sink () =
  let t = Obs.Tracebuf.create ~capacity:16 in
  Obs.Tracebuf.install t;
  Obs.Span.with_ "test.sink.outer" (fun () ->
      Obs.Span.with_ "test.sink.inner" (fun () -> ()));
  Obs.Span.set_sink None;
  match Obs.Tracebuf.dump t with
  | [ inner; outer ] ->
      Alcotest.(check string) "inner exits first" "test.sink.inner" inner.Obs.Span.name;
      Alcotest.(check string) "outer exits last" "test.sink.outer" outer.Obs.Span.name
  | l -> Alcotest.failf "expected 2 spans in ring, got %d" (List.length l)

let tracebuf_chrome_json () =
  let events = [ mkspan "a" 1; mkspan ~dom:3 "b" 2 ] in
  let json = Obs.Tracebuf.chrome_json events in
  (* Must round-trip through our own parser... *)
  (match Obs.Json.of_string (Obs.Json.to_string json) with
  | Error e -> Alcotest.fail e
  | Ok _ -> ());
  (* ...and carry the trace_event shape chrome://tracing needs. *)
  match Obs.Json.member "traceEvents" json with
  | Some (Obs.Json.List [ a; b ]) ->
      check_bool "complete events" true
        (Obs.Json.member "ph" a = Some (Obs.Json.String "X"));
      check_bool "name" true (Obs.Json.member "name" a = Some (Obs.Json.String "a"));
      check_bool "dur in us" true
        (match Obs.Json.member "dur" a with
        | Some (Obs.Json.Float d) -> Float.abs (d -. 0.05) < 1e-9
        | _ -> false);
      check_bool "domain becomes the tid lane" true
        (Obs.Json.member "tid" b = Some (Obs.Json.Int 3))
  | _ -> Alcotest.fail "no traceEvents list"

let tracebuf_concurrent () =
  let t = Obs.Tracebuf.create ~capacity:64 in
  let per_domain = 5_000 and domains = 4 in
  ignore
    (Concurrent.Parallel.run ~threads:domains (fun dom ->
         for i = 1 to per_domain do
           Obs.Tracebuf.record t (mkspan ~dom "s" i)
         done));
  check_int "every record counted" (per_domain * domains) (Obs.Tracebuf.total t);
  check_int "ring stays full" 64 (Obs.Tracebuf.length t);
  check_int "dump returns a full window" 64 (List.length (Obs.Tracebuf.dump t))

(* Slowlog *)

let slowlog_threshold_and_order () =
  let s = Obs.Slowlog.create ~capacity:8 ~threshold_ns:1000 ()  in
  Obs.Slowlog.note s ~op:"fast" ~latency_ns:999 ();
  check_int "below threshold filtered" 0 (Obs.Slowlog.total s);
  Obs.Slowlog.note s ~op:"edge" ~latency_ns:1000 ();
  Obs.Slowlog.note s ~op:"slow" ~key:7 ~latency_ns:5000 ();
  check_int "at/above threshold kept" 2 (Obs.Slowlog.total s);
  (match Obs.Slowlog.newest s ~n:10 with
  | [ a; b ] ->
      Alcotest.(check string) "newest first" "slow" a.Obs.Slowlog.op;
      check_bool "key kept" true (a.Obs.Slowlog.key = Some 7);
      Alcotest.(check string) "then older" "edge" b.Obs.Slowlog.op;
      check_bool "no key is None" true (b.Obs.Slowlog.key = None)
  | l -> Alcotest.failf "expected 2 entries, got %d" (List.length l));
  Obs.Slowlog.set_threshold s 0;
  Obs.Slowlog.note s ~op:"ignored" ~latency_ns:max_int ();
  check_int "threshold 0 disables" 2 (Obs.Slowlog.total s)

let slowlog_capacity () =
  let s = Obs.Slowlog.create ~capacity:4 ~threshold_ns:1 () in
  for i = 1 to 10 do
    Obs.Slowlog.note s ~op:(string_of_int i) ~latency_ns:i ()
  done;
  check_int "total counts everything" 10 (Obs.Slowlog.total s);
  let ops = List.map (fun e -> e.Obs.Slowlog.op) (Obs.Slowlog.newest s ~n:100) in
  check_bool "only the newest capacity entries survive, newest first" true
    (ops = [ "10"; "9"; "8"; "7" ]);
  (* to_json emits one parseable object per entry. *)
  let json = Obs.Slowlog.to_json (Obs.Slowlog.newest s ~n:2) in
  match Obs.Json.of_string (Obs.Json.to_string json) with
  | Ok (Obs.Json.List [ a; _ ]) ->
      check_bool "op field" true (Obs.Json.member "op" a = Some (Obs.Json.String "10"));
      check_bool "latency field" true
        (Obs.Json.member "latency_ns" a = Some (Obs.Json.Int 10))
  | Ok _ -> Alcotest.fail "expected a 2-element list"
  | Error e -> Alcotest.fail e

(* Prometheus exposition: every line of the whole-registry dump must
   parse under the text-format grammar, and each histogram's +Inf
   bucket must equal its _count series. *)

let prom_name_ok s =
  s <> ""
  && (match s.[0] with 'a' .. 'z' | 'A' .. 'Z' | '_' | ':' -> true | _ -> false)
  && String.for_all
       (function 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | ':' -> true | _ -> false)
       s

(* Parse one sample line into (metric_name, labels, value). *)
let parse_series line =
  let name_end =
    match (String.index_opt line '{', String.index_opt line ' ') with
    | Some b, _ -> b
    | None, Some sp -> sp
    | None, None -> -1
  in
  if name_end < 0 then None
  else
    let name = String.sub line 0 name_end in
    let labels, rest =
      if line.[name_end] = '{' then
        match String.index_opt line '}' with
        | Some e ->
            ( String.sub line (name_end + 1) (e - name_end - 1),
              String.sub line (e + 1) (String.length line - e - 1) )
        | None -> ("", "<unterminated>")
      else ("", String.sub line name_end (String.length line - name_end))
    in
    let rest = String.trim rest in
    match float_of_string_opt rest with
    | Some v when rest <> "<unterminated>" -> Some (name, labels, v)
    | _ -> None

let label_value labels key =
  (* labels is `k="v",k2="v2"`; good enough for our own output. *)
  String.split_on_char ',' labels
  |> List.find_map (fun kv ->
         match String.index_opt kv '=' with
         | Some eq when String.sub kv 0 eq = key ->
             let v = String.sub kv (eq + 1) (String.length kv - eq - 1) in
             Some (String.sub v 1 (String.length v - 2))
         | _ -> None)

let expo_line_format () =
  Obs.Metric.add (Obs.Registry.counter "test.expo.counter") 3;
  Obs.Metric.set (Obs.Registry.gauge "test.expo.gauge") (-4);
  let h = Obs.Registry.histogram "test.expo.hist" in
  List.iter (fun v -> Obs.Histogram.record h v) [ 5; 50; 500; 5_000; 50_000 ];
  Obs.Window.add (Obs.Registry.window "test.expo.window") 9;
  let text = Obs.Snap.prometheus [ ([], Obs.Snap.of_registry ()) ] in
  let lines = String.split_on_char '\n' text |> List.filter (fun l -> l <> "") in
  check_bool "non-empty exposition" true (lines <> []);
  let buckets = Hashtbl.create 16 and counts = Hashtbl.create 16 in
  List.iter
    (fun line ->
      if String.length line > 1 && line.[0] = '#' then begin
        (match String.split_on_char ' ' line with
        | "#" :: ("HELP" | "TYPE") :: name :: _ :: _ ->
            check_bool (name ^ " well-formed in preamble") true (prom_name_ok name)
        | _ -> Alcotest.failf "bad preamble line: %s" line);
        match String.split_on_char ' ' line with
        | "#" :: "TYPE" :: _ :: [ kind ] ->
            check_bool ("known type " ^ kind) true
              (List.mem kind [ "counter"; "gauge"; "histogram" ])
        | _ -> ()
      end
      else
        match parse_series line with
        | None -> Alcotest.failf "unparseable series line: %s" line
        | Some (name, labels, v) ->
            check_bool (name ^ " is a valid metric name") true (prom_name_ok name);
            let strip suffix =
              let n = String.length name and m = String.length suffix in
              if n > m && String.sub name (n - m) m = suffix then
                Some (String.sub name 0 (n - m))
              else None
            in
            (match strip "_bucket" with
            | Some base -> (
                match label_value labels "le" with
                | Some "+Inf" -> Hashtbl.replace buckets base v
                | Some le ->
                    check_bool (base ^ " finite le parses") true
                      (float_of_string_opt le <> None)
                | None -> Alcotest.failf "%s_bucket without le label" base)
            | None -> ());
            (match strip "_count" with
            | Some base -> Hashtbl.replace counts base v
            | None -> ()))
    lines;
  check_bool "at least one histogram exposed" true (Hashtbl.length buckets > 0);
  Hashtbl.iter
    (fun base inf ->
      match Hashtbl.find_opt counts base with
      | Some c ->
          check_bool (base ^ ": +Inf bucket equals _count") true (Float.equal inf c)
      | None -> Alcotest.failf "%s has buckets but no _count" base)
    buckets;
  (* Sanitization: dotted registry names must not leak into series. *)
  check_bool "sanitize maps dots" true (Obs.Snap.sanitize "a.b-c" = "a_b_c");
  check_bool "sanitize guards leading digit" true
    (prom_name_ok (Obs.Snap.sanitize "9lives"))

(* Instrumented stores feed the registry end to end. *)

let stores_feed_registry () =
  let module E = Mvdict.Eskiplist.Make (Int) (Int) in
  let h = Obs.Registry.histogram "mvdict.eskiplist.insert.ns" in
  let c = Obs.Registry.counter "mvdict.eskiplist.insert.ops" in
  let h0 = Obs.Histogram.count h and c0 = Obs.Metric.value c in
  let store = E.create () in
  for i = 1 to 500 do
    E.insert store i (i * 2)
  done;
  ignore (E.tag store);
  check_int "insert ops counted" (c0 + 500) (Obs.Metric.value c);
  check_int "insert latencies recorded" (h0 + 500) (Obs.Histogram.count h);
  (* pmem flush/fence counters flow into the same registry. *)
  let flushed = Obs.Registry.counter "pmem.flushed_lines" in
  let f0 = Obs.Metric.value flushed in
  let module P = Mvdict.Pskiplist.Make (Mvdict.Codec.Int_key) (Mvdict.Codec.Int_value) in
  let heap = Pmem.Pheap.create_ram ~capacity:(1 lsl 22) () in
  let pstore = P.create heap in
  for i = 1 to 100 do
    P.insert pstore i i
  done;
  ignore (P.tag pstore);
  check_bool "pmem flushes recorded in registry" true (Obs.Metric.value flushed > f0)

let () =
  Alcotest.run "obs"
    [
      ( "metric",
        [
          Alcotest.test_case "counter basics" `Quick counter_basics;
          Alcotest.test_case "counter under domains" `Quick counter_concurrent_domains;
          Alcotest.test_case "gauge basics" `Quick gauge_basics;
          Alcotest.test_case "kind mismatch" `Quick registry_kind_mismatch;
        ] );
      ( "histogram",
        [
          Alcotest.test_case "bucket monotonicity" `Quick histogram_buckets_monotone;
          Alcotest.test_case "percentiles" `Quick histogram_percentiles;
          Alcotest.test_case "under domains" `Quick histogram_concurrent_domains;
          QCheck_alcotest.to_alcotest percentile_properties;
          QCheck_alcotest.to_alcotest histogram_merge_properties;
        ] );
      ( "traceid",
        [ Alcotest.test_case "ids, hex, coin" `Quick traceid_basics ] );
      ( "snap",
        [
          Alcotest.test_case "json roundtrip and merge" `Quick
            snap_json_roundtrip_and_merge;
          Alcotest.test_case "percentile and le fraction" `Quick
            snap_percentile_and_le_fraction;
          Alcotest.test_case "prometheus labels" `Quick snap_prometheus_labels;
        ] );
      ( "slo",
        [
          Alcotest.test_case "parse and burn counters" `Quick slo_parse_and_burn;
          Alcotest.test_case "attainment from snapshot" `Quick slo_attainment;
        ] );
      ( "window",
        [
          Alcotest.test_case "rates over fake clock" `Quick window_rates;
          Alcotest.test_case "survives a clock source swap" `Quick window_clock_swap;
          Alcotest.test_case "under domains" `Quick window_concurrent;
        ] );
      ( "tracebuf",
        [
          Alcotest.test_case "overwrites oldest" `Quick tracebuf_overwrites_oldest;
          Alcotest.test_case "as span sink" `Quick tracebuf_as_sink;
          Alcotest.test_case "chrome trace shape" `Quick tracebuf_chrome_json;
          Alcotest.test_case "under domains" `Quick tracebuf_concurrent;
        ] );
      ( "slowlog",
        [
          Alcotest.test_case "threshold and order" `Quick slowlog_threshold_and_order;
          Alcotest.test_case "capacity and json" `Quick slowlog_capacity;
        ] );
      ( "expo",
        [ Alcotest.test_case "prometheus line format" `Quick expo_line_format ] );
      ( "span",
        [
          Alcotest.test_case "nesting and sink" `Quick span_nesting_and_sink;
          Alcotest.test_case "disabled is a no-op" `Quick span_disabled_is_noop;
          Alcotest.test_case "trace context propagation" `Quick
            span_context_propagation;
          Alcotest.test_case "no context means null ids" `Quick
            span_no_context_is_contextless;
        ] );
      ( "merge-chrome",
        [
          Alcotest.test_case "rebases and dedups" `Quick
            merge_chrome_rebases_and_dedups;
        ] );
      ( "overhead",
        [
          Alcotest.test_case "disabled path allocates nothing" `Quick
            disabled_path_allocates_nothing;
          Alcotest.test_case "enabled path records" `Quick enabled_path_records;
        ] );
      ( "json",
        [
          Alcotest.test_case "roundtrip" `Quick json_roundtrip;
          Alcotest.test_case "non-finite floats" `Quick json_non_finite_floats;
          Alcotest.test_case "registry shape" `Quick registry_json_shape;
        ] );
      ( "integration",
        [ Alcotest.test_case "stores feed registry" `Quick stores_feed_registry ] );
    ]
