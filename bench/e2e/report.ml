(* Metric definitions, the results file, the result line and
   `--compare`.

   The two metric lists below are the benchmark's contract; they must
   match the [end_to_end] and [per_layer] lists of BENCHMARK.json, which
   [check_benchmark_json] verifies (the smoke run does, under
   `dune runtest`). *)

type better = Higher | Lower

let e2e_metrics =
  [
    ("setup_s", "s", Lower);
    ("pmem_live_mb", "MB", Lower);
    ("rss_mb", "MB", Lower);
    ("pmem_flush_bytes_per_key", "bytes", Lower);
  ]

(* The first six are end-to-end timings kept out of the bounded list:
   their run-to-run spread on a 2-core shared host reaches the largest
   bound a regression gate may use (see README.md). *)
let per_layer_metrics =
  [
    ("items_per_s", "1/s", Higher);
    ("read_p50_us", "us", Lower);
    ("read_p99_us", "us", Lower);
    ("write_p50_us", "us", Lower);
    ("write_p99_us", "us", Lower);
    ("recover_s", "s", Lower);
    ("client.self_us", "us", Lower);
    ("client.tag_us", "us", Lower);
    ("client.minor_words_per_op", "words", Lower);
    ("share.client_pct", "%", Lower);
    ("share.cluster_pct", "%", Lower);
    ("share.server_pct", "%", Lower);
    ("share.store_pct", "%", Lower);
    ("net.requests_per_op", "count", Lower);
    ("net.bytes_per_op", "bytes", Lower);
    ("net.bytes_out_per_item", "bytes", Lower);
    ("net.coalesced_frames_per_op", "count", Higher);
    ("net.apply_us", "us", Lower);
    ("wire.request_encode_ns", "ns", Lower);
    ("wire.response_encode_ns", "ns", Lower);
    ("wire.response_decode_ns", "ns", Lower);
    ("mvdict.read_probe_us", "us", Lower);
    ("mvdict.read_probe_minor_words", "words", Lower);
    ("mvdict.write_us", "us", Lower);
    ("mvdict.insert_batch_us_per_key", "us", Lower);
    ("concurrent.index_find_ns", "ns", Lower);
    ("pmem.read_word_ns", "ns", Lower);
    ("pmem.flushed_lines_per_write", "count", Lower);
    ("pmem.fences_per_write", "count", Lower);
    ("pmem.fences_saved_per_write", "count", Higher);
    ("pmem.alloc_bytes_per_write", "bytes", Lower);
    ("gc.runs", "count", Higher);
    ("gc.pause_pct", "%", Lower);
    ("gc.reclaimed_bytes_per_key", "bytes", Higher);
    ("trace.dropped_spans", "count", Lower);
  ]

let unit_of name =
  match List.find_opt (fun (n, _, _) -> n = name) (e2e_metrics @ per_layer_metrics) with
  | Some (_, u, _) -> u
  | None -> "?"

type result = {
  workload : string;
  e2e : (string * float) list;
  layer : (string * float) list;  (** counters on every run, all per-layer metrics when traced *)
  attempted : int;
  failed : int;
  errors : string list;
  notes : (string * Obs.Json.t) list;
}

let correct r = r.failed = 0 && r.errors = []

let metric_json name v = Obs.Json.Obj [ ("value", Obs.Json.Float v); ("unit", Obs.Json.String (unit_of name)) ]
let metrics_json l = Obs.Json.Obj (List.map (fun (n, v) -> (n, metric_json n v)) l)

let print_human r =
  Printf.printf "== %s: %s (attempted %d, failed %d)\n" r.workload
    (if correct r then "correct" else "FAILED")
    r.attempted r.failed;
  List.iter (fun e -> Printf.printf "   error: %s\n" e) r.errors;
  List.iter (fun (n, v) -> Printf.printf "   %-34s %14.4f %s\n" n v (unit_of n)) (r.e2e @ r.layer);
  List.iter (fun (n, j) -> Printf.printf "   %-34s %s\n" n (Obs.Json.to_string j)) r.notes

let results_json ~seed ~seconds ~warmup ~traced ~smoke rs =
  Obs.Json.Obj
    [
      ("benchmark", Obs.Json.String "mvkv-e2e");
      ("seed", Obs.Json.Int seed);
      ("seconds", Obs.Json.Float seconds);
      ("warmup_s", Obs.Json.Float warmup);
      ("nproc", Obs.Json.Int (Domain.recommended_domain_count ()));
      ("traced", Obs.Json.Bool traced);
      ("smoke", Obs.Json.Bool smoke);
      ( "workloads",
        Obs.Json.Obj
          (List.map
             (fun r ->
               ( r.workload,
                 Obs.Json.Obj
                   [
                     ("correct", Obs.Json.Bool (correct r));
                     ("attempted", Obs.Json.Int r.attempted);
                     ("failed", Obs.Json.Int r.failed);
                     ("errors", Obs.Json.List (List.map (fun e -> Obs.Json.String e) r.errors));
                     ("metrics", metrics_json r.e2e);
                     ("per_layer", metrics_json r.layer);
                     ("notes", Obs.Json.Obj r.notes);
                   ] ))
             rs) );
    ]

(* The result line: one JSON object, last on stdout, for tools that
   run the benchmark. A single workload reports its metrics by name;
   several are prefixed by workload. *)
let result_line ~traced rs =
  let pick r = if traced then r.layer else r.e2e in
  let entries =
    match rs with
    | [ r ] -> List.map (fun (n, v) -> (n, metric_json n v)) (pick r)
    | rs -> List.concat_map (fun r -> List.map (fun (n, v) -> (r.workload ^ "." ^ n, metric_json n v)) (pick r)) rs
  in
  let metrics = Obs.Json.Obj entries in
  Obs.Json.to_string
    (Obs.Json.Obj
       [
         ("correct", Obs.Json.Bool (List.for_all correct rs));
         ("attempted", Obs.Json.Int (List.fold_left (fun a r -> a + r.attempted) 0 rs));
         ("failed", Obs.Json.Int (List.fold_left (fun a r -> a + r.failed + List.length r.errors) 0 rs));
         ("metrics", metrics);
       ])

(* ---- BENCHMARK.json ---- *)

let read_json path =
  match Obs.Json.of_string (In_channel.with_open_bin path In_channel.input_all) with
  | Ok j -> j
  | Error e -> failwith (Printf.sprintf "%s: %s" path e)

let str = function Some (Obs.Json.String s) -> s | _ -> ""

let num = function
  | Some (Obs.Json.Float f) -> Some f
  | Some (Obs.Json.Int i) -> Some (float_of_int i)
  | _ -> None

let list = function Some (Obs.Json.List l) -> l | _ -> []

(* name -> (unit, better, bound) for every metric BENCHMARK.json lists. *)
let declared bench =
  List.map
    (fun m ->
      ( str (Obs.Json.member "name" m),
        (str (Obs.Json.member "unit" m), str (Obs.Json.member "better" m), num (Obs.Json.member "bound" m)) ))
    (list (Obs.Json.member "end_to_end" bench) @ list (Obs.Json.member "per_layer" bench))

let check_benchmark_json ~workloads path =
  let bench = read_json path in
  let d = declared bench in
  let expect (name, unit, better) =
    match List.assoc_opt name d with
    | None -> [ Printf.sprintf "%s: metric %s missing" path name ]
    | Some (u, b, _) ->
        (if u <> unit then [ Printf.sprintf "%s: %s unit %s, code says %s" path name u unit ] else [])
        @
        let b' = match better with Higher -> "higher" | Lower -> "lower" in
        if b <> b' then [ Printf.sprintf "%s: %s better=%s, code says %s" path name b b' ] else []
  in
  let names l = List.map (fun m -> str (Obs.Json.member "name" m)) (list (Obs.Json.member l bench)) in
  let extra kind decl code =
    List.filter_map
      (fun n -> if List.exists (fun (c, _, _) -> c = n) code then None else Some (Printf.sprintf "%s: %s %s not produced" path kind n))
      decl
  in
  let wl = List.map (fun w -> str (Obs.Json.member "name" w)) (list (Obs.Json.member "workloads" bench)) in
  List.concat_map expect (e2e_metrics @ per_layer_metrics)
  @ extra "end_to_end metric" (names "end_to_end") e2e_metrics
  @ extra "per_layer metric" (names "per_layer") per_layer_metrics
  @ if wl <> workloads then [ Printf.sprintf "%s: workloads %s, code has %s" path (String.concat "," wl) (String.concat "," workloads) ] else []

(* ---- --compare ---- *)

(* A side of a comparison is a results file or a directory of them;
   each metric is the median over the runs found. *)
let load_side path =
  let files =
    if Sys.is_directory path then
      Sys.readdir path |> Array.to_list |> List.filter (fun f -> Filename.check_suffix f ".json") |> List.sort compare
      |> List.map (Filename.concat path)
    else [ path ]
  in
  if files = [] then failwith (path ^ ": no results files");
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun f ->
      let j = read_json f in
      match Obs.Json.member "workloads" j with
      | Some (Obs.Json.Obj ws) ->
          List.iter
            (fun (w, body) ->
              List.iter
                (fun section ->
                  match Obs.Json.member section body with
                  | Some (Obs.Json.Obj ms) ->
                      List.iter
                        (fun (m, v) ->
                          match num (Obs.Json.member "value" v) with
                          | Some x -> Hashtbl.replace tbl (w, m) (x :: Option.value (Hashtbl.find_opt tbl (w, m)) ~default:[])
                          | None -> ())
                        ms
                  | _ -> ())
                [ "metrics"; "per_layer" ])
            ws
      | _ -> failwith (f ^ ": not a results file"))
    files;
  (List.length files, fun w m -> Option.map Util.median (Hashtbl.find_opt tbl (w, m)))

let compare ~bench_path base_path new_path =
  let bench = read_json bench_path in
  let d = declared bench in
  let workloads = List.map (fun w -> str (Obs.Json.member "name" w)) (list (Obs.Json.member "workloads" bench)) in
  let nb, base = load_side base_path and nn, next = load_side new_path in
  Printf.printf "compare: base %s (%d files) vs change %s (%d files), medians\n" base_path nb new_path nn;
  let errors = ref 0 and worse = ref 0 in
  List.iter
    (fun w ->
      Printf.printf "\n[%s]\n%-32s %14s %14s %9s  %s\n" w "metric" "base" "change" "delta" "verdict";
      List.iter
        (fun (m, (unit, better, bound)) ->
          match (base w m, next w m, bound) with
          | Some b, Some c, _ ->
              let delta = if b = 0. then 0. else (c -. b) /. abs_float b in
              let gain = if better = "higher" then delta else -.delta in
              let verdict =
                match bound with
                | None -> "(no bound)"
                | Some bound ->
                    if gain < -.bound then (
                      incr worse;
                      "WORSE")
                    else if gain > bound then "better"
                    else "within bound"
              in
              Printf.printf "%-32s %14.4f %14.4f %+8.2f%%  %s %s\n" m b c (100. *. delta) verdict unit
          | _, _, Some _ ->
              incr errors;
              Printf.printf "%-32s %s\n" m "MISSING (error)"
          | _ -> ())
        d)
    workloads;
  Printf.printf "\n%d worse, %d missing\n" !worse !errors;
  if !errors > 0 then 2 else if !worse > 0 then 1 else 0
