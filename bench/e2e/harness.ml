(* What every workload shares: load lanes and timed phases, checked
   requests, registry deltas, pool preload, server lifecycle, and the
   assembly of the end-to-end and per-layer metrics. *)

open Util
module Store = Mvdict.Pskiplist.Make (Mvdict.Codec.Int_key) (Mvdict.Codec.Int_value)
module Mt = Workload.Mt19937

type cfg = {
  seed : int;
  seconds : float;  (** timed phase *)
  warmup : float;  (** excluded from every number *)
  traced : bool;
  smoke : bool;
  mvkv : string;  (** absolute path of the mvkv executable *)
  trace_dir : string;  (** absolute *)
}

let setup_reps cfg = if cfg.smoke then 1 else 5
let recover_reps cfg = if cfg.smoke then 1 else 5

(* Median time of [Util.reference_task_s] on the 2-core host the bounds
   were set on. setup_s is read at that host speed. *)
let reference_nominal_s = 0.09

(* Set the system up [setup_reps] times, timing the reference task
   before each; [rep ~last] returns one set-up's time, and the last one
   stays up for the run. Returns the set-up and reference times. *)
let set_up cfg rep =
  let reps = setup_reps cfg in
  List.split
    (List.init reps (fun i ->
         let r = reference_task_s () in
         (rep ~last:(i = reps - 1), r)))

(* Keys whose last acknowledged value is re-read after a restart. *)
let verify_keys = 10_000

(* ---- load lanes ---- *)

(* One load thread with its own generator, samples and counters. Lanes
   of one workload touch disjoint keys when they write, so each key has
   a single writer and its last acknowledged value is known. *)
type lane = {
  id : int;
  rng : Mt.t;
  reads : Lat.t;
  writes : Lat.t;
  tags : Lat.t;
  mutable recording : bool;
  mutable ops : int;  (** timed calls of every kind *)
  mutable items : int;  (** timed units of work (ops, keys or pairs) *)
  mutable write_calls : int;  (** timed write calls *)
  mutable keys_written : int;  (** timed keys written *)
  mutable seq : int;
  mutable attempted : int;
  mutable failed : int;
  mutable error : string option;
  mutable minor_words : float;
  mutable drain : (unit -> unit) option;  (** empty the server span rings *)
}

let make_lane cfg ~node id =
  {
    id;
    rng = Mt.create_by_array (Workload.Keygen.thread_seed ~base:cfg.seed ~node ~thread:id);
    reads = Lat.create ();
    writes = Lat.create ();
    tags = Lat.create ();
    recording = false;
    ops = 0;
    items = 0;
    write_calls = 0;
    keys_written = 0;
    seq = 0;
    attempted = 0;
    failed = 0;
    error = None;
    minor_words = 0.;
    drain = None;
  }

let failure lane msg =
  lane.failed <- lane.failed + 1;
  if lane.error = None then lane.error <- Some msg

(* One checked request: [f] answers whether the result was right. A
   raised exception is a failed request too. *)
let attempt lane what f =
  lane.attempted <- lane.attempted + 1;
  match f () with
  | true -> ()
  | false -> failure lane (what ^ ": wrong result")
  | exception e -> failure lane (what ^ ": " ^ Printexc.to_string e)

let fresh lane =
  lane.seq <- lane.seq + 1;
  fresh_value ~writer:lane.id lane.seq

(* Rings hold [Tracing.server_ring] spans and every request leaves at
   most a handful, so draining this often never lets one wrap. *)
let drain_every = 250
let traced_ops = Atomic.make 0

(* A server dumps its ring and then clears it, so a span recorded in
   between is lost: drains run only while every other lane is parked
   between two requests. [inside] counts parked lanes, [exited] lanes
   whose phase is over. *)
let drain_wanted = Atomic.make false
let inside = Atomic.make 0
let exited = Atomic.make 0
let lanes_in_phase = ref 1

(* Parked lanes sleep rather than spin: the servers share the cores. *)
let wait_while cond =
  while cond () do
    Unix.sleepf 20e-6
  done

let park () =
  if Atomic.get drain_wanted then begin
    Atomic.incr inside;
    wait_while (fun () -> Atomic.get drain_wanted);
    Atomic.decr inside
  end

(* Wall time spent draining, which a traced run's throughput excludes. *)
let drain_ns = Atomic.make 0

let drain_quiesced lane drain =
  if Atomic.compare_and_set drain_wanted false true then begin
    let t0 = now_ns () in
    wait_while (fun () -> Atomic.get inside + Atomic.get exited < !lanes_in_phase - 1);
    (try drain () with e -> failure lane ("trace drain: " ^ Printexc.to_string e));
    Atomic.set drain_wanted false;
    (* let every parked lane leave before a next drain counts them *)
    wait_while (fun () -> Atomic.get inside > 0);
    ignore (Atomic.fetch_and_add drain_ns (now_ns () - t0))
  end
  else park ()

(* Time one call of the workload into [lat]. The span it opens is the
   request's root in a traced run. *)
let timed lane lat ?(items = 1) ?(writes = 0) name f =
  let t0 = now_ns () in
  let r = Tracing.op name f in
  if lane.recording then begin
    Lat.add lat (now_ns () - t0);
    lane.ops <- lane.ops + 1;
    lane.items <- lane.items + items;
    if writes > 0 then begin
      lane.write_calls <- lane.write_calls + 1;
      lane.keys_written <- lane.keys_written + writes
    end;
    match lane.drain with
    | Some drain when (Atomic.fetch_and_add traced_ops 1 + 1) mod drain_every = 0 -> drain_quiesced lane drain
    | _ -> ()
  end;
  r

(* Run every lane for [secs]: lane 0 on this domain, the others on one
   domain each. Returns the phase's wall time less the time spent
   draining span rings. *)
let run_phase lanes ~secs ~record step =
  List.iter (fun l -> l.recording <- record) lanes;
  Atomic.set traced_ops 0;
  Atomic.set exited 0;
  Atomic.set drain_ns 0;
  lanes_in_phase := List.length lanes;
  let t0 = now_ns () in
  let deadline = t0 + int_of_float (secs *. 1e9) in
  let body lane () =
    let w0 = Gc.minor_words () in
    while now_ns () < deadline do
      park ();
      step lane
    done;
    Atomic.incr exited;
    if record then lane.minor_words <- lane.minor_words +. (Gc.minor_words () -. w0)
  in
  (match lanes with
  | [] -> ()
  | first :: rest ->
      let others = List.map (fun l -> Domain.spawn (body l)) rest in
      body first ();
      List.iter Domain.join others);
  List.iter (fun l -> l.recording <- false) lanes;
  secs_since t0 -. (float_of_int (Atomic.get drain_ns) /. 1e9)

let sum f lanes = List.fold_left (fun a l -> a + f l) 0 lanes

(* ---- registry deltas over the timed phase ---- *)

let snap_of_string s =
  match Obs.Json.of_string s with
  | Error e -> failwith ("registry snapshot: " ^ e)
  | Ok j -> ( match Obs.Snap.of_json j with Ok s -> s | Error e -> failwith ("registry snapshot: " ^ e))

(* One store-holding process: its registry before and after. *)
type delta = { before : Obs.Snap.t; after : Obs.Snap.t }

let counter ds name =
  List.fold_left (fun a d -> a +. float_of_int (Obs.Snap.counter d.after name - Obs.Snap.counter d.before name)) 0. ds

let hist ds names =
  let get s n = match Obs.Snap.find_hist s n with Some h -> (h.Obs.Snap.hcount, h.Obs.Snap.hsum) | None -> (0, 0) in
  List.fold_left
    (fun (c, s) d ->
      List.fold_left
        (fun (c, s) n ->
          let c1, s1 = get d.after n and c0, s0 = get d.before n in
          (c +. float_of_int (c1 - c0), s +. float_of_int (s1 - s0)))
        (c, s) names)
    (0., 0.) ds

let write_hists =
  List.map (fun op -> "mvdict.pskiplist." ^ op ^ ".ns") [ "insert"; "remove"; "insert_batch"; "remove_batch" ]

(* ---- pools ---- *)

(* Preload cost of Store.insert_batch, for mvdict.insert_batch_us_per_key. *)
let batch_ns = ref 0
let batch_keys = ref 0

let chunk = 4096

(* Write one version: insert every key not [dead], remove the dead ones,
   in ascending batches of [chunk], then tag. *)
let load_version st ~keys ~value ~dead =
  let live = ref [] and gone = ref [] and pending = ref 0 in
  let flush () =
    if !live <> [] then begin
      let t0 = now_ns () in
      Store.insert_batch st !live;
      batch_ns := !batch_ns + (now_ns () - t0);
      batch_keys := !batch_keys + List.length !live
    end;
    if !gone <> [] then Store.remove_batch st !gone;
    live := [];
    gone := [];
    pending := 0
  in
  Array.iteri
    (fun i k ->
      if dead i then gone := k :: !gone else live := (k, value i) :: !live;
      incr pending;
      if !pending = chunk then flush ())
    keys;
  flush ();
  ignore (Store.tag st)

(* Pool files are sparse: only the pages the store touches cost memory
   or disk. The headroom lets a store many times faster than today's,
   whose timed phase writes proportionally more, run without filling
   its pool. *)
let pool_bytes = 1 lsl 30

let init_pool cfg ~path =
  (try Sys.remove path with Sys_error _ -> ());
  Proc.run_to_end ~log:"init.log" cfg.mvkv [ "init"; "--pool"; path; "--size"; string_of_int pool_bytes ]

let open_pool path =
  let heap = Pmem.Pheap.open_file ~path in
  (heap, Store.open_existing heap)

let live_bytes heap = Pmem.Pstats.live_bytes (Pmem.Pheap.stats heap)

(* ---- per-layer probes (traced runs) ---- *)

type probes = {
  index_ns : float;
  word_ns : float;
  read_us : float;
  read_words : float;
  wire : float * float * float;
}

let no_probes = { index_ns = nan; word_ns = nan; read_us = nan; read_words = nan; wire = (nan, nan, nan) }

(* Probe the store of the last set-up repetition. [read rng] performs
   the workload's read once on that store. Returns the probes and the
   time they took, which set-up time excludes. *)
let run_probes cfg ~heap ~keys ~read ~mix =
  if not cfg.traced then (no_probes, 0.)
  else begin
    let t0 = now_ns () in
    let rng = Mt.create (cfg.seed + 17) in
    let read_ns = Probe.time_per (fun () -> read rng) in
    let p =
      {
        index_ns = Probe.index_find_ns ~seed:cfg.seed keys;
        word_ns = Probe.read_word_ns ~seed:cfg.seed heap;
        read_us = read_ns /. 1e3;
        read_words = Probe.minor_words_per ~calls:2000 (fun () -> read rng);
        wire = Probe.wire ~mix;
      }
    in
    (p, secs_since t0)
  end

(* ---- served workloads ---- *)

type server = { args : string list; log : string; mutable pid : int }

let start_server cfg ~log args = { args; log; pid = Proc.spawn ~log cfg.mvkv args }

let restart cfg srv =
  Proc.kill srv.pid;
  srv.pid <- Proc.spawn ~log:srv.log cfg.mvkv srv.args

(* A connection to [addr] once the server there answers a ping. *)
let connect_ready addr =
  Proc.wait_until ~what:(Net.Sockaddr.to_string addr) ~deadline_s:60. (fun () ->
      match Net.Client.connect ~retries:0 addr with
      | exception _ -> None
      | c -> (
          match Net.Client.ping c with
          | () -> Some c
          | exception _ ->
              Net.Client.close c;
              None))

let rss_of servers = List.fold_left (fun a s -> a +. vm_hwm_mb (string_of_int s.pid)) 0. servers

(* The footprint of the closed pool [pool] in a process of its own: a
   fresh `mvkv serve` opens it and answers a ping. This process's peak
   would also count the load generator's tables and every earlier
   set-up. Returns MB and the seconds this took. *)
let served_rss_mb cfg ~pool =
  let t0 = now_ns () and sock = "rss.sock" in
  let srv = start_server cfg ~log:"rss.log" [ "serve"; "--pool"; pool; "--socket"; sock ] in
  Net.Client.close (connect_ready (Net.Sockaddr.Unix_sock sock));
  let rss = rss_of [ srv ] in
  Proc.kill srv.pid;
  (rss, secs_since t0)

(* Indices of up to [verify_keys] keys some lane wrote, ascending. *)
let written_sample written =
  let out = ref [] and n = ref 0 in
  Array.iteri
    (fun i w ->
      if w && !n < verify_keys then begin
        out := i :: !out;
        incr n
      end)
    written;
  Array.of_list (List.rev !out)

(* Check [lookup] (a bulk current-state read) against the last
   acknowledged value of each sampled key, in chunks of 1,000. *)
let verify lane ~keys ~sample ~expect lookup =
  let n = Array.length sample in
  let i = ref 0 in
  while !i < n do
    let len = min 1000 (n - !i) in
    let idx = Array.sub sample !i len in
    (match lookup (Array.map (fun j -> keys.(j)) idx) with
    | got -> Array.iteri (fun m j -> attempt lane "verify after restart" (fun () -> got.(m) = expect j)) idx
    | exception e -> Array.iter (fun _ -> attempt lane "verify after restart" (fun () -> raise e)) idx);
    i := !i + len
  done

(* ---- results ---- *)

type measured = {
  workload : string;
  lanes : lane list;
  elapsed : float;
  setup : float list;  (** wall times *)
  references : float list;  (** reference task times beside [setup] *)
  recover : float list;  (** restart times; the fastest is reported *)
  pmem_live : float;  (** MB *)
  rss : float;
      (** MB: peak of the store's process(es) once the store is built,
          before load (heap growth under load tracks throughput) *)
  deltas : delta list;  (** store-holding processes, timed phase *)
  apply : string list;  (** registry histograms timing one request's apply *)
  store_in_spans : bool;  (** store calls are spans of this process *)
  probes : probes;
  batch_us_per_key : float;
  extra_errors : string list;
}

let e2e m =
  let keys = float_of_int (sum (fun l -> l.keys_written) m.lanes) in
  [
    ("setup_s", median m.setup *. reference_nominal_s /. median m.references);
    ("pmem_live_mb", m.pmem_live);
    ("rss_mb", m.rss);
    ("pmem_flush_bytes_per_key", float_of_int Pmem.Media.cache_line *. counter m.deltas "pmem.flushed_lines" /. keys);
  ]

(* Per-layer metrics. The end-to-end timings, counters and preload
   timing come from every run; span self times, probes and in-process
   op timings only from a traced run, which then reports all of them. *)
let per_layer cfg ~reads ~writes m =
  let ops = float_of_int (sum (fun l -> l.ops) m.lanes) in
  let items = float_of_int (sum (fun l -> l.items) m.lanes) in
  let wcalls = float_of_int (sum (fun l -> l.write_calls) m.lanes) in
  let keys = float_of_int (sum (fun l -> l.keys_written) m.lanes) in
  let per a b = if b = 0. then 0. else a /. b in
  let c = counter m.deltas in
  let _, pause_ns = hist m.deltas [ "gc.pause_ns" ] in
  let tags = Lat.sorted (List.map (fun l -> l.tags) m.lanes) in
  let counts =
    [
      ("items_per_s", items /. m.elapsed);
      ("read_p50_us", Lat.percentile reads 0.50 /. 1e3);
      ("read_p99_us", Lat.percentile reads 0.99 /. 1e3);
      ("write_p50_us", Lat.percentile writes 0.50 /. 1e3);
      ("write_p99_us", Lat.percentile writes 0.99 /. 1e3);
      ("recover_s", List.fold_left min infinity m.recover);
      ("client.tag_us", Lat.percentile tags 0.5 /. 1e3);
      ("client.minor_words_per_op", per (List.fold_left (fun a l -> a +. l.minor_words) 0. m.lanes) ops);
      ("net.requests_per_op", per (c "net.requests") ops);
      ("net.bytes_per_op", per (c "net.bytes_in" +. c "net.bytes_out") ops);
      ("net.bytes_out_per_item", per (c "net.bytes_out") items);
      ("net.coalesced_frames_per_op", per (c "net.coalesced_frames") ops);
      ("mvdict.insert_batch_us_per_key", m.batch_us_per_key);
      ("pmem.flushed_lines_per_write", per (c "pmem.flushed_lines") wcalls);
      ("pmem.fences_per_write", per (c "pmem.fences") wcalls);
      ("pmem.fences_saved_per_write", per (c "pmem.fences_saved") wcalls);
      ("pmem.alloc_bytes_per_write", per (c "pmem.alloc_bytes") wcalls);
      ("gc.runs", c "gc.runs");
      ("gc.pause_pct", 100. *. per pause_ns (m.elapsed *. 1e9 *. float_of_int (List.length m.deltas)));
      ("gc.reclaimed_bytes_per_key", per (c "gc.bytes_reclaimed") keys);
    ]
  in
  if not cfg.traced then (counts, [])
  else begin
    let apply_count, apply_ns = hist m.deltas m.apply in
    let s = Tracing.summarise ~store_ns:(if m.store_in_spans then 0 else int_of_float apply_ns) in
    let stem = Printf.sprintf "%s-seed%d" m.workload cfg.seed in
    let chrome, table = Tracing.write ~dir:cfg.trace_dir ~stem ~workload:m.workload s in
    let _, write_ns = hist m.deltas write_hists in
    let req_ns, resp_ns, dec_ns = m.probes.wire in
    let traced =
      [
        ("client.self_us", Tracing.per_op_us s s.self_ns.(Tracing.layer_index Client));
        ("share.client_pct", Tracing.share_pct s Client);
        ("share.cluster_pct", Tracing.share_pct s Cluster);
        ("share.server_pct", Tracing.share_pct s Server);
        ("share.store_pct", Tracing.share_pct s Store);
        ("net.apply_us", per apply_ns apply_count /. 1e3);
        ("wire.request_encode_ns", req_ns);
        ("wire.response_encode_ns", resp_ns);
        ("wire.response_decode_ns", dec_ns);
        ("mvdict.read_probe_us", m.probes.read_us);
        ("mvdict.read_probe_minor_words", m.probes.read_words);
        ("mvdict.write_us", per write_ns wcalls /. 1e3);
        ("concurrent.index_find_ns", m.probes.index_ns);
        ("pmem.read_word_ns", m.probes.word_ns);
        ("trace.dropped_spans", float_of_int s.dropped_n);
      ]
    in
    let notes =
      [
        ("trace_chrome", Obs.Json.String chrome);
        ("trace_selftime", Obs.Json.String table);
        ("trace_ops", Obs.Json.Int s.ops);
        ("trace_server_spans", Obs.Json.Int s.remote_n);
        ("trace_unmatched_spans", Obs.Json.Int s.unmatched);
      ]
    in
    (* in the order BENCHMARK.json lists them *)
    let all = counts @ traced in
    (List.map (fun (n, _, _) -> (n, List.assoc n all)) Report.per_layer_metrics, notes)
  end

let finish cfg m =
  let reads = Lat.sorted (List.map (fun l -> l.reads) m.lanes) in
  let writes = Lat.sorted (List.map (fun l -> l.writes) m.lanes) in
  let layer, trace_notes = per_layer cfg ~reads ~writes m in
  let e2e = e2e m in
  let unmeasured =
    List.filter_map
      (fun (n, v) -> if Float.is_finite v then None else Some (Printf.sprintf "metric %s not measured" n))
      (e2e @ layer)
  in
  let dropped = match List.assoc_opt "trace.dropped_spans" layer with Some d when d > 0. -> [ "trace: dropped spans" ] | _ -> [] in
  let count f = Obs.Json.Int (sum (fun l -> f l) m.lanes) in
  {
    Report.workload = m.workload;
    e2e;
    layer;
    attempted = sum (fun l -> l.attempted) m.lanes;
    failed = sum (fun l -> l.failed) m.lanes;
    errors = List.filter_map (fun l -> l.error) m.lanes @ m.extra_errors @ unmeasured @ dropped;
    notes =
      [
        ("elapsed_s", Obs.Json.Float m.elapsed);
        ("read_samples", count (fun l -> Lat.count l.reads));
        ("write_samples", count (fun l -> Lat.count l.writes));
        ("tag_samples", count (fun l -> Lat.count l.tags));
        ("timed_ops", count (fun l -> l.ops));
        ("setup_samples_s", Obs.Json.List (List.map (fun x -> Obs.Json.Float x) m.setup));
        ("reference_samples_s", Obs.Json.List (List.map (fun x -> Obs.Json.Float x) m.references));
        ("recover_samples_s", Obs.Json.List (List.map (fun x -> Obs.Json.Float x) m.recover));
      ]
      @ trace_notes;
  }
