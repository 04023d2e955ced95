(* The four workloads. Each builds its inputs from the seed, sets the
   system up [setup_reps] times (the last set-up stays up for the run),
   warms up, runs the timed closed loop, restarts the store and checks
   every written key it samples, then tears everything down. *)

open Util
open Harness
module Client = Net.Client
module Router = Cluster.Router
module Wire = Net.Wire

let names = [ "hot-point"; "embedded"; "ingest-sharded"; "scan-mixed" ]

let json_of s = match Obs.Json.of_string s with Ok j -> j | Error e -> failwith ("trace dump: " ^ e)

let preload_versions ~keys ~base ~versions st =
  for v = 1 to versions do
    load_version st ~keys ~value:(fun i -> model_value base i v) ~dead:(fun _ -> false)
  done

(* ---- one `mvkv serve`, two connections (hot-point, scan-mixed) ---- *)

type single = {
  name : string;
  node : int;
  keys : int array;
  fill : Store.t -> unit;
  read : Store.t -> Mt.t -> unit;  (** the workload's read, for the store probe *)
  mix : (int * Wire.request * Wire.response) list;
  apply : string list;
  step : Client.t array -> lane -> unit;
  written : bool array;
  expect : int -> int option;  (** last acknowledged value of a written key *)
}

let single_server cfg w =
  let pool = w.name ^ ".mvkv" and sock = w.name ^ ".sock" in
  let addr = Net.Sockaddr.Unix_sock sock in
  let args = [ "serve"; "--pool"; pool; "--socket"; sock ] in
  let srv = ref None and probes = ref no_probes and live = ref nan in
  batch_ns := 0;
  batch_keys := 0;
  let rep ~last =
    let t0 = now_ns () in
    Option.iter (fun s -> Proc.kill s.pid) !srv;
    init_pool cfg ~path:pool;
    let heap, st = open_pool pool in
    w.fill st;
    live := mb (live_bytes heap);
    let p, excluded =
      if last then run_probes cfg ~heap ~keys:w.keys ~read:(w.read st) ~mix:w.mix else (no_probes, 0.)
    in
    probes := p;
    Pmem.Pheap.close heap;
    srv := Some (start_server cfg ~log:(w.name ^ ".log") args);
    Client.close (connect_ready addr);
    secs_since t0 -. excluded
  in
  let setup, references = set_up cfg rep in
  let srv = Option.get !srv in
  let rss = rss_of [ srv ] in
  let lanes = List.init 2 (make_lane cfg ~node:w.node) in
  let conns = Array.of_list (List.map (fun _ -> connect_ready addr) lanes) in
  if cfg.traced then
    List.iter
      (fun l -> l.drain <- Some (fun () -> Tracing.ingest ~label:"mvkv serve" (json_of (Client.trace_dump conns.(l.id)))))
      lanes;
  let step = w.step conns in
  ignore (run_phase lanes ~secs:cfg.warmup ~record:false step);
  if cfg.traced then begin
    ignore (Client.trace_dump conns.(0));
    Tracing.start_timed ()
  end;
  let before = snap_of_string (Client.registry_snap conns.(0)) in
  let elapsed = run_phase lanes ~secs:cfg.seconds ~record:true step in
  let after = snap_of_string (Client.registry_snap conns.(0)) in
  let lane0 = List.hd lanes in
  if cfg.traced then Option.iter (fun d -> d ()) lane0.drain;
  Array.iter Client.close conns;
  let sample = written_sample w.written in
  let recover =
    List.init (recover_reps cfg) (fun i ->
        let t0 = now_ns () in
        restart cfg srv;
        let c = connect_ready addr in
        let dt = secs_since t0 in
        if i = recover_reps cfg - 1 then
          verify lane0 ~keys:w.keys ~sample ~expect:w.expect (fun ks -> Client.find_bulk c ks);
        Client.close c;
        dt)
  in
  Proc.kill srv.pid;
  finish cfg
    {
      workload = w.name;
      lanes;
      elapsed;
      setup;
      references;
      recover;
      pmem_live = !live;
      rss;
      deltas = [ { before; after } ];
      apply = w.apply;
      store_in_spans = false;
      probes = !probes;
      batch_us_per_key = float_of_int !batch_ns /. float_of_int (max 1 !batch_keys) /. 1e3;
      extra_errors = (if Array.length sample = 0 then [ "no written key to verify" ] else []);
    }

(* A random key index of [lane]'s own parity. On a file-backed pool a
   read that races a write to the same key can answer wrongly (see
   "Known store defect" in README.md), so lanes that run side by side
   read and write disjoint keys. *)
let own_key lane n = (2 * Mt.next_int lane.rng (n / 2)) + lane.id

let tag_every lane ~every c =
  if lane.seq mod every = 0 then
    attempt lane "tag" (fun () -> timed lane lane.tags ~items:0 "e2e.tag" (fun () -> Client.tag c) > 0)

let insert_own lane ~keys ~last ~written ~items c i =
  let v = fresh lane in
  attempt lane "insert" (fun () ->
      timed lane lane.writes ~items ~writes:1 "e2e.insert" (fun () -> Client.insert c ~key:keys.(i) ~value:v);
      last.(i) <- v;
      written.(i) <- true;
      true)

(* hot-point: a small store that stays in cache, so the wire, the
   syscalls and the server's dispatch dominate each request. *)
let hot_point cfg =
  let n = if cfg.smoke then 512 else 8192 and versions = if cfg.smoke then 4 else 8 in
  let keys = distinct_keys ~seed:cfg.seed ~bits:61 n in
  let base = Workload.Keygen.values ~seed:cfg.seed n in
  let last = Array.make n 0 and written = Array.make n false in
  let step conns lane =
    let c = conns.(lane.id) in
    let i = own_key lane n in
    if Mt.next_int lane.rng 10 = 0 then begin
      insert_own lane ~keys ~last ~written ~items:1 c i;
      if lane.id = 0 then tag_every lane ~every:256 c
    end
    else begin
      let v = 1 + Mt.next_int lane.rng versions in
      attempt lane "find" (fun () ->
          timed lane lane.reads "e2e.find" (fun () -> Client.find c ~version:v keys.(i))
          = Some (model_value base i v))
    end
  in
  single_server cfg
    {
      name = "hot-point";
      node = 1;
      keys;
      fill = preload_versions ~keys ~base ~versions;
      read = (fun st rng -> ignore (Store.find st ~version:(1 + Mt.next_int rng versions) keys.(Mt.next_int rng n)));
      mix =
        [
          (9, Wire.Find { key = keys.(0); version = Some 1 }, Wire.Value (Some (model_value base 0 1)));
          (1, Wire.Insert { key = keys.(0); value = fresh_value ~writer:0 1 }, Wire.Ack);
        ];
      apply = [ "net.find.ns"; "net.insert.ns"; "net.tag.ns" ];
      step;
      written;
      expect = (fun i -> Some last.(i));
    }

(* scan-mixed: paged range scans pinned at preloaded versions beside a
   writer whose histories grow all run (no GC). The scans cover the
   lower half of the keys in key order and the writer writes the upper
   half, so that no key is read while it is written (see [own_key]). *)
let scan_mixed cfg =
  let n = if cfg.smoke then 4096 else 65_536 and versions = if cfg.smoke then 4 else 8 in
  let width = if cfg.smoke then 100 else 1000 in
  let keys = distinct_keys ~seed:cfg.seed ~bits:61 n in
  let base = Workload.Keygen.values ~seed:cfg.seed n in
  let order = Array.init n Fun.id in
  Array.sort (fun a b -> compare keys.(a) keys.(b)) order;
  let last = Array.make n 0 and written = Array.make n false in
  (* positions j to j + width of the key order, the last one the
     exclusive bound, all in the lower half *)
  let range rng =
    let j = Mt.next_int rng ((n / 2) - width - 1) and v = 1 + Mt.next_int rng versions in
    (j, v, keys.(order.(j)), keys.(order.(j + width)))
  in
  let step conns lane =
    let c = conns.(lane.id) in
    if lane.id = 0 then begin
      let j, v, lo, hi = range lane.rng in
      attempt lane "scan" (fun () ->
          let m = ref 0 and ok = ref true in
          let total =
            timed lane lane.reads ~items:width "e2e.scan" (fun () ->
                Client.scan c ~version:v ~lo ~hi (fun k value ->
                    (if !m >= width then ok := false
                     else
                       let i = order.(j + !m) in
                       if k <> keys.(i) || value <> model_value base i v then ok := false);
                    incr m))
          in
          !ok && total = width && !m = width)
    end
    else begin
      insert_own lane ~keys ~last ~written ~items:0 c order.((n / 2) + Mt.next_int lane.rng (n / 2));
      tag_every lane ~every:1000 c
    end
  in
  let pairs = Array.init width (fun m -> (keys.(order.(m)), model_value base order.(m) 1)) in
  single_server cfg
    {
      name = "scan-mixed";
      node = 4;
      keys;
      fill = preload_versions ~keys ~base ~versions;
      read =
        (fun st rng ->
          let _, v, lo, hi = range rng in
          Store.iter_range st ~version:v ~lo ~hi (fun _ _ -> ()));
      mix =
        [
          (1, Wire.Scan { lo = fst pairs.(0); hi = max_int; version = Some 1; limit = 0 }, Wire.Pairs pairs);
          (1, Wire.Scan { lo = fst pairs.(width - 1) + 1; hi = max_int; version = Some 1; limit = 0 }, Wire.Pairs [||]);
          (4, Wire.Insert { key = keys.(0); value = fresh_value ~writer:1 1 }, Wire.Ack);
        ];
      apply = [ "net.scan.ns"; "net.insert.ns"; "net.tag.ns" ];
      step;
      written;
      expect = (fun i -> Some last.(i));
    }

(* ---- embedded: the library in this process, no wire ----

   The store, about 29 MB of pmem plus its index, is larger than a
   core's L2 (4 MiB) and smaller than the host's shared L3 (300 MiB).
   Outgrowing L3 takes about ten times the keys, whose preload does not
   fit in a run's time budget. *)

let embedded cfg =
  let n = if cfg.smoke then 5000 else 120_000 and versions = 4 in
  let keys = distinct_keys ~seed:cfg.seed ~bits:61 n in
  let base = Workload.Keygen.values ~seed:cfg.seed n in
  (* version [versions] removes a random quarter of the keys *)
  let dead = Array.make n false in
  Array.iteri
    (fun r i -> if r < n / 4 then dead.(i) <- true)
    (Workload.Keygen.shuffled_copy ~seed:cfg.seed (Array.init n Fun.id));
  let preloaded i v = if v = versions && dead.(i) then None else Some (model_value base i v) in
  let pool = "embedded.mvkv" in
  let fill st =
    for v = 1 to versions do
      load_version st ~keys ~value:(fun i -> model_value base i v) ~dead:(fun i -> v = versions && dead.(i))
    done
  in
  let store = ref None and probes = ref no_probes and live = ref nan and rss = ref nan in
  batch_ns := 0;
  batch_keys := 0;
  let rep ~last =
    let t0 = now_ns () in
    Option.iter (fun (heap, _) -> Pmem.Pheap.close heap) !store;
    store := None;
    init_pool cfg ~path:pool;
    let heap, st = open_pool pool in
    fill st;
    live := mb (live_bytes heap);
    Pmem.Pheap.close heap;
    let rss_excluded =
      if not last then 0.
      else
        let r, dt = served_rss_mb cfg ~pool in
        rss := r;
        dt
    in
    let heap, st = open_pool pool in
    store := Some (heap, st);
    let read st rng =
      ignore (Store.find st ~version:(1 + Mt.next_int rng versions) keys.(Mt.next_int rng n))
    in
    let mix =
      [
        (16, Wire.Find { key = keys.(0); version = Some 1 }, Wire.Value (Some (model_value base 0 1)));
        (3, Wire.Insert { key = keys.(0); value = fresh_value ~writer:0 1 }, Wire.Ack);
        (1, Wire.Remove { key = keys.(0) }, Wire.Ack);
      ]
    in
    let p, excluded = if last then run_probes cfg ~heap ~keys ~read:(read st) ~mix else (no_probes, 0.) in
    probes := p;
    secs_since t0 -. excluded -. rss_excluded
  in
  let setup, references = set_up cfg rep in
  let heap, st = Option.get !store in
  (* last.(i): the key's current value after the run's writes *)
  let last = Array.make n None and written = Array.make n false in
  let step lane =
    let r = Mt.next_int lane.rng 100 and i = own_key lane n in
    if r < 80 then begin
      let v = 1 + Mt.next_int lane.rng versions in
      attempt lane "find" (fun () ->
          timed lane lane.reads "e2e.find" (fun () ->
              Tracing.layer "mvdict.find" (fun () -> Store.find st ~version:v keys.(i)))
          = preloaded i v)
    end
    else if r < 95 then begin
      let v = fresh lane in
      attempt lane "insert" (fun () ->
          timed lane lane.writes ~writes:1 "e2e.insert" (fun () ->
              Tracing.layer "mvdict.insert" (fun () -> Store.insert st keys.(i) v));
          last.(i) <- Some v;
          written.(i) <- true;
          true)
    end
    else
      attempt lane "remove" (fun () ->
          timed lane lane.writes ~writes:1 "e2e.remove" (fun () ->
              Tracing.layer "mvdict.remove" (fun () -> Store.remove st keys.(i)));
          last.(i) <- None;
          written.(i) <- true;
          true);
    if lane.id = 0 && lane.attempted mod 5000 = 0 then
      attempt lane "tag" (fun () ->
          timed lane lane.tags ~items:0 "e2e.tag" (fun () -> Tracing.layer "mvdict.tag" (fun () -> Store.tag st))
          > versions)
  in
  let lanes = List.init 2 (make_lane cfg ~node:2) in
  ignore (run_phase lanes ~secs:cfg.warmup ~record:false step);
  if cfg.traced then Tracing.start_timed ();
  let before = Obs.Snap.of_registry () in
  let elapsed = run_phase lanes ~secs:cfg.seconds ~record:true step in
  let after = Obs.Snap.of_registry () in
  Pmem.Pheap.close heap;
  let lane0 = List.hd lanes in
  let sample = written_sample written in
  let recover =
    List.init (recover_reps cfg) (fun i ->
        let t0 = now_ns () in
        let heap, st = open_pool pool in
        let dt = secs_since t0 in
        if i = recover_reps cfg - 1 then
          verify lane0 ~keys ~sample ~expect:(fun i -> last.(i)) (Array.map (fun k -> Store.find st k));
        Pmem.Pheap.close heap;
        dt)
  in
  finish cfg
    {
      workload = "embedded";
      lanes;
      elapsed;
      setup;
      references;
      recover;
      pmem_live = !live;
      rss = !rss;
      deltas = [ { before; after } ];
      apply = List.map (fun op -> "mvdict.pskiplist." ^ op ^ ".ns") [ "find"; "insert"; "remove" ];
      store_in_spans = true;
      probes = !probes;
      batch_us_per_key = float_of_int !batch_ns /. float_of_int (max 1 !batch_keys) /. 1e3;
      extra_errors = (if Array.length sample = 0 then [ "no written key to verify" ] else []);
    }

(* ---- ingest-sharded: batched writes through the router to two shards
   with background GC ---- *)

let ingest_sharded cfg =
  let n = if cfg.smoke then 4096 else 65_536 in
  let batch = if cfg.smoke then 64 else 256 and removes = if cfg.smoke then 16 else 64 in
  (* enough read samples for a p99 that GC pauses do not dominate *)
  let reads_per_call = 4 in
  let keys = distinct_keys ~seed:cfg.seed ~bits:20 n in
  let base = Workload.Keygen.values ~seed:cfg.seed n in
  let topo_text = "key_bits 20\nshard 0 unix://s0.sock\nshard 1 unix://s1.sock\n" in
  let topo = match Cluster.Topology.of_string topo_text with Ok t -> t | Error e -> failwith e in
  let shards = Cluster.Topology.shards topo in
  let owned s = Array.of_list (List.filter (fun k -> Cluster.Topology.owner topo k = s) (Array.to_list keys)) in
  let index = Hashtbl.create n in
  Array.iteri (fun i k -> Hashtbl.replace index k i) keys;
  let shard_keys = Array.init shards owned in
  let pool s = Printf.sprintf "s%d.mvkv" s in
  let args s =
    [ "cluster"; "serve"; "--topology"; "topo.txt"; "--shard"; string_of_int s; "--pool"; pool s; "--retain"; "16"; "--gc-interval"; "1" ]
  in
  let ok what = function Ok v -> v | Error e -> failwith (what ^ ": " ^ Router.error_to_string e) in
  let servers = ref [] and router = ref None and probes = ref no_probes and preload_live = ref [||] in
  batch_ns := 0;
  batch_keys := 0;
  let ping_all r = Proc.wait_until ~what:"shards" ~deadline_s:60. (fun () -> Result.to_option (Router.ping r)) in
  let rep ~last =
    let t0 = now_ns () in
    Option.iter Router.close !router;
    List.iter (fun s -> Proc.kill s.pid) !servers;
    Out_channel.with_open_text "topo.txt" (fun oc -> output_string oc topo_text);
    let excluded = ref 0. in
    preload_live :=
      Array.init shards (fun s ->
          init_pool cfg ~path:(pool s);
          let heap, st = open_pool (pool s) in
          let ks = shard_keys.(s) in
          load_version st ~keys:ks ~value:(fun j -> model_value base (Hashtbl.find index ks.(j)) 1) ~dead:(fun _ -> false);
          if last && s = 0 then begin
            let read st rng = ignore (Store.find st ks.(Mt.next_int rng (Array.length ks))) in
            let pairs = Array.init batch (fun j -> (keys.(j), fresh_value ~writer:0 j)) in
            let mix =
              [
                (1, Wire.Insert_batch { pairs = Array.sub pairs 0 (batch / 2) }, Wire.Ack);
                (reads_per_call / 2, Wire.Find { key = keys.(0); version = None }, Wire.Value (Some 1));
              ]
            in
            let p, dt = run_probes cfg ~heap ~keys:ks ~read:(read st) ~mix in
            probes := p;
            excluded := dt
          end;
          let live = live_bytes heap in
          Pmem.Pheap.close heap;
          live);
    servers := List.init shards (fun s -> start_server cfg ~log:(Printf.sprintf "s%d.log" s) (args s));
    let r = Router.create ~trace_sample:(if cfg.traced then 1.0 else 0.0) topo in
    router := Some r;
    ping_all r;
    secs_since t0 -. !excluded
  in
  let setup, references = set_up cfg rep in
  let r = Option.get !router in
  let rss = rss_of !servers in
  (* every key is preloaded at version 1; [state.(i)] is its current value *)
  let state = Array.init n (fun i -> Some (model_value base i 1)) and written = Array.make n false in
  let lane = make_lane cfg ~node:3 0 in
  if cfg.traced then lane.drain <- Some (fun () -> Tracing.ingest ~label:"shards" (fst (Router.fleet_trace r)));
  let calls = ref 0 and remove_lat = Lat.create () in
  let step lane =
    incr calls;
    let idx = Array.init batch (fun _ -> Mt.next_int lane.rng n) in
    let pairs = Array.to_list (Array.map (fun i -> (keys.(i), fresh lane)) idx) in
    attempt lane "insert_batch" (fun () ->
        timed lane lane.writes ~items:batch ~writes:batch "e2e.insert_batch" (fun () ->
            ok "insert_batch" (Router.insert_batch r pairs));
        (* within one batch the last occurrence of a key wins *)
        List.iter2 (fun i (_, v) -> state.(i) <- Some v; written.(i) <- true) (Array.to_list idx) pairs;
        true);
    (* read a few keys of the batch back *)
    for j = 0 to reads_per_call - 1 do
      let i = idx.(j) in
      attempt lane "find" (fun () ->
          timed lane lane.reads ~items:0 "e2e.find" (fun () -> ok "find" (Router.find r keys.(i))) = state.(i))
    done;
    if !calls mod 8 = 0 then begin
      let gone = Array.init removes (fun _ -> Mt.next_int lane.rng n) in
      attempt lane "remove_batch" (fun () ->
          timed lane remove_lat ~items:removes ~writes:removes "e2e.remove_batch" (fun () ->
              ok "remove_batch" (Router.remove_batch r (Array.to_list (Array.map (fun i -> keys.(i)) gone))));
          Array.iter (fun i -> state.(i) <- None; written.(i) <- true) gone;
          true)
    end;
    if !calls mod 16 = 0 then
      attempt lane "tag" (fun () -> timed lane lane.tags ~items:0 "e2e.tag" (fun () -> ok "tag" (Router.tag r)) > 1)
  in
  ignore (run_phase [ lane ] ~secs:cfg.warmup ~record:false step);
  if cfg.traced then begin
    ignore (Router.fleet_trace r);
    Tracing.start_timed ()
  end;
  let snaps () =
    List.map
      (fun (ns : Router.node_snap) -> match ns.snap with Ok s -> s | Error e -> failwith ("fleet snapshot: " ^ e))
      (Router.fleet_snaps r)
  in
  let before = snaps () in
  let elapsed = run_phase [ lane ] ~secs:cfg.seconds ~record:true step in
  let after = snaps () in
  if cfg.traced then Option.iter (fun d -> d ()) lane.drain;
  (* a final GC pass down to the servers' own retention window *)
  ignore (ok "compact" (Router.compact r ~keep:16));
  let compacted = snaps () in
  let pmem_live =
    List.fold_left ( +. ) 0.
      (List.mapi
         (fun s snap ->
           mb (!preload_live.(s) + Obs.Snap.counter snap "pmem.alloc_bytes" - Obs.Snap.counter snap "pmem.free_bytes"))
         compacted)
  in
  let sample = written_sample written in
  let recover =
    List.init (recover_reps cfg) (fun i ->
        let t0 = now_ns () in
        List.iter (restart cfg) !servers;
        ping_all r;
        let dt = secs_since t0 in
        if i = recover_reps cfg - 1 then
          verify lane ~keys ~sample ~expect:(fun i -> state.(i)) (fun ks -> ok "find_bulk" (Router.find_bulk r ks));
        dt)
  in
  Router.close r;
  List.iter (fun s -> Proc.kill s.pid) !servers;
  finish cfg
    {
      workload = "ingest-sharded";
      lanes = [ lane ];
      elapsed;
      setup;
      references;
      recover;
      pmem_live;
      rss;
      deltas = List.map2 (fun before after -> { before; after }) before after;
      apply = [ "net.insert_batch.ns"; "net.remove_batch.ns"; "net.find.ns"; "net.tag_at.ns" ];
      store_in_spans = false;
      probes = !probes;
      batch_us_per_key = float_of_int !batch_ns /. float_of_int (max 1 !batch_keys) /. 1e3;
      extra_errors = (if Array.length sample = 0 then [ "no written key to verify" ] else []);
    }

let run cfg = function
  | "hot-point" -> hot_point cfg
  | "embedded" -> embedded cfg
  | "ingest-sharded" -> ingest_sharded cfg
  | "scan-mixed" -> scan_mixed cfg
  | w -> invalid_arg ("unknown workload " ^ w)
