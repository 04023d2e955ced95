(* fig_cluster — sharded serving over real sockets (Sec. IV-A / V-H).

   K in-process lib/net servers, each a PSkipList shard on its own
   Unix-domain socket, driven through the lib/cluster router exactly as
   `mvkv cluster client` drives external shard processes. Three
   measurements per K:

   - routed single-op insert throughput (owner lookup + one frame per op);
   - routed find_bulk throughput (keys bucketed per shard, pipelined);
   - distributed snapshot latency, NaiveMerge (one K-way heap at the
     router) vs OptMerge (recursive-doubling rounds of pairwise
     two-array merges).

   Everything lands in BENCH_cluster.json: the `cluster.*` op
   histograms the router fills plus explicit
   `cluster.bench.{insert_ops_per_sec,bulk_ops_per_sec,snapshot_naive_us,
   snapshot_opt_us}.k<K>` gauges per shard count. The smoke gate in
   main.ml checks both snapshot modes are present and positive for
   every K. On this 1-core container the sweep prices protocol and
   merge overheads, not parallel speedup — see DESIGN.md. *)

module Store = Mvdict.Pskiplist.Make (Mvdict.Codec.Int_key) (Mvdict.Codec.Int_value)

let shard_counts = [ 1; 2; 4; 8 ]
let snapshot_reps = 3

let socket_path k i = Printf.sprintf "fig_cluster_%d_%d_%d.sock" (Unix.getpid ()) k i

let ok = function
  | Ok v -> v
  | Error e -> failwith ("fig_cluster: " ^ Cluster.Router.error_to_string e)

(* Smallest key space holding [n] distinct keys (>= 8 bits so tiny
   smoke runs still split across 8 shards). *)
let key_bits_for n =
  let rec go bits = if 1 lsl bits >= n then bits else go (bits + 1) in
  go 8

let time_snapshot router ~mode =
  let best = ref infinity in
  for _ = 1 to snapshot_reps do
    let t0 = Unix.gettimeofday () in
    let pairs = ok (Cluster.Router.snapshot router ~mode ()) in
    let dt = Unix.gettimeofday () -. t0 in
    if Array.length pairs = 0 then failwith "fig_cluster: empty snapshot";
    if dt < !best then best := dt
  done;
  !best

let gauge_set name k v =
  Obs.Metric.set (Obs.Registry.gauge (Printf.sprintf "cluster.bench.%s.k%d" name k)) v

let run_one ~n k =
  let key_bits = key_bits_for n in
  let stores =
    Array.init k (fun _ ->
        Store.create (Pmem.Pheap.create_ram ~capacity:(max (1 lsl 24) (n * 160)) ()))
  in
  let paths = Array.init k (socket_path k) in
  let servers =
    Array.init k (fun i ->
        Net.Server.start ~store:stores.(i) ~workers:1 ~batch:256
          ~listen:(Net.Sockaddr.Unix_sock paths.(i)) ())
  in
  let topo =
    Cluster.Topology.create ~key_bits
      (Array.map (fun p -> Net.Sockaddr.Unix_sock p) paths)
  in
  let router = Cluster.Router.create topo in
  Fun.protect
    ~finally:(fun () ->
      Cluster.Router.close router;
      Array.iter Net.Server.stop servers;
      Array.iter (fun p -> try Sys.remove p with Sys_error _ -> ()) paths)
    (fun () ->
      ok (Cluster.Router.ping router);
      (* routed inserts: keys 0..n-1 cover the key space, so the range
         partition spreads them evenly over the K shards *)
      let t0 = Unix.gettimeofday () in
      for key = 0 to n - 1 do
        ok (Cluster.Router.insert router ~key ~value:(key * 3))
      done;
      let insert_ops = float_of_int n /. (Unix.gettimeofday () -. t0) in
      let version = ok (Cluster.Router.tag router) in
      if version < 1 then failwith "fig_cluster: cluster tag went backwards";
      (* bulk lookups: one router call per 4096 keys, pipelined per shard *)
      let t0 = Unix.gettimeofday () in
      let looked = ref 0 in
      while !looked < n do
        let chunk = min 4096 (n - !looked) in
        let keys = Array.init chunk (fun j -> !looked + j) in
        let vs = ok (Cluster.Router.find_bulk router keys) in
        Array.iteri
          (fun j v ->
            if v <> Some (keys.(j) * 3) then failwith "fig_cluster: wrong bulk value")
          vs;
        looked := !looked + chunk
      done;
      let bulk_ops = float_of_int n /. (Unix.gettimeofday () -. t0) in
      let naive = time_snapshot router ~mode:Cluster.Router.Naive in
      let opt = time_snapshot router ~mode:(Cluster.Router.Opt { threads = 2 }) in
      gauge_set "insert_ops_per_sec" k (int_of_float insert_ops);
      gauge_set "bulk_ops_per_sec" k (int_of_float bulk_ops);
      gauge_set "snapshot_naive_us" k (int_of_float (naive *. 1e6));
      gauge_set "snapshot_opt_us" k (int_of_float (opt *. 1e6));
      (k, insert_ops, bulk_ops, naive, opt))

(* Returns [(k, insert_ops_per_sec, bulk_ops_per_sec, naive_s, opt_s)]. *)
let run ~n =
  Printf.printf
    "\n== fig cluster: sharded serving over Unix sockets (router + K shards) ==\n";
  Printf.printf "   %d routed ops per shard count, snapshot = best of %d\n%!" n
    snapshot_reps;
  let results = List.map (run_one ~n) shard_counts in
  Printf.printf "   %-6s %14s %14s %14s %14s\n" "shards" "insert ops/s"
    "bulk ops/s" "naive snap" "opt snap";
  List.iter
    (fun (k, ins, bulk, naive, opt) ->
      Printf.printf "   %-6d %14.0f %14.0f %12.2fms %12.2fms\n" k ins bulk
        (naive *. 1e3) (opt *. 1e3))
    results;
  results
