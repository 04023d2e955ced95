(* fig_repl — what replication costs and what failover buys (lib/repl).

   Two in-process single-range clusters over real Unix sockets:

   - unreplicated: one shard, the PR-4 configuration — the write
     throughput baseline;
   - replicated (factor 2): a primary whose chain forwards every
     applied mutation to one backup before the client sees its ack,
     priced against the baseline (the chain's synchronous forward is
     one extra round trip per write);
   - read failover: with the primary stopped, a fresh router's first
     read walks from the dead primary to the backup; the per-event
     latency distribution (p50/p99) is what a primary death costs each
     reader, once.

   Everything lands in BENCH_repl.json: the router's repl.* counters
   and failover histogram plus explicit
   `repl.bench.{unreplicated_ops_per_sec,replicated_ops_per_sec,
   failover_p50_us,failover_p99_us}` gauges. The smoke gate in main.ml
   wants replicated throughput positive, the backup converged to the
   primary's exact state, and failover p99 bounded. *)

module Store = Mvdict.Pskiplist.Make (Mvdict.Codec.Int_key) (Mvdict.Codec.Int_value)

type result = {
  unreplicated_ops : float;
  replicated_ops : float;
  failover_p50_us : float;
  failover_p99_us : float;
  converged : bool;
}

let failover_trials = 32

let socket_path tag = Printf.sprintf "fig_repl_%d_%s.sock" (Unix.getpid ()) tag

let ok = function
  | Ok v -> v
  | Error e -> failwith ("fig_repl: " ^ Cluster.Router.error_to_string e)

let key_bits_for n =
  let rec go bits = if 1 lsl bits >= n then bits else go (bits + 1) in
  go 8

let new_store n =
  Store.create (Pmem.Pheap.create_ram ~capacity:(max (1 lsl 24) (n * 160)) ())

let insert_throughput router n =
  let t0 = Unix.gettimeofday () in
  for key = 0 to n - 1 do
    ok (Cluster.Router.insert router ~key ~value:(key * 7))
  done;
  float_of_int n /. (Unix.gettimeofday () -. t0)

let gauge_set name v =
  Obs.Metric.set (Obs.Registry.gauge ("repl.bench." ^ name)) v

let run_unreplicated ~n =
  let key_bits = key_bits_for n in
  let store = new_store n in
  let path = socket_path "solo" in
  let server =
    Net.Server.start ~store ~workers:1
      ~listen:(Net.Sockaddr.Unix_sock path) ()
  in
  let topo = Cluster.Topology.create ~key_bits [| Net.Sockaddr.Unix_sock path |] in
  let router = Cluster.Router.create topo in
  Fun.protect
    ~finally:(fun () ->
      Cluster.Router.close router;
      Net.Server.stop server;
      try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      let ops = insert_throughput router n in
      ignore (ok (Cluster.Router.tag router));
      ops)

let run_replicated ~n =
  let key_bits = key_bits_for n in
  let primary_store = new_store n and backup_store = new_store n in
  let p_path = socket_path "primary" and b_path = socket_path "backup" in
  let epoch_cell = Atomic.make 0 in
  let backup =
    Net.Server.start ~store:backup_store ~workers:1
      ~epoch_cell:(Atomic.make 0)
      ~listen:(Net.Sockaddr.Unix_sock b_path) ()
  in
  let chain =
    Repl.Chain.create ~epoch_cell ~store:primary_store
      [| Net.Sockaddr.Unix_sock b_path |]
  in
  let primary =
    Net.Server.start ~store:primary_store ~workers:1 ~epoch_cell
      ~on_mutation:(Repl.Chain.on_mutation chain)
      ~listen:(Net.Sockaddr.Unix_sock p_path) ()
  in
  let topo =
    Cluster.Topology.create_replicated ~key_bits
      [| [| Net.Sockaddr.Unix_sock p_path; Net.Sockaddr.Unix_sock b_path |] |]
  in
  let primary_stopped = ref false in
  Fun.protect
    ~finally:(fun () ->
      if not !primary_stopped then Net.Server.stop primary;
      Repl.Chain.close chain;
      Net.Server.stop backup;
      List.iter
        (fun p -> try Sys.remove p with Sys_error _ -> ())
        [ p_path; b_path ])
    (fun () ->
      let router = Cluster.Router.create topo in
      let ops =
        Fun.protect
          ~finally:(fun () -> Cluster.Router.close router)
          (fun () ->
            let ops = insert_throughput router n in
            ignore (ok (Cluster.Router.tag router));
            ops)
      in
      if not (Repl.Chain.in_sync chain) then
        failwith "fig_repl: backup fell out of sync during the write run";
      let converged =
        Store.extract_snapshot primary_store ()
        = Store.extract_snapshot backup_store ()
      in
      (* Release the chain's connection first: the primary is about
         to die, and the failover reads below should be the only
         traffic on the backup. *)
      Repl.Chain.close chain;
      (* Primary dies; each fresh router pays one read failover. *)
      Net.Server.stop primary;
      primary_stopped := true;
      (try Sys.remove p_path with Sys_error _ -> ());
      let lat_us =
        Array.init failover_trials (fun i ->
            let r = Cluster.Router.create ~retries:0 topo in
            let t0 = Unix.gettimeofday () in
            (match ok (Cluster.Router.find r (i mod n)) with
            | Some _ -> ()
            | None -> failwith "fig_repl: failover read lost a write");
            let dt = Unix.gettimeofday () -. t0 in
            Cluster.Router.close r;
            dt *. 1e6)
      in
      Array.sort compare lat_us;
      let pct q = lat_us.(min (failover_trials - 1) (int_of_float (q *. float_of_int failover_trials))) in
      (ops, converged, pct 0.5, pct 0.99))

let run ~n =
  Printf.printf
    "\n== fig repl: replication cost and failover latency (factor 2, Unix sockets) ==\n";
  Printf.printf "   %d routed inserts per config, %d failover trials\n%!" n
    failover_trials;
  let unreplicated_ops = run_unreplicated ~n in
  let replicated_ops, converged, failover_p50_us, failover_p99_us =
    run_replicated ~n
  in
  gauge_set "unreplicated_ops_per_sec" (int_of_float unreplicated_ops);
  gauge_set "replicated_ops_per_sec" (int_of_float replicated_ops);
  gauge_set "failover_p50_us" (int_of_float failover_p50_us);
  gauge_set "failover_p99_us" (int_of_float failover_p99_us);
  Printf.printf "   %-22s %14s\n" "config" "insert ops/s";
  Printf.printf "   %-22s %14.0f\n" "unreplicated" unreplicated_ops;
  Printf.printf "   %-22s %14.0f (%.0f%% of baseline)\n" "replicated (factor 2)"
    replicated_ops
    (100. *. replicated_ops /. Float.max unreplicated_ops 1.);
  Printf.printf "   backup converged: %b\n" converged;
  Printf.printf "   read failover: p50 %.0fus  p99 %.0fus\n" failover_p50_us
    failover_p99_us;
  {
    unreplicated_ops;
    replicated_ops;
    failover_p50_us;
    failover_p99_us;
    converged;
  }
