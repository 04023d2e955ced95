(* fig_move — what a live reshard costs (lib/cluster/move).

   A two-shard cluster over real Unix sockets plus one spare server:
   preload N keys, then hand shard 1's whole range to the spare while a
   mutator domain keeps writing — half its writes into the moving
   range, half into the one that stays put. Three numbers matter:

   - the coordinator's own copy/pause split: outcome.copy_ns is the
     unsealed catch-up copy, outcome.pause_ns the seal -> unseal window
     in which writers to the range must wait;
   - client-observed write latency during the migration (p50/p99): what
     a writer actually pays, including the Moved chase after cutover —
     this is the figure's headline, because it bounds the pause as the
     *writer* sees it, not as the coordinator brags about it. The p99
     is over the move's own duration, so a shorter move with the same
     slow writes reads higher; the count of writes above 1 ms, and their
     share of all the mutator's writes, say what writers pay whatever
     the move's length;
   - lost acked writes: zero, always. Every insert the mutator got an
     Ok for must be readable at its final value after the handoff.

   Everything lands in BENCH_move.json: the coordinator's move.*
   counters/histograms plus explicit move.bench.* gauges. The smoke
   gate wants zero lost writes, positive mid-migration throughput, and
   client write p99 under 500 ms. *)

module Store = Mvdict.Pskiplist.Make (Mvdict.Codec.Int_key) (Mvdict.Codec.Int_value)

type result = {
  rounds : int;
  events_copied : int;
  copy_ms : float;
  pause_ms : float;  (** coordinator seal -> unseal *)
  write_p50_ms : float;  (** client-observed during the migration *)
  write_p99_ms : float;
  slow_writes : int;  (** the mutator's writes above {!slow_ms} *)
  ops_during : float;  (** mutator throughput while the move ran *)
  lost : int;  (** acked writes unreadable after the handoff *)
}

let sock_path i = Printf.sprintf "fig_move_%d_%d.sock" (Unix.getpid ()) i

let ok what = function
  | Ok v -> v
  | Error e ->
      failwith
        (Printf.sprintf "fig_move: %s: %s" what
           (Cluster.Router.error_to_string e))

let key_bits_for n =
  let rec go bits = if 1 lsl bits >= 2 * n then bits else go (bits + 1) in
  go 8

let gauge_set name v =
  Obs.Metric.set (Obs.Registry.gauge ("move.bench." ^ name)) v

(* A write slower than this met the bulk round or the seal. *)
let slow_ms = 1.

let run ~n =
  Printf.printf
    "\n== fig move: live reshard under write traffic (2 shards + spare, Unix \
     sockets) ==\n";
  Printf.printf "   %d preloaded keys, shard 1 handed off mid-traffic\n%!" n;
  let key_bits = key_bits_for n in
  let paths = Array.init 3 sock_path in
  let addrs = Array.map (fun p -> Net.Sockaddr.Unix_sock p) paths in
  let stores =
    Array.init 3 (fun _ ->
        Store.create
          (Pmem.Pheap.create_ram ~capacity:(max (1 lsl 24) (n * 320)) ()))
  in
  let servers =
    Array.init 3 (fun i ->
        (* router + mutator + the coordinator's copy and fence
           connections can all be busy on one shard at once; with four
           workers each gets a worker of its own *)
        Net.Server.start ~store:stores.(i) ~workers:4
          ~epoch_cell:(Atomic.make 0) ~listen:addrs.(i) ())
  in
  let topo = Cluster.Topology.create ~key_bits (Array.sub addrs 0 2) in
  let topo_file = Printf.sprintf "fig_move_%d.topo" (Unix.getpid ()) in
  (match Cluster.Topology.save topo topo_file with
  | Ok () -> ()
  | Error m -> failwith ("fig_move: topology save: " ^ m));
  let reload () = Result.to_option (Cluster.Topology.of_file topo_file) in
  let router = Cluster.Router.create ~retries:1 ~reload topo in
  Fun.protect
    ~finally:(fun () ->
      Cluster.Router.close router;
      Array.iter (fun s -> try Net.Server.stop s with _ -> ()) servers;
      Array.iter (fun p -> try Sys.remove p with Sys_error _ -> ()) paths;
      try Sys.remove topo_file with Sys_error _ -> ())
    (fun () ->
      (* Stride the preload across the whole key space so the moving
         shard actually holds half of it. *)
      let stride = (1 lsl key_bits) / n in
      ok "preload"
        (Cluster.Router.insert_batch router
           (List.init n (fun i -> (i * stride, i * 7))));
      ignore (ok "tag" (Cluster.Router.tag router));
      (* The moving range is shard 1's; the mutator alternates between a
         window of keys in it and a window in shard 0's range, so the
         latency distribution sees both the sealed range (Moved chase)
         and the undisturbed one. *)
      let m_lo, m_hi = Cluster.Topology.range topo 1 in
      let s_lo, _ = Cluster.Topology.range topo 0 in
      let window = min 512 (m_hi - m_lo) in
      let stop = Atomic.make false in
      (* The mutator is the router's only user while the move runs (the
         coordinator speaks its own connections), so no locking. *)
      let mutator =
        Domain.spawn (fun () ->
            let acked = Hashtbl.create (2 * window) in
            let lats = ref [] in
            let count = ref 0 in
            let t0 = Unix.gettimeofday () in
            (try
               while not (Atomic.get stop) do
                 let i = !count in
                 let key =
                   if i land 1 = 0 then m_lo + (i mod window)
                   else s_lo + (i mod window)
                 in
                 let w0 = Unix.gettimeofday () in
                 ok "insert" (Cluster.Router.insert router ~key ~value:i);
                 lats := (Unix.gettimeofday () -. w0) :: !lats;
                 Hashtbl.replace acked key i;
                 incr count
               done
             with Failure m -> prerr_endline m);
            let dt = Unix.gettimeofday () -. t0 in
            (acked, Array.of_list !lats, float_of_int !count /. dt))
      in
      let outcome =
        match
          Cluster.Move.move ~topo_path:topo_file
            (match Cluster.Topology.of_file topo_file with
            | Ok t -> t
            | Error m -> failwith ("fig_move: " ^ m))
            ~shard:1 ~dest:[| addrs.(2) |] ()
        with
        | Ok o -> o
        | Error e -> failwith ("fig_move: " ^ Cluster.Move.error_to_string e)
      in
      Atomic.set stop true;
      let acked, lats, ops_during = Domain.join mutator in
      Cluster.Router.set_topology router
        (match Cluster.Topology.of_file topo_file with
        | Ok t -> t
        | Error m -> failwith ("fig_move: " ^ m));
      let lost =
        Hashtbl.fold
          (fun key value bad ->
            match ok "verify" (Cluster.Router.find router key) with
            | Some v when v = value -> bad
            | _ -> bad + 1)
          acked 0
      in
      Array.sort compare lats;
      let pct q =
        if Array.length lats = 0 then 0.
        else
          1e3
          *. lats.(min (Array.length lats - 1)
                      (int_of_float (q *. float_of_int (Array.length lats))))
      in
      let slow_writes =
        Array.fold_left (fun n l -> if 1e3 *. l > slow_ms then n + 1 else n) 0 lats
      in
      let copy_ms = float_of_int outcome.Cluster.Move.copy_ns /. 1e6 in
      let pause_ms = float_of_int outcome.Cluster.Move.pause_ns /. 1e6 in
      let r =
        {
          rounds = outcome.Cluster.Move.rounds;
          events_copied = outcome.Cluster.Move.events_copied;
          copy_ms;
          pause_ms;
          write_p50_ms = pct 0.5;
          write_p99_ms = pct 0.99;
          slow_writes;
          ops_during;
          lost;
        }
      in
      gauge_set "copy_ms" (int_of_float copy_ms);
      gauge_set "pause_ms" (int_of_float (Float.round pause_ms));
      gauge_set "write_p50_us" (int_of_float (1e3 *. r.write_p50_ms));
      gauge_set "write_p99_us" (int_of_float (1e3 *. r.write_p99_ms));
      gauge_set "slow_writes" slow_writes;
      gauge_set "ops_per_sec_during_move" (int_of_float ops_during);
      gauge_set "lost_acked_writes" lost;
      Printf.printf "   copy: %d event(s) in %d round(s), %.1fms\n"
        r.events_copied r.rounds copy_ms;
      Printf.printf "   coordinator write pause (seal -> unseal): %.1fms\n"
        pause_ms;
      Printf.printf
        "   client writes during the move: %.0f ops/s, p50 %.2fms p99 %.2fms\n"
        ops_during r.write_p50_ms r.write_p99_ms;
      let writes = Array.length lats in
      Printf.printf "   writes above %.0fms: %d of %d (%.2f%%)\n" slow_ms slow_writes writes
        (if writes = 0 then 0. else 100. *. float_of_int slow_writes /. float_of_int writes);
      Printf.printf "   lost acked writes: %d\n" lost;
      r)
