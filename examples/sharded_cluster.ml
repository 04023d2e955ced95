(* A real sharded cluster in one program: 4 shard servers on
   Unix-domain sockets (each the same lib/net server that `mvkv cluster
   serve` runs), driven through the lib/cluster router — routed writes,
   a cluster-wide tag, bulk lookups, and a distributed snapshot. Every
   byte crosses a real socket.

   Run with: dune exec examples/sharded_cluster.exe *)

module Store = Mvdict.Pskiplist.Make (Mvdict.Codec.Int_key) (Mvdict.Codec.Int_value)

let ok = function
  | Ok v -> v
  | Error e -> failwith (Cluster.Router.error_to_string e)

let () =
  let shards = 4 in
  let key_bits = 16 in
  let n = 10_000 in

  (* One persistent store and one server per shard. Here they share the
     process for brevity; `mvkv cluster serve --topology t --shard i`
     runs the identical server as a standalone process. *)
  let paths =
    Array.init shards (fun i ->
        Printf.sprintf "sharded_cluster_%d_%d.sock" (Unix.getpid ()) i)
  in
  let servers =
    Array.init shards (fun i ->
        let heap = Pmem.Pheap.create_ram ~capacity:(1 lsl 24) () in
        Net.Server.start ~store:(Store.create heap) ~workers:1
          ~listen:(Net.Sockaddr.Unix_sock paths.(i)) ())
  in

  let topo =
    Cluster.Topology.create ~key_bits
      (Array.map (fun p -> Net.Sockaddr.Unix_sock p) paths)
  in
  print_string (Cluster.Topology.to_string topo);

  let router = Cluster.Router.create ~retries:2 topo in
  Fun.protect
    ~finally:(fun () ->
      Cluster.Router.close router;
      Array.iter Net.Server.stop servers;
      Array.iter (fun p -> try Sys.remove p with Sys_error _ -> ()) paths)
    (fun () ->
      (* Routed writes: each lands on its owning shard's server. *)
      let keys = Workload.Keygen.unique_keys ~seed:11 n in
      let mask = (1 lsl key_bits) - 1 in
      Array.iter (fun k -> ok (Cluster.Router.insert router ~key:(k land mask) ~value:k)) keys;

      (* One tag cuts the same version on every shard. *)
      let version = ok (Cluster.Router.tag router) in
      let clocks = ok (Cluster.Router.versions router) in
      Printf.printf "cluster tag %d; shard clocks: %s\n" version
        (String.concat " "
           (Array.to_list (Array.map string_of_int clocks)));

      (* Bulk lookups: bucketed per shard, pipelined, input order kept. *)
      let sample = Array.init 2000 (fun i -> keys.(i * 3) land mask) in
      let found = ok (Cluster.Router.find_bulk router sample) in
      let hits = Array.fold_left (fun n v -> if v = None then n else n + 1) 0 found in
      Printf.printf "find_bulk: %d/%d hits\n" hits (Array.length sample);

      (* Cluster snapshot at the tagged cut: each shard's part is a
         key range, so the router concatenates the parts in shard order. *)
      let t0 = Unix.gettimeofday () in
      let pairs = ok (Cluster.Router.snapshot router ~version ()) in
      Printf.printf "snapshot v%d: %d pairs in %.2fms, ascending: %b\n" version
        (Array.length pairs)
        ((Unix.gettimeofday () -. t0) *. 1e3)
        (Sim.Merge.is_sorted pairs))
