(* fig_net — loopback serving throughput: batched vs unbatched.

   A PSkipList-backed lib/net server on a Unix-domain socket, driven by
   a single client pipelining B requests per submission (B=1 is the
   classic one-round-trip-per-request client). Request batching
   amortises the per-wakeup syscall pair and the server's dispatch
   overhead across B requests — the serving-layer analogue of the
   batch updates that keep versioned ordered indexes fast under load
   (Jiffy, arXiv:2102.01044).

   The sweep runs a 50/50 insert/find mix. Per batch size we report
   ops/s and record it as a `net.bench.ops_per_sec.b<B>` gauge so the
   numbers land in BENCH_net.json alongside the `net.*` counters and
   the `net.batch_size` histogram. The [shape] check — batched strictly
   above unbatched for every B >= 8 — is what the acceptance harness
   reads off the JSON. *)

module Store = Mvdict.Pskiplist.Make (Mvdict.Codec.Int_key) (Mvdict.Codec.Int_value)

let batch_sizes = [ 1; 8; 32; 128 ]

(* Unix-domain socket bound under the working directory (short path,
   no port-namespace collisions between concurrent test runs). *)
let socket_path () = Printf.sprintf "fig_net_%d.sock" (Unix.getpid ())

let sweep_one ~n ~batch client =
  let ops = ref 0 in
  let t0 = Unix.gettimeofday () in
  let i = ref 0 in
  while !i < n do
    let this_batch = min batch (n - !i) in
    let reqs =
      List.init this_batch (fun j ->
          let k = !i + j in
          if k land 1 = 0 then Net.Wire.Insert { key = k; value = k * 3 }
          else Net.Wire.Find { key = k - 1; version = None })
    in
    let resps = Net.Client.call_batch client reqs in
    if List.length resps <> this_batch then failwith "fig_net: response count mismatch";
    ops := !ops + this_batch;
    i := !i + this_batch
  done;
  let wall = Unix.gettimeofday () -. t0 in
  float_of_int !ops /. wall

(* Returns [(batch, ops_per_sec)] for the sweep; also records the
   gauges read back by the smoke validation. *)
let run ~n =
  Printf.printf "\n== fig net: loopback serving throughput, batched vs unbatched ==\n";
  Printf.printf "   one client, %d ops per batch size (50/50 insert/find mix)\n%!" n;
  let heap = Pmem.Pheap.create_ram ~capacity:(max (1 lsl 26) (n * 160)) () in
  let store = Store.create heap in
  let path = socket_path () in
  let server =
    Net.Server.start ~store ~workers:2 ~batch:256 ~listen:(Net.Sockaddr.Unix_sock path) ()
  in
  let results =
    Fun.protect
      ~finally:(fun () -> Net.Server.stop server)
      (fun () ->
        List.map
          (fun batch ->
            let client = Net.Client.connect (Net.Sockaddr.Unix_sock path) in
            (* warm up the connection and the worker *)
            Net.Client.ping client;
            let ops_per_sec = sweep_one ~n ~batch client in
            Net.Client.close client;
            Obs.Registry.gauge (Printf.sprintf "net.bench.ops_per_sec.b%d" batch)
            |> fun g ->
            Obs.Metric.set g (int_of_float ops_per_sec);
            (batch, ops_per_sec))
          batch_sizes)
  in
  Printf.printf "   %-8s %14s %10s\n" "batch" "ops/s" "speedup";
  let base = List.assoc 1 results in
  List.iter
    (fun (batch, ops) ->
      Printf.printf "   %-8d %14.0f %9.2fx\n" batch ops (ops /. base))
    results;
  let batched_wins =
    List.for_all (fun (batch, ops) -> batch < 8 || ops > base) results
  in
  Printf.printf "   [shape] batched (B>=8) strictly above unbatched: %s\n%!"
    (if batched_wins then "yes" else "NO");
  results
