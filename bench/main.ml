(* Benchmark harness entry point: regenerates every table/figure of the
   paper's evaluation (Sec. V). See DESIGN.md for the per-experiment
   index and EXPERIMENTS.md for paper-vs-measured.

   Each figure run also dumps the lib/obs metrics registry (op
   counters, latency histogram percentiles, pmem flush/fence totals) as
   BENCH_<fig>.json next to the printed tables.

   Usage:
     dune exec bench/main.exe                    # all figures, default sizes
     dune exec bench/main.exe -- --fig 2 -n 500000
     dune exec bench/main.exe -- --fig smoke     # miniature end-to-end sweep
                                                 # + metrics JSON validation
     dune exec bench/main.exe -- --real          # add real-domain cross-checks
     dune exec bench/main.exe -- --bechamel      # add OLS microbenchmarks *)

let parse_args () =
  let fig = ref "all" in
  let n = ref 100_000 in
  let dist_n = ref 100_000 in
  let real = ref false in
  let bechamel = ref false in
  let spec =
    [
      ("--fig", Arg.Set_string fig, "FIG figure to run: all|2|3|4|5|6|7|8|ablations|net|batch|cluster|repl|obs|gc|move|smoke");
      ("-n", Arg.Set_int n, "N single-node workload size (default 100000; paper: 1000000)");
      ("--dist-n", Arg.Set_int dist_n, "N per-rank pairs for figs 6-8 (default 100000, as the paper)");
      ("--real", Arg.Set real, "also run real-domain cross-checks (slow on 1 core)");
      ("--bechamel", Arg.Set bechamel, "also run the Bechamel OLS microbenchmarks");
    ]
  in
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) "mvkv benchmarks";
  (!fig, !n, !dist_n, !real, !bechamel)

(* Miniature end-to-end sweep attached to `dune runtest`: two
   single-node figures (Fig 5 reopens the store, rebuilding its index at
   1, 2 and 4 threads from the key chain's blocks) and one distributed
   figure at toy sizes, then validate that the emitted metrics JSON
   parses and carries the expected op histograms — so the bench wiring
   cannot silently rot. *)
let smoke () =
  let n = 2_000 in
  Approaches.heap_capacity := 1 lsl 26;
  Metrics.with_report ~fig:"smoke" (fun () ->
      Fig2.run ~n ~real:false;
      Fig5.run ~n;
      Fig8.run ~n);
  let problems =
    Metrics.validate ~fig:"smoke"
      ~expect_histograms:
        [
          "mvdict.pskiplist.insert.ns";
          "mvdict.pskiplist.remove.ns";
          "mvdict.pskiplist.recover.ns";
          "mvdict.eskiplist.insert.ns";
          "mvdict.lockedmap.insert.ns";
          "minidb.sqlitereg.insert.ns";
          "minidb.sqlitemem.insert.ns";
          "distrib.merge.k_way.ns";
          "distrib.merge.round.ns";
        ]
  in
  (* The serving layer: a tiny loopback sweep regenerates BENCH_net.json
     on every runtest and must show batching winning (B >= 8 does an
     eighth of the syscall round trips, so an inversion means the
     server-side batch path rotted, not noise). *)
  let net_results = ref [] in
  Metrics.with_report ~fig:"net" (fun () -> net_results := Fig_net.run ~n:3_000);
  let net_problems =
    Metrics.validate ~fig:"net"
      ~expect_histograms:[ "net.insert.ns"; "net.find.ns"; "net.batch_size" ]
  in
  let base = List.assoc 1 !net_results in
  let net_problems =
    net_problems
    @ List.filter_map
        (fun (batch, ops) ->
          if batch >= 8 && ops <= base then
            Some
              (Printf.sprintf
                 "BENCH_net.json: batch=%d throughput %.0f not above unbatched %.0f"
                 batch ops base)
          else None)
        !net_results
  in
  (* The batch-update path: a miniature B in {1,8,64,512} sweep over the
     local store and the loopback server regenerates BENCH_batch.json.
     The gate is the batching contract itself: locally, batched installs
     (B >= 8) issue strictly fewer fences per key than the unbatched
     baseline and the coalesced epilogue saved fences (fences_saved > 0)
     — both counted, so an inversion or a zero means the batch scope
     rotted; and B >= 64 issues at most [max_batched_fences] fences per
     key: the allocator persists nothing per block, so a batch of new
     keys pays its three barriers per chunk of 64, a link per new
     key-chain block and a reservation word per 64 KiB cut. Over
     loopback, where a batch frame saves B - 1 round trips, batched
     installs strictly out-run the unbatched baseline. Local wall time
     is not gated: its margin is small enough that two cores shared with
     the rest of the test suite can invert it. *)
  let max_batched_fences = 0.1 in
  let batch_results = ref None in
  Metrics.with_report ~fig:"batch" (fun () ->
      batch_results := Some (Fig_batch.run ~n:4_000));
  let batch_problems =
    Metrics.validate ~fig:"batch"
      ~expect_histograms:
        [ "mvdict.pskiplist.insert_batch.ns"; "net.insert_batch.ns" ]
  in
  let batch_problems =
    batch_problems
    @
    match !batch_results with
    | None -> [ "BENCH_batch.json: figure did not run" ]
    | Some r ->
        let inversions what ~want ~worse results =
          let base = List.assoc 1 results in
          List.filter_map
            (fun (batch, v) ->
              if batch >= 8 && worse v base then
                Some
                  (Printf.sprintf
                     "BENCH_batch.json: %s batch=%d %.3f not %s unbatched %.3f" what
                     batch v want base)
              else None)
            results
        in
        inversions "local fences per key" ~want:"below" ~worse:( >= )
          r.Fig_batch.fences_per_key
        @ List.filter_map
            (fun (batch, f) ->
              if batch >= 64 && f > max_batched_fences then
                Some
                  (Printf.sprintf "BENCH_batch.json: batch=%d %.3f fences per key, above %.1f"
                     batch f max_batched_fences)
              else None)
            r.Fig_batch.fences_per_key
        @ inversions "net throughput" ~want:"above" ~worse:( <= ) r.Fig_batch.net
        @
        if r.Fig_batch.fences_saved <= 0 then
          [ "BENCH_batch.json: batched installs saved no fences" ]
        else []
  in
  (* The sharded serving layer: a miniature K in {1,2,4,8} sweep over
     real Unix sockets regenerates BENCH_cluster.json. At every K the
     snapshot must take positive time and hold exactly the [n] inserted
     pairs in ascending key order — a zero, a missing histogram, a lost
     or duplicated pair or an out-of-order part means the router's
     gather path or the shard servers rotted. *)
  let cluster_n = 1_000 in
  let cluster_results = ref [] in
  Metrics.with_report ~fig:"cluster" (fun () ->
      cluster_results := Fig_cluster.run ~n:cluster_n);
  let cluster_problems =
    Metrics.validate ~fig:"cluster"
      ~expect_histograms:
        [ "cluster.insert.ns"; "cluster.find_bulk.ns"; "cluster.snapshot.ns" ]
  in
  let cluster_problems =
    cluster_problems
    @ List.concat_map
        (fun (r : Fig_cluster.row) ->
          List.filter_map
            (fun (bad, what) ->
              if bad then Some (Printf.sprintf "BENCH_cluster.json: k=%d %s" r.shards what)
              else None)
            [
              ( r.insert_ops <= 0.,
                Printf.sprintf "insert ops/s not positive (%f)" r.insert_ops );
              ( r.snapshot_s <= 0.,
                Printf.sprintf "snapshot latency not positive (%f)" r.snapshot_s );
              ( r.snapshot_pairs <> cluster_n,
                Printf.sprintf "snapshot holds %d pairs, not %d" r.snapshot_pairs
                  cluster_n );
              (not r.snapshot_sorted, "snapshot keys not ascending");
            ])
        !cluster_results
  in
  let cluster_problems =
    if List.map (fun (r : Fig_cluster.row) -> r.shards) !cluster_results <> [ 1; 2; 4; 8 ]
    then
      "BENCH_cluster.json: expected shard counts 1,2,4,8" :: cluster_problems
    else cluster_problems
  in
  (* The GC subsystem: a miniature churn run regenerates BENCH_gc.json.
     The gate is the bounded-footprint contract itself: with retention
     on, end-of-run live_bytes stays under 2x the working set while the
     un-retained twin grows monotonically past it — plus a positive
     throughput so a GC that stalls writers cannot pass. *)
  let gc_results = ref None in
  Metrics.with_report ~fig:"gc" (fun () ->
      gc_results := Some (Fig_gc.run ~keys:256 ~rounds:20));
  let gc_problems =
    Metrics.validate ~fig:"gc" ~expect_histograms:[ "gc.pause_ns" ]
  in
  let gc_problems =
    gc_problems
    @
    match !gc_results with
    | None -> [ "BENCH_gc.json: figure did not run" ]
    | Some r ->
        List.filter_map
          (fun (ok, msg) -> if ok then None else Some ("BENCH_gc.json: " ^ msg))
          [
            ( r.Fig_gc.retained_final < 2 * r.Fig_gc.working_set,
              Printf.sprintf
                "retained live_bytes %d not bounded by 2x working set %d"
                r.Fig_gc.retained_final r.Fig_gc.working_set );
            ( r.Fig_gc.unretained_final > r.Fig_gc.retained_final,
              Printf.sprintf
                "unretained live_bytes %d not above retained %d"
                r.Fig_gc.unretained_final r.Fig_gc.retained_final );
            ( r.Fig_gc.unretained_monotonic,
              "unretained live_bytes did not grow monotonically" );
            ( r.Fig_gc.retained_ops > 0.,
              "retained throughput not positive" );
            ( r.Fig_gc.unretained_ops > 0.,
              "unretained throughput not positive" );
          ]
  in
  (* The replication subsystem: a miniature factor-2 range over real
     Unix sockets regenerates BENCH_repl.json. The gate wants the
     replicated write path alive (positive throughput, backup converged
     to the primary's exact state) and read failover bounded — a p99
     above 2 s means the router is timing out its way to the backup
     instead of failing over. *)
  let repl_results = ref None in
  Metrics.with_report ~fig:"repl" (fun () ->
      repl_results := Some (Fig_repl.run ~n:500));
  let repl_problems =
    Metrics.validate ~fig:"repl"
      ~expect_histograms:[ "repl.forward_latency_ns"; "repl.failover_latency_ns" ]
  in
  let repl_problems =
    repl_problems
    @
    match !repl_results with
    | None -> [ "BENCH_repl.json: figure did not run" ]
    | Some r ->
        List.filter_map
          (fun (ok, msg) -> if ok then None else Some ("BENCH_repl.json: " ^ msg))
          [
            ( r.Fig_repl.unreplicated_ops > 0.,
              "unreplicated throughput not positive" );
            ( r.Fig_repl.replicated_ops > 0.,
              "replicated throughput not positive" );
            (r.Fig_repl.converged, "backup did not converge to primary state");
            ( r.Fig_repl.failover_p99_us < 2e6,
              Printf.sprintf "failover p99 %.0fus above the 2s bound"
                r.Fig_repl.failover_p99_us );
          ]
  in
  (* Live resharding: one shard handed off over real Unix sockets while
     a mutator keeps writing regenerates BENCH_move.json. The gate is
     the availability contract: zero lost acked writes across the
     handoff, writers make progress while the move runs, and the
     client-observed write p99 stays under 500 ms — the seal window
     plus the Moved chase must stay invisible at human timescales.
     Beside it a counted gate: the mutator never tags, so every round
     re-ships its untagged tail and the rounds stop shrinking by round
     3; a move that runs all 16 of the coordinator's rounds has lost
     the rule that ends them. *)
  let move_results = ref None in
  Metrics.with_report ~fig:"move" (fun () ->
      move_results := Some (Fig_move.run ~n:2_000));
  let move_problems =
    Metrics.validate ~fig:"move"
      ~expect_histograms:[ "move.copy_ns"; "move.pause_ns"; "move.round_ns" ]
  in
  let move_problems =
    move_problems
    @
    match !move_results with
    | None -> [ "BENCH_move.json: figure did not run" ]
    | Some r ->
        List.filter_map
          (fun (ok, msg) -> if ok then None else Some ("BENCH_move.json: " ^ msg))
          [
            ( r.Fig_move.lost = 0,
              Printf.sprintf "%d acked write(s) lost across the handoff"
                r.Fig_move.lost );
            (r.Fig_move.ops_during > 0., "no write progress while the move ran");
            ( r.Fig_move.write_p99_ms < 500.,
              Printf.sprintf "write p99 %.1fms above the 500ms cutover bound"
                r.Fig_move.write_p99_ms );
            (r.Fig_move.rounds < 16, "the move ran all 16 copy rounds");
          ]
  in
  (* The observability layer itself: BENCH_obs.json prices each
     instrumentation regime; the gate holds the disabled-probe path
     (counters mode) within 5% of the uninstrumented baseline, and the
     production tracing regime (1% sampled origination) within 10% of
     counters-only — the cost of cluster tracing must stay in the
     noise for the ops that lose the coin flip. Beside those wall-time
     ratios, a counted gate: the counters and timed modes allocate no
     minor words per op (below 0.01, which one allocation per 100 ops
     would reach). *)
  let obs_results = ref [] in
  (* 20k ops: the sampled-vs-counters margin is a few percent, so the
     min-of-reps filter needs enough ops per rep to converge. *)
  Metrics.with_report ~fig:"obs" (fun () -> obs_results := Fig_obs.run ~n:20_000);
  let obs_problems =
    Metrics.validate ~fig:"obs" ~expect_histograms:[ "obs.bench.op.ns" ]
  in
  let obs_problems =
    obs_problems
    @
    let ns mode = (List.assoc mode !obs_results).Fig_obs.ns_per_op in
    let base = ns "baseline" in
    let counters = ns "counters" in
    let sampled = ns "sampled" in
    (if counters > base *. 1.05 then
       [
         Printf.sprintf
           "BENCH_obs.json: counters-only path %.1f ns/op exceeds baseline %.1f ns/op by >5%%"
           counters base;
       ]
     else [])
    @ List.filter_map
        (fun mode ->
          let w = (List.assoc mode !obs_results).Fig_obs.minor_words_per_op in
          if w >= 0.01 then
            Some
              (Printf.sprintf "fig obs: %s mode allocates %.4f minor words per op (>= 0.01)"
                 mode w)
          else None)
        [ "counters"; "timed" ]
    @
    if sampled > counters *. 1.10 then
      [
        Printf.sprintf
          "BENCH_obs.json: sampled tracing %.1f ns/op exceeds counters-only \
           %.1f ns/op by >10%%"
          sampled counters;
      ]
    else []
  in
  match
    problems @ net_problems @ batch_problems @ cluster_problems @ repl_problems
    @ move_problems @ gc_problems @ obs_problems
  with
  | [] -> print_endline "smoke: metrics report OK"
  | ps ->
      List.iter prerr_endline ps;
      prerr_endline "smoke: metrics report INVALID";
      exit 1

let () =
  let fig, n, dist_n, real, bechamel = parse_args () in
  (* Timed instrumentation wants a monotonic clock; bechamel ships the
     CLOCK_MONOTONIC stub. *)
  Obs.Clock.set_source (fun () -> Int64.to_int (Monotonic_clock.now ()));
  if fig = "smoke" then smoke ()
  else begin
    (* Size the persistent heap for the largest single-node state
       (3N history entries + 2N chain slots + index blobs + slack). *)
    Approaches.heap_capacity := max (1 lsl 26) (n * 160);
    let want f = fig = "all" || fig = f in
    Printf.printf "mvkv benchmark harness — N=%d (single node), N=%d per rank (distributed)\n"
      n dist_n;
    print_endline
      "Single-node sweeps are projections of measured 1-thread costs onto a\n\
       64-core node (this container has 1 core); distributed sweeps combine\n\
       measured local costs with a Theta-like network model. See DESIGN.md.";
    if want "2" then Metrics.with_report ~fig:"fig2" (fun () -> Fig2.run ~n ~real);
    if want "3" then Metrics.with_report ~fig:"fig3" (fun () -> Fig3.run ~n);
    if want "4" then Metrics.with_report ~fig:"fig4" (fun () -> Fig4.run ~n);
    if want "5" then Metrics.with_report ~fig:"fig5" (fun () -> Fig5.run ~n:(n / 2));
    if want "6" then Metrics.with_report ~fig:"fig6" (fun () -> Fig6.run ~n:dist_n);
    if want "7" then Metrics.with_report ~fig:"fig7" (fun () -> Fig7.run ~n:dist_n);
    if want "8" then Metrics.with_report ~fig:"fig8" (fun () -> Fig8.run ~n:dist_n);
    if want "ablations" then
      Metrics.with_report ~fig:"ablations" (fun () -> Ablations.run ~n:(min n 50_000));
    if want "net" then
      Metrics.with_report ~fig:"net" (fun () -> ignore (Fig_net.run ~n:(min n 50_000)));
    if want "batch" then
      Metrics.with_report ~fig:"batch" (fun () ->
          ignore (Fig_batch.run ~n:(min n 50_000)));
    if want "cluster" then
      Metrics.with_report ~fig:"cluster" (fun () ->
          ignore (Fig_cluster.run ~n:(min n 20_000)));
    if want "repl" then
      Metrics.with_report ~fig:"repl" (fun () ->
          ignore (Fig_repl.run ~n:(min n 10_000)));
    if want "obs" then
      Metrics.with_report ~fig:"obs" (fun () -> ignore (Fig_obs.run ~n:(min n 20_000)));
    if want "move" then
      Metrics.with_report ~fig:"move" (fun () ->
          ignore (Fig_move.run ~n:(min n 10_000)));
    if want "gc" then
      Metrics.with_report ~fig:"gc" (fun () ->
          ignore (Fig_gc.run ~keys:1024 ~rounds:(max 20 (min n 100_000 / 1024))));
    if bechamel then Microbench.run ~n:(min n 20_000);
    print_endline "\nbench: done."
  end
