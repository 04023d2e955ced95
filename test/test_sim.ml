(* Tests for lib/sim (cost model, calibration helpers, network model,
   merges) and the default key-range split of Cluster.Topology. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_float = Alcotest.(check (float 1e-9))

(* Cost model *)

let lock_free_scales () =
  let law = Sim.Cost_model.Lock_free { coherence = 0.0 } in
  let t1 = Sim.Cost_model.makespan_ns law ~threads:1 ~total_ops:1000 ~op_cost_ns:100.0 in
  let t4 = Sim.Cost_model.makespan_ns law ~threads:4 ~total_ops:1000 ~op_cost_ns:100.0 in
  check_float "perfect scaling" (t1 /. 4.0) t4

let lock_free_coherence_erodes () =
  let law = Sim.Cost_model.Lock_free { coherence = 1.45 } in
  let t1 = Sim.Cost_model.makespan_ns law ~threads:1 ~total_ops:64000 ~op_cost_ns:100.0 in
  let t64 = Sim.Cost_model.makespan_ns law ~threads:64 ~total_ops:64000 ~op_cost_ns:100.0 in
  (* Anchored to the paper's 6.6x speedup at 64 threads. *)
  let speedup = t1 /. t64 in
  check_bool "speedup near 6.6" true (speedup > 6.0 && speedup < 7.2)

let global_lock_degrades () =
  let law = Sim.Cost_model.Global_lock { handoff_frac = 0.33 } in
  let t1 = Sim.Cost_model.makespan_ns law ~threads:1 ~total_ops:1000 ~op_cost_ns:100.0 in
  let t64 = Sim.Cost_model.makespan_ns law ~threads:64 ~total_ops:1000 ~op_cost_ns:100.0 in
  (* 3x slowdown anchor (LockedMap, Fig. 2). *)
  check_bool "about 3x slower" true (t64 /. t1 > 2.8 && t64 /. t1 < 3.2)

let rw_lock_flattens () =
  let law = Sim.Cost_model.Rw_lock { max_parallel = 8.0; coherence = 0.0 } in
  let t8 = Sim.Cost_model.makespan_ns law ~threads:8 ~total_ops:1000 ~op_cost_ns:100.0 in
  let t64 = Sim.Cost_model.makespan_ns law ~threads:64 ~total_ops:1000 ~op_cost_ns:100.0 in
  check_float "no further scaling past 8" t8 t64

let pmem_overhead () =
  let o =
    Sim.Cost_model.pmem_op_overhead_ns Sim.Cost_model.optane_like
      ~flushes_per_op:3.0 ~fences_per_op:3.0
  in
  check_float "3 flushes + 3 fences" ((3.0 *. 60.0) +. (3.0 *. 30.0)) o

let calibrate_measures () =
  let ns = Sim.Calibrate.ns_per_op ~ops:1000 (fun () ->
      let x = ref 0 in
      for i = 1 to 1000 do
        x := !x + i
      done;
      ignore !x)
  in
  check_bool "positive" true (ns >= 0.0);
  check_float "median odd" 2.0 (Sim.Calibrate.median [| 3.0; 1.0; 2.0 |]);
  check_float "median even" 2.5 (Sim.Calibrate.median [| 4.0; 1.0; 2.0; 3.0 |])

(* Simnet *)

let simnet_transfer () =
  let net = { Sim.Simnet.latency_s = 1e-6; bandwidth_bps = 1e9 } in
  check_float "latency only" 1e-6 (Sim.Simnet.transfer_s net ~bytes:0);
  check_float "latency + payload" (1e-6 +. 1e-3)
    (Sim.Simnet.transfer_s net ~bytes:1_000_000)

let simnet_rounds () =
  List.iter
    (fun (k, expected) -> check_int (Printf.sprintf "rounds %d" k) expected (Sim.Simnet.rounds k))
    [ (1, 0); (2, 1); (3, 2); (4, 2); (5, 3); (512, 9) ]

let simnet_collectives_grow_logarithmically () =
  let net = Sim.Simnet.theta_like in
  let b8 = Sim.Simnet.bcast_s net ~ranks:8 ~bytes:64 in
  let b64 = Sim.Simnet.bcast_s net ~ranks:64 ~bytes:64 in
  check_float "bcast log ratio" 2.0 (b64 /. b8);
  let g = Sim.Simnet.gather_linear_s net ~ranks:2 ~bytes_per_rank:1000 in
  check_bool "gather positive" true (g > 0.0)

(* Partition: a topology without range directives splits the key
   space into equal-width ranges. *)

let topology ~shards ~key_bits =
  Cluster.Topology.create ~key_bits
    (Array.init shards (fun i -> Net.Sockaddr.Unix_sock (Printf.sprintf "s%d.sock" i)))

let partition_covers_space () =
  let t = topology ~shards:8 ~key_bits:16 in
  let counts = Array.make 8 0 in
  for key = 0 to (1 lsl 16) - 1 do
    let r = Cluster.Topology.owner t key in
    counts.(r) <- counts.(r) + 1
  done;
  check_bool "all ranks used" true (Array.for_all (fun c -> c > 0) counts);
  check_int "total" (1 lsl 16) (Array.fold_left ( + ) 0 counts);
  (* Ranges and owner agree. *)
  let ok = ref true in
  for r = 0 to 7 do
    let lo, hi = Cluster.Topology.range t r in
    if not (Cluster.Topology.owner t lo = r && Cluster.Topology.owner t (hi - 1) = r)
    then ok := false
  done;
  check_bool "range/owner agreement" true !ok;
  (* When K does not divide the key space, every range but the last
     holds ceil(2^key_bits / K) keys: topology files without range
     lines keep the ownership they always had. *)
  let t = topology ~shards:3 ~key_bits:16 in
  Alcotest.(check (list (pair int int)))
    "K=3 at 16 bits"
    [ (0, 21846); (21846, 43692); (43692, 65536) ]
    (List.init 3 (Cluster.Topology.range t))

let partition_rejects_foreign_keys () =
  let t = topology ~shards:4 ~key_bits:8 in
  Alcotest.check_raises "negative key"
    (Invalid_argument "Topology.owner: key -1 outside key space") (fun () ->
      ignore (Cluster.Topology.owner t (-1)));
  Alcotest.check_raises "key 2^key_bits"
    (Invalid_argument "Topology.owner: key 256 outside key space") (fun () ->
      ignore (Cluster.Topology.owner t 256))

(* Merge *)

(* Strictly increasing keys with pseudo-random gaps and values; [parity]
   selects a residue class so different arrays never share keys. *)
let sorted_pairs ~seed ~parity ~classes n =
  let rng = Workload.Mt19937.create seed in
  let key = ref parity in
  Array.init n (fun _ ->
      let k = !key in
      key := !key + (classes * (1 + Workload.Mt19937.next_int rng 5));
      (k, Workload.Mt19937.next_int rng 1000))

let merge_two_way () =
  let a = [| (1, 10); (3, 30); (5, 50) |] and b = [| (2, 20); (4, 40) |] in
  Alcotest.(check (array (pair int int)))
    "interleave"
    [| (1, 10); (2, 20); (3, 30); (4, 40); (5, 50) |]
    (Sim.Merge.two_way a b)

let merge_two_way_empty () =
  let a = [| (1, 1) |] in
  check_bool "right empty" true (Sim.Merge.two_way a [||] = a);
  check_bool "left empty" true (Sim.Merge.two_way [||] a = a)

let merge_multi_threaded_matches_sequential () =
  let a = sorted_pairs ~seed:1 ~parity:0 ~classes:2 5000 in
  let b = sorted_pairs ~seed:2 ~parity:1 ~classes:2 3000 in
  let reference = Sim.Merge.two_way a b in
  List.iter
    (fun threads ->
      let got = Sim.Merge.multi_threaded ~threads a b in
      check_bool (Printf.sprintf "threads=%d" threads) true (got = reference))
    [ 1; 2; 4; 7 ]

let merge_multi_threaded_more_threads_than_elements () =
  (* Regression: threads > |a| used to probe a.(-1) and raise
     Invalid_argument "index out of bounds" (na=3, threads=8 gives
     a_bound 1 = 0) — the exact path recursive_doubling ~threads
     drives for Fig. 8. *)
  let a = [| (1, 10); (3, 30); (5, 50) |] in
  let b = [| (2, 20); (4, 40); (6, 60); (8, 80) |] in
  let reference = Sim.Merge.two_way a b in
  List.iter
    (fun threads ->
      check_bool
        (Printf.sprintf "threads=%d over |a|=3" threads)
        true
        (Sim.Merge.multi_threaded ~threads a b = reference))
    [ 4; 8; 16; 100 ]

let merge_multi_threaded_property =
  QCheck.Test.make
    ~name:"multi_threaded agrees with two_way for all (threads, |a|, |b|)"
    ~count:300
    QCheck.(triple (int_range 1 16) (int_range 0 40) (int_range 0 40))
    (fun (threads, la, lb) ->
      let a = sorted_pairs ~seed:(la + 1) ~parity:0 ~classes:2 la in
      let b = sorted_pairs ~seed:(lb + 101) ~parity:1 ~classes:2 lb in
      Sim.Merge.multi_threaded ~threads a b = Sim.Merge.two_way a b)

let merge_k_way_huge_keys () =
  (* Keys >= 2^53 collide once routed through a float; the int-keyed
     heap must round-trip them in exact order. *)
  let base = 1 lsl 60 in
  let inputs =
    [|
      [| (base, 0); (base + 2, 0); (base + 4, 0) |];
      [| (base + 1, 1); (base + 3, 1); (base + 5, 1) |];
    |]
  in
  let expected = Array.init 6 (fun i -> (base + i, i land 1)) in
  Alcotest.(check (array (pair int int)))
    "exact order above 2^53" expected
    (Sim.Merge.k_way inputs);
  check_bool "float would collide (sanity)" true
    (float_of_int base = float_of_int (base + 1))

let merge_k_way_duplicates_stable () =
  (* Duplicate keys across inputs come out in input-index order. *)
  let inputs = [| [| (5, 100); (7, 101) |]; [| (5, 200) |]; [| (5, 300); (6, 301) |] |] in
  Alcotest.(check (array (pair int int)))
    "input-index tie-break"
    [| (5, 100); (5, 200); (5, 300); (6, 301); (7, 101) |]
    (Sim.Merge.k_way inputs)

let merge_k_way_property =
  (* Sorted (possibly duplicate-keyed, possibly huge-keyed) inputs:
     k_way output is sorted, a permutation of the input multiset, and
     stable (equal keys ordered by input index). *)
  let gen =
    QCheck.(
      list_of_size Gen.(int_range 0 6)
        (list_of_size Gen.(int_range 0 30) (pair small_nat small_nat)))
  in
  QCheck.Test.make ~name:"k_way sorted and stable on random sorted inputs" ~count:200 gen
    (fun raw ->
      let huge = 1 lsl 60 in
      let inputs =
        Array.of_list
          (List.map
             (fun l ->
               let a = Array.of_list (List.map (fun (k, v) -> (k * (huge / 64), v)) l) in
               Array.sort (fun x y -> Int.compare (fst x) (fst y)) a;
               a)
             raw)
      in
      let tagged =
        Array.to_list inputs
        |> List.mapi (fun i a -> Array.to_list (Array.map (fun (k, v) -> (k, i, v)) a))
        |> List.concat
      in
      let expected = List.stable_sort (fun (k1, i1, _) (k2, i2, _) -> compare (k1, i1) (k2, i2)) tagged in
      let got = Sim.Merge.k_way inputs in
      Array.length got = List.length expected
      && List.for_all2
           (fun (k, _, v) (k', v') -> k = k' && v = v')
           expected
           (Array.to_list got))

let merge_k_way () =
  let inputs =
    [| [| (1, 1); (7, 7) |]; [| (2, 2); (5, 5) |]; [| (3, 3) |]; [||] |]
  in
  Alcotest.(check (array (pair int int)))
    "4-way"
    [| (1, 1); (2, 2); (3, 3); (5, 5); (7, 7) |]
    (Sim.Merge.k_way inputs)

let merge_recursive_doubling_matches_k_way () =
  (* Disjoint sorted partitions, like range-partitioned snapshots. *)
  let k = 16 and per = 500 in
  let inputs =
    Array.init k (fun r ->
        Array.init per (fun i -> ((i * k) + r, r)))
  in
  Array.iter (fun a -> Array.sort compare a) inputs;
  let reference = Sim.Merge.k_way (Array.map Array.copy inputs) in
  let rounds = Obs.Registry.counter "distrib.merge.rounds" in
  let rounds_before = Obs.Metric.value rounds in
  let got = Sim.Merge.recursive_doubling (Array.map Array.copy inputs) in
  check_bool "same result" true (got = reference);
  check_int "log2 k rounds" 4 (Obs.Metric.value rounds - rounds_before);
  check_bool "sorted" true (Sim.Merge.is_sorted got)

let merge_property =
  QCheck.Test.make ~name:"recursive doubling equals k-way on random disjoint inputs"
    ~count:50
    QCheck.(pair (int_range 1 9) (int_range 0 200))
    (fun (k, per) ->
      let inputs =
        Array.init k (fun r -> Array.init per (fun i -> ((i * k) + r, r)))
      in
      let a = Sim.Merge.k_way (Array.map Array.copy inputs) in
      let b = Sim.Merge.recursive_doubling (Array.map Array.copy inputs) in
      a = b && Sim.Merge.is_sorted b)

let () =
  Alcotest.run "sim"
    [
      ( "cost_model",
        [
          Alcotest.test_case "lock-free scales" `Quick lock_free_scales;
          Alcotest.test_case "coherence erosion anchor" `Quick lock_free_coherence_erodes;
          Alcotest.test_case "global lock anchor" `Quick global_lock_degrades;
          Alcotest.test_case "rw lock flattens" `Quick rw_lock_flattens;
          Alcotest.test_case "pmem overhead" `Quick pmem_overhead;
          Alcotest.test_case "calibrate" `Quick calibrate_measures;
        ] );
      ( "simnet",
        [
          Alcotest.test_case "transfer" `Quick simnet_transfer;
          Alcotest.test_case "rounds" `Quick simnet_rounds;
          Alcotest.test_case "collectives" `Quick simnet_collectives_grow_logarithmically;
        ] );
      ( "partition",
        [
          Alcotest.test_case "covers space" `Quick partition_covers_space;
          Alcotest.test_case "rejects foreign keys" `Quick partition_rejects_foreign_keys;
        ] );
      ( "merge",
        [
          Alcotest.test_case "two-way" `Quick merge_two_way;
          Alcotest.test_case "two-way empty" `Quick merge_two_way_empty;
          Alcotest.test_case "multi-threaded equals sequential" `Quick
            merge_multi_threaded_matches_sequential;
          Alcotest.test_case "more threads than elements (a.(-1) repro)" `Quick
            merge_multi_threaded_more_threads_than_elements;
          QCheck_alcotest.to_alcotest merge_multi_threaded_property;
          Alcotest.test_case "k-way" `Quick merge_k_way;
          Alcotest.test_case "k-way huge keys (>= 2^53)" `Quick merge_k_way_huge_keys;
          Alcotest.test_case "k-way duplicate keys stable" `Quick
            merge_k_way_duplicates_stable;
          QCheck_alcotest.to_alcotest merge_k_way_property;
          Alcotest.test_case "recursive doubling" `Quick merge_recursive_doubling_matches_k_way;
          QCheck_alcotest.to_alcotest merge_property;
        ] );
    ]
