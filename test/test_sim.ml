(* Tests for lib/sim (cost model, calibration helpers) and lib/distrib
   (network model, partitioning, merges, distributed store). *)

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
  let net = { Distrib.Simnet.latency_s = 1e-6; bandwidth_bps = 1e9 } in
  check_float "latency only" 1e-6 (Distrib.Simnet.transfer_s net ~bytes:0);
  check_float "latency + payload" (1e-6 +. 1e-3)
    (Distrib.Simnet.transfer_s net ~bytes:1_000_000)

let simnet_rounds () =
  List.iter
    (fun (k, expected) -> check_int (Printf.sprintf "rounds %d" k) expected (Distrib.Simnet.rounds k))
    [ (1, 0); (2, 1); (3, 2); (4, 2); (5, 3); (512, 9) ]

let simnet_collectives_grow_logarithmically () =
  let net = Distrib.Simnet.theta_like in
  let b8 = Distrib.Simnet.bcast_s net ~ranks:8 ~bytes:64 in
  let b64 = Distrib.Simnet.bcast_s net ~ranks:64 ~bytes:64 in
  check_float "bcast log ratio" 2.0 (b64 /. b8);
  let g = Distrib.Simnet.gather_linear_s net ~ranks:2 ~bytes_per_rank:1000 in
  check_bool "gather positive" true (g > 0.0)

(* Partition *)

let partition_covers_space () =
  let p = Distrib.Partition.create ~ranks:8 ~key_bits:16 in
  let counts = Array.make 8 0 in
  for key = 0 to (1 lsl 16) - 1 do
    let r = Distrib.Partition.owner p key in
    counts.(r) <- counts.(r) + 1
  done;
  check_bool "all ranks used" true (Array.for_all (fun c -> c > 0) counts);
  check_int "total" (1 lsl 16) (Array.fold_left ( + ) 0 counts);
  (* Ranges and owner agree. *)
  let ok = ref true in
  for r = 0 to 7 do
    let lo, hi = Distrib.Partition.range p r in
    if not (Distrib.Partition.owner p lo = r && Distrib.Partition.owner p (hi - 1) = r)
    then ok := false
  done;
  check_bool "range/owner agreement" true !ok

let partition_rejects_foreign_keys () =
  let p = Distrib.Partition.create ~ranks:4 ~key_bits:8 in
  Alcotest.check_raises "negative key"
    (Invalid_argument "Partition.owner: key -1 outside key space") (fun () ->
      ignore (Distrib.Partition.owner p (-1)))

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
    (Distrib.Merge.two_way a b)

let merge_two_way_empty () =
  let a = [| (1, 1) |] in
  check_bool "right empty" true (Distrib.Merge.two_way a [||] = a);
  check_bool "left empty" true (Distrib.Merge.two_way [||] a = a)

let merge_multi_threaded_matches_sequential () =
  let a = sorted_pairs ~seed:1 ~parity:0 ~classes:2 5000 in
  let b = sorted_pairs ~seed:2 ~parity:1 ~classes:2 3000 in
  let reference = Distrib.Merge.two_way a b in
  List.iter
    (fun threads ->
      let got = Distrib.Merge.multi_threaded ~threads a b in
      check_bool (Printf.sprintf "threads=%d" threads) true (got = reference))
    [ 1; 2; 4; 7 ]

let merge_multi_threaded_more_threads_than_elements () =
  (* Regression: threads > |a| used to probe a.(-1) and raise
     Invalid_argument "index out of bounds" (na=3, threads=8 gives
     a_bound 1 = 0) — the exact path recursive_doubling ~threads
     drives for Fig. 8. *)
  let a = [| (1, 10); (3, 30); (5, 50) |] in
  let b = [| (2, 20); (4, 40); (6, 60); (8, 80) |] in
  let reference = Distrib.Merge.two_way a b in
  List.iter
    (fun threads ->
      check_bool
        (Printf.sprintf "threads=%d over |a|=3" threads)
        true
        (Distrib.Merge.multi_threaded ~threads a b = reference))
    [ 4; 8; 16; 100 ]

let merge_multi_threaded_property =
  QCheck.Test.make
    ~name:"multi_threaded agrees with two_way for all (threads, |a|, |b|)"
    ~count:300
    QCheck.(triple (int_range 1 16) (int_range 0 40) (int_range 0 40))
    (fun (threads, la, lb) ->
      let a = sorted_pairs ~seed:(la + 1) ~parity:0 ~classes:2 la in
      let b = sorted_pairs ~seed:(lb + 101) ~parity:1 ~classes:2 lb in
      Distrib.Merge.multi_threaded ~threads a b = Distrib.Merge.two_way a b)

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
    (Distrib.Merge.k_way inputs);
  check_bool "float would collide (sanity)" true
    (float_of_int base = float_of_int (base + 1))

let merge_k_way_duplicates_stable () =
  (* Duplicate keys across inputs come out in input-index order. *)
  let inputs = [| [| (5, 100); (7, 101) |]; [| (5, 200) |]; [| (5, 300); (6, 301) |] |] in
  Alcotest.(check (array (pair int int)))
    "input-index tie-break"
    [| (5, 100); (5, 200); (5, 300); (6, 301); (7, 101) |]
    (Distrib.Merge.k_way inputs)

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
      let got = Distrib.Merge.k_way inputs in
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
    (Distrib.Merge.k_way inputs)

let merge_recursive_doubling_matches_k_way () =
  (* Disjoint sorted partitions, like range-partitioned snapshots. *)
  let k = 16 and per = 500 in
  let inputs =
    Array.init k (fun r ->
        Array.init per (fun i -> ((i * k) + r, r)))
  in
  Array.iter (fun a -> Array.sort compare a) inputs;
  let reference = Distrib.Merge.k_way (Array.map Array.copy inputs) in
  let rounds_seen = ref 0 in
  let got =
    Distrib.Merge.recursive_doubling
      ~round:(fun ~round:_ ~merges:_ -> incr rounds_seen)
      (Array.map Array.copy inputs)
  in
  check_bool "same result" true (got = reference);
  check_int "log2 k rounds" 4 !rounds_seen;
  check_bool "sorted" true (Distrib.Merge.is_sorted got)

let merge_property =
  QCheck.Test.make ~name:"recursive doubling equals k-way on random disjoint inputs"
    ~count:50
    QCheck.(pair (int_range 1 9) (int_range 0 200))
    (fun (k, per) ->
      let inputs =
        Array.init k (fun r -> Array.init per (fun i -> ((i * k) + r, r)))
      in
      let a = Distrib.Merge.k_way (Array.map Array.copy inputs) in
      let b = Distrib.Merge.recursive_doubling (Array.map Array.copy inputs) in
      a = b && Distrib.Merge.is_sorted b)

(* Dstore *)

module E = Mvdict.Eskiplist.Make (Int) (Int)
module DE = Distrib.Dstore.Make (E)

let dstore_make ranks =
  DE.create ~ranks ~key_bits:20 ~make_local:(fun _ -> E.create ())

let dstore_routing_and_find () =
  let t = dstore_make 4 in
  let keys = Array.init 1000 (fun i -> i * 997 mod (1 lsl 20)) in
  Array.iter (fun k -> DE.insert t k (k + 1)) keys;
  let missing = ref 0 in
  Array.iter
    (fun k -> if DE.find t k <> Some (k + 1) then incr missing)
    keys;
  check_int "all routed finds hit" 0 !missing;
  check_bool "absent key" true (DE.find t 999_983 = None || Array.exists (Int.equal 999_983) keys);
  (* Keys landed on their owning rank's local store. *)
  let p = DE.partition t in
  let ok = ref true in
  Array.iter
    (fun k ->
      if E.find (DE.local t (Distrib.Partition.owner p k)) k <> Some (k + 1) then
        ok := false)
    keys;
  check_bool "owner-local storage" true !ok

let dstore_snapshots_agree () =
  let t = dstore_make 8 in
  let keys = Array.init 5000 (fun i -> i * 131 mod (1 lsl 20)) in
  let distinct = Hashtbl.create 4096 in
  Array.iter
    (fun k ->
      DE.insert t k (k * 2);
      Hashtbl.replace distinct k ())
    keys;
  let naive = DE.snapshot_naive t () in
  let opt = DE.snapshot_opt t () in
  let opt_mt = DE.snapshot_opt t ~threads:4 () in
  check_int "naive size" (Hashtbl.length distinct) (Array.length naive);
  check_bool "naive sorted" true (Distrib.Merge.is_sorted naive);
  check_bool "opt = naive" true (opt = naive);
  check_bool "opt mt = naive" true (opt_mt = naive)

let dstore_find_bulk () =
  let t = dstore_make 8 in
  let keys = Array.init 500 (fun i -> i * 7919 mod (1 lsl 20)) in
  Array.iter (fun k -> DE.insert t k (k + 3)) keys;
  let queries = Array.append keys [| 999_999; 123_321 |] in
  let replies = DE.find_bulk t queries in
  check_int "reply count" (Array.length queries) (Array.length replies);
  let ok = ref true in
  Array.iteri
    (fun i k ->
      let expected = if i < Array.length keys then Some (k + 3) else DE.find t k in
      if replies.(i) <> expected then ok := false)
    queries;
  check_bool "bulk replies match routed finds" true !ok

let dstore_remove_and_history () =
  let t = dstore_make 4 in
  DE.insert t 42 420;
  DE.remove t 42;
  check_bool "removed" true (DE.find t 42 = None);
  match DE.extract_history t 42 with
  | [ (_, Mvdict.Dict_intf.Put 420); (_, Mvdict.Dict_intf.Del) ] -> ()
  | _ -> Alcotest.fail "unexpected history"

let () =
  Alcotest.run "sim+distrib"
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
      ( "dstore",
        [
          Alcotest.test_case "routing and find" `Quick dstore_routing_and_find;
          Alcotest.test_case "snapshots agree" `Quick dstore_snapshots_agree;
          Alcotest.test_case "find_bulk" `Quick dstore_find_bulk;
          Alcotest.test_case "remove and history" `Quick dstore_remove_and_history;
        ] );
    ]
