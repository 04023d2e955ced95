(* Ablations of the design choices (all real measurements):

   1. hybrid ephemeral index vs none — Sec. IV-A's core premise:
      "without efficient indexing, a compact representation performs
      poorly". The ablated find scans the persistent key chain instead
      of descending the skip list.
   2. key-chain block size — the block chain trades allocation rate
      (small blocks) against reconstruction work distribution; a block
      is 8 + 16 x slots bytes, so 63 slots fill the 1024-byte size class
      and 64 round up to 2048.
   3. inline vs blob values — the codec stores small scalars inline in
      the history entry; the ablation forces a blob allocation per
      insert (what a naive encoding would do). *)

module P = Approaches.P

let build ?block_slots ~n () =
  let heap = Pmem.Pheap.create_ram ~capacity:!Approaches.heap_capacity () in
  let store = P.create ?block_slots heap in
  let keys = Workload.Keygen.unique_keys ~seed:1 n in
  Array.iter
    (fun k ->
      P.insert store k (k land 0xffff);
      ignore (P.tag store))
    keys;
  (heap, store, keys)

(* Ablation 1: find through the index vs a chain scan. *)
let index_vs_chain_scan ~n =
  Report.subheader "ablation 1: hybrid ephemeral index vs chain scan (find)";
  let heap, store, keys = build ~n () in
  let queries = min 2000 n in
  let rng = Workload.Mt19937.create 31 in
  let sample = Array.init queries (fun _ -> keys.(Workload.Mt19937.next_int rng n)) in
  let indexed_ns =
    Sim.Calibrate.ns_per_op ~ops:queries (fun () ->
        Array.iter (fun k -> ignore (P.find store k)) sample)
  in
  (* Ablated: locate the key by scanning the persistent chain (what the
     compact representation offers without the ephemeral index), then
     read the history as usual. *)
  let chain =
    Pmem.Pblockchain.attach heap (Pmem.Pheap.root_get heap 0)
  in
  let media = Pmem.Pheap.media heap in
  let chain_find key =
    let found = ref None in
    Pmem.Pblockchain.iter_slots chain (fun ~key:word ~hist ->
        if !found = None && Mvdict.Codec.decode (module Mvdict.Codec.Int_key) media word = key
        then found := Some hist);
    !found
  in
  let scan_queries = min 200 queries in
  let scan_ns =
    Sim.Calibrate.ns_per_op ~ops:scan_queries (fun () ->
        for i = 0 to scan_queries - 1 do
          ignore (chain_find sample.(i))
        done)
  in
  Printf.printf "  indexed find: %8.0f ns/op\n  chain-scan find: %8.0f ns/op (%.0fx slower)\n"
    indexed_ns scan_ns (scan_ns /. indexed_ns);
  Report.shape_check ~label:"the ephemeral index is load-bearing (>= 10x)"
    (scan_ns > 10.0 *. indexed_ns)

(* Ablation 2: block chain block size. *)
let block_size_sweep ~n =
  Report.subheader "ablation 2: key-chain block size (insert + reconstruction)";
  Printf.printf "  %-12s%14s%16s%12s%12s\n" "block_slots" "insert ns/op" "reconstruct"
    "blocks" "live KiB";
  List.iter
    (fun block_slots ->
      let insert_ns =
        let heap = Pmem.Pheap.create_ram ~capacity:!Approaches.heap_capacity () in
        let store = P.create ~block_slots heap in
        let keys = Workload.Keygen.unique_keys ~seed:1 n in
        Sim.Calibrate.ns_per_op ~ops:n (fun () ->
            Array.iter
              (fun k ->
                P.insert store k k;
                ignore (P.tag store))
              keys)
      in
      let heap, _store, _keys = build ~block_slots ~n () in
      let reconstruct_s =
        Sim.Calibrate.time_s (fun () ->
            ignore (P.open_existing ~threads:2 (Pmem.Pheap.reopen heap)))
      in
      let chain = Pmem.Pblockchain.attach heap (Pmem.Pheap.root_get heap 0) in
      Printf.printf "  %-12d%14.0f%16s%12d%12d\n" block_slots insert_ns
        (Report.seconds reconstruct_s)
        (Pmem.Pblockchain.block_count chain)
        (Pmem.Pstats.live_bytes (Pmem.Pheap.stats heap) / 1024))
    [ 4; 63; 64; 512 ]

(* Ablation 3: inline vs blob value encoding. *)
let inline_vs_blob ~n =
  Report.subheader "ablation 3: inline vs blob value encoding (insert + find)";
  let measure label make_value =
    let heap = Pmem.Pheap.create_ram ~capacity:!Approaches.heap_capacity () in
    let store = P.create heap in
    let keys = Workload.Keygen.unique_keys ~seed:1 n in
    let insert_ns =
      Sim.Calibrate.ns_per_op ~ops:n (fun () ->
          Array.iter
            (fun k ->
              P.insert store k (make_value k);
              ignore (P.tag store))
            keys)
    in
    let find_ns =
      Sim.Calibrate.ns_per_op ~ops:n (fun () ->
          Array.iter (fun k -> ignore (P.find store k)) keys)
    in
    let live = Pmem.Pstats.live_bytes (Pmem.Pheap.stats heap) in
    Printf.printf "  %-8s insert %7.0f ns/op, find %7.0f ns/op, live heap %d KiB\n"
      label insert_ns find_ns (live / 1024);
    (find_ns, live)
  in
  (* First pair warms the allocator/GC; the second pair is reported
     (single-thread micro-comparisons are order-sensitive otherwise). *)
  let _ = measure "inline" (fun k -> k land 0xffff) in
  let _ = measure "blob" (fun k -> -(k land 0xffff) - 1) in
  print_endline "  (warm-up above; measured pair below)";
  let inline_find, inline_live = measure "inline" (fun k -> k land 0xffff) in
  (* Negative values take the blob path in the codec. *)
  let blob_find, blob_live = measure "blob" (fun k -> -(k land 0xffff) - 1) in
  Report.shape_check ~label:"inline reads are not slower than blob reads (within 15%)"
    (inline_find < blob_find *. 1.15);
  Report.shape_check ~label:"inline encoding saves heap space" (inline_live < blob_live)

let run ~n =
  Report.header (Printf.sprintf "Ablations of design choices, N=%d" n);
  index_vs_chain_scan ~n;
  block_size_sweep ~n;
  inline_vs_blob ~n
