(* Tests for lib/pmem: media semantics (including crash simulation),
   allocator, heap, blobs, vectors, block chain. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_bytes = Alcotest.(check bytes)

let small_media () = Pmem.Media.create_ram ~capacity:(1 lsl 16) ()
let crash_media () = Pmem.Media.create_ram ~crash_sim:true ~capacity:(1 lsl 16) ()
let small_heap () = Pmem.Pheap.create_ram ~capacity:(1 lsl 20) ()

(* [f ()] with the lines it flushed and the fences it issued. *)
let persist_cost stats f =
  let lines = Pmem.Pstats.flushed_lines stats and fences = Pmem.Pstats.fences stats in
  let r = f () in
  (r, Pmem.Pstats.flushed_lines stats - lines, Pmem.Pstats.fences stats - fences)

(* Media *)

let media_i64_roundtrip () =
  let m = small_media () in
  Pmem.Media.set_i64 m 0 0;
  Pmem.Media.set_i64 m 8 1;
  Pmem.Media.set_i64 m 16 max_int;
  Pmem.Media.set_i64 m 24 0x0123_4567_89ab_cdef;
  check_int "zero" 0 (Pmem.Media.get_i64 m 0);
  check_int "one" 1 (Pmem.Media.get_i64 m 8);
  check_int "max_int" max_int (Pmem.Media.get_i64 m 16);
  check_int "pattern" 0x0123_4567_89ab_cdef (Pmem.Media.get_i64 m 24)

let media_bytes_roundtrip () =
  let m = small_media () in
  let data = Bytes.of_string "persistent memory emulation" in
  Pmem.Media.write_bytes m 100 data;
  check_bytes "roundtrip" data (Pmem.Media.read_bytes m 100 (Bytes.length data))

let media_bounds_checked () =
  let m = small_media () in
  Alcotest.check_raises "write past end"
    (Invalid_argument
       (Printf.sprintf "Media: access [%d, %d) out of bounds (capacity %d)"
          (1 lsl 16)
          ((1 lsl 16) + 8)
          (1 lsl 16)))
    (fun () -> Pmem.Media.set_i64 m (1 lsl 16) 1)

let media_flush_counts_lines () =
  let m = small_media () in
  let stats = Pmem.Media.stats m in
  Pmem.Pstats.reset stats;
  Pmem.Media.persist m 0 1;
  check_int "one line" 1 (Pmem.Pstats.flushed_lines stats);
  check_int "fence counted" 1 (Pmem.Pstats.fences stats);
  Pmem.Media.persist m 60 8;
  (* straddles the 64-byte boundary *)
  check_int "two more lines" 3 (Pmem.Pstats.flushed_lines stats);
  check_int "one fence per persist" 2 (Pmem.Pstats.fences stats)

let media_crash_discards_unflushed () =
  let m = crash_media () in
  Pmem.Media.set_i64 m 0 42;
  Pmem.Media.persist m 0 8;
  Pmem.Media.set_i64 m 8 99;
  (* not flushed *)
  Pmem.Media.simulate_crash m;
  check_int "flushed survives" 42 (Pmem.Media.get_i64 m 0);
  check_int "unflushed dropped" 0 (Pmem.Media.get_i64 m 8)

let media_crash_partial_flush () =
  let m = crash_media () in
  Pmem.Media.set_i64 m 0 1;
  Pmem.Media.set_i64 m 128 2;
  Pmem.Media.persist m 128 8;
  (* only the second line *)
  Pmem.Media.simulate_crash m;
  check_int "line 0 dropped" 0 (Pmem.Media.get_i64 m 0);
  check_int "line 2 kept" 2 (Pmem.Media.get_i64 m 128)

(* [persist_before] persists the payload lines before the commit word's
   line and leaves that line to the commit word's own persist. *)
let media_persist_before () =
  let m = crash_media () in
  let stats = Pmem.Media.stats m in
  let cost off commit =
    let (), lines, fences =
      persist_cost stats (fun () -> Pmem.Media.persist_before m off ~commit)
    in
    (lines, fences)
  in
  check_bool "same line: nothing" true (cost 8 24 = (0, 0));
  check_bool "one line before" true (cost 48 72 = (1, 1));
  check_bool "two lines before" true (cost 56 136 = (2, 1));
  Pmem.Media.set_i64 m 184 1;
  Pmem.Media.set_i64 m 192 2;
  Pmem.Media.set_i64 m 200 3;
  Pmem.Media.persist_before m 184 ~commit:200;
  Pmem.Media.simulate_crash m;
  check_int "payload before the commit line kept" 1 (Pmem.Media.get_i64 m 184);
  check_int "payload on the commit line dropped" 0 (Pmem.Media.get_i64 m 192)

let media_crash_requires_mode () =
  let m = small_media () in
  Alcotest.check_raises "no crash_sim"
    (Invalid_argument "Media.simulate_crash: media created without crash_sim")
    (fun () -> Pmem.Media.simulate_crash m)

(* An armed crash stops the k-th flush: the flushes before it are
   durable, it and every flush after it are lost. A batch barrier's
   drain is a flush too, and a crash there leaves the domain outside
   the scope. *)
let media_crash_after () =
  let m = crash_media () in
  let persist off v =
    Pmem.Media.set_i64 m off v;
    Pmem.Media.persist m off 8
  in
  Pmem.Media.crash_after m ~flushes:2;
  persist 0 1;
  Alcotest.check_raises "second flush crashes" Pmem.Media.Crash (fun () -> persist 64 2);
  persist 128 3;
  Pmem.Media.simulate_crash m;
  check_int "first flush durable" 1 (Pmem.Media.get_i64 m 0);
  check_int "crashed flush lost" 0 (Pmem.Media.get_i64 m 64);
  check_int "later flush lost" 0 (Pmem.Media.get_i64 m 128);
  Pmem.Media.crash_after m ~flushes:1;
  Alcotest.check_raises "barrier crashes" Pmem.Media.Crash (fun () ->
      Pmem.Media.with_batch (fun () -> persist 192 4));
  Pmem.Media.simulate_crash m;
  persist 256 5;
  Pmem.Media.simulate_crash m;
  check_int "batched line lost" 0 (Pmem.Media.get_i64 m 192);
  check_int "disarmed, outside any scope" 5 (Pmem.Media.get_i64 m 256);
  Alcotest.check_raises "crash_sim media only"
    (Invalid_argument "Media.crash_after: media created without crash_sim")
    (fun () -> Pmem.Media.crash_after (small_media ()) ~flushes:1)

(* A batch scope keeps its entry and range log per domain and reuses
   them, so a scope in steady state allocates nothing: 10,000 scopes
   around one persist each, after a warm-up. *)
let media_batch_scope_allocates_nothing () =
  let m = small_media () in
  let body () = Pmem.Media.persist m 64 8 in
  for _ = 1 to 100 do
    Pmem.Media.with_batch body
  done;
  let w0 = Gc.minor_words () in
  for _ = 1 to 10_000 do
    Pmem.Media.with_batch body
  done;
  let words = Gc.minor_words () -. w0 in
  check_bool
    (Printf.sprintf "10,000 scopes allocate %.0f minor words, at most 100" words)
    true (words <= 100.)

(* A scope defers the persists of one media at a time: a persist to a
   second media drains the first one's deferred lines, so they are
   durable before anything persisted after them, while the second
   media's lines wait for the scope's own drain. *)
let media_batch_scope_drains_on_media_switch () =
  let first = crash_media () and second = crash_media () in
  Pmem.Media.with_batch (fun () ->
      Pmem.Media.set_i64 first 64 1;
      Pmem.Media.persist first 64 8;
      Pmem.Media.set_i64 second 64 2;
      Pmem.Media.persist second 64 8;
      Pmem.Media.simulate_crash first;
      Pmem.Media.simulate_crash second);
  check_int "the first media's deferred line is durable" 1 (Pmem.Media.get_i64 first 64);
  check_int "the second media's line was still deferred" 0 (Pmem.Media.get_i64 second 64)

let media_file_backed_persists () =
  let path = Filename.temp_file "mvkv" ".pm" in
  let m = Pmem.Media.create_file ~path ~capacity:4096 in
  Pmem.Media.set_i64 m 8 123456;
  Pmem.Media.persist m 8 8;
  Pmem.Media.close m;
  let m2 = Pmem.Media.open_file ~path in
  check_int "value after reopen" 123456 (Pmem.Media.get_i64 m2 8);
  check_int "capacity from file size" 4096 (Pmem.Media.capacity m2);
  Pmem.Media.close m2;
  Sys.remove path

(* A word store on file media is one 64-bit store: a reader racing a
   writer of the same word sees one of the two values, never a mix of
   their bytes (a torn history pointer). 0 and -1 differ in every byte,
   so any torn read is caught. *)
let media_file_words_not_torn () =
  let path = Filename.temp_file "mvkv" ".pm" in
  let m = Pmem.Media.create_file ~path ~capacity:4096 in
  let stop = Atomic.make false in
  let writer =
    Domain.spawn (fun () ->
        while not (Atomic.get stop) do
          Pmem.Media.set_i64 m 64 (-1);
          Pmem.Media.set_i64 m 64 0
        done)
  in
  let torn = ref 0 in
  for _ = 1 to 1_000_000 do
    match Pmem.Media.get_i64 m 64 with 0 | -1 -> () | _ -> incr torn
  done;
  Atomic.set stop true;
  Domain.join writer;
  Pmem.Media.close m;
  Sys.remove path;
  check_int "torn reads" 0 !torn

(* Domains claim consecutive words with a shared counter (as key-chain
   appends claim slots), so neighbouring words of one cache line are
   written and flushed by different domains at nearly the same time.
   Each flush copies whole lines into the durable image: a copy that
   read a line before a neighbour's write and stored it after the
   neighbour's own flush would drop that word. Every word must survive
   the crash that ends each round. *)
let media_concurrent_line_flushes () =
  let words = 1 lsl 18 in
  let m = Pmem.Media.create_ram ~crash_sim:true ~capacity:(8 * words) () in
  let lost = ref 0 in
  for round = 1 to 8 do
    let next = Atomic.make 0 in
    ignore
      (Concurrent.Parallel.run ~threads:6 (fun _ ->
           let rec claim () =
             let w = Atomic.fetch_and_add next 1 in
             if w < words then begin
               Pmem.Media.set_i64 m (8 * w) ((round * words) + w);
               Pmem.Media.persist m (8 * w) 8;
               claim ()
             end
           in
           claim ()));
    Pmem.Media.simulate_crash m;
    for w = 0 to words - 1 do
      if Pmem.Media.get_i64 m (8 * w) <> (round * words) + w then incr lost
    done
  done;
  check_int "words lost to racing line copies" 0 !lost

(* Pools written when file media stored words bytewise (bit 63 always
   clear) still decode to the same ints. *)
let media_file_words_legacy_layout () =
  let path = Filename.temp_file "mvkv" ".pm" in
  let m = Pmem.Media.create_file ~path ~capacity:4096 in
  List.iteri
    (fun i v ->
      let b = Bytes.create 8 in
      Bytes.set_int64_le b 0 (Int64.logand (Int64.of_int v) Int64.max_int);
      Pmem.Media.write_bytes m (8 * i) b;
      check_int "legacy word decodes" v (Pmem.Media.get_i64 m (8 * i)))
    [ 0; 1; -1; -2; max_int; min_int; 0x0123_4567_89ab_cdef ];
  Pmem.Media.close m;
  Sys.remove path

(* Allocator *)

let alloc_basic () =
  let m = small_media () in
  let a = Pmem.Alloc.format m ~base_off:64 ~heap_end:(1 lsl 16) in
  let p1 = Pmem.Alloc.alloc a 16 in
  let p2 = Pmem.Alloc.alloc a 16 in
  check_bool "aligned" true (p1 land 7 = 0 && p2 land 7 = 0);
  check_bool "distinct" true (p1 <> p2)

let alloc_recycles () =
  let m = small_media () in
  let a = Pmem.Alloc.format m ~base_off:64 ~heap_end:(1 lsl 16) in
  let p1 = Pmem.Alloc.alloc a 32 in
  Pmem.Alloc.free a p1 32;
  let p2 = Pmem.Alloc.alloc a 32 in
  check_int "free list reuses the block" p1 p2

let alloc_size_class_separation () =
  let m = small_media () in
  let a = Pmem.Alloc.format m ~base_off:64 ~heap_end:(1 lsl 16) in
  let p1 = Pmem.Alloc.alloc a 16 in
  Pmem.Alloc.free a p1 16;
  let p2 = Pmem.Alloc.alloc a 64 in
  check_bool "different class does not reuse" true (p1 <> p2)

let alloc_out_of_memory () =
  let m = Pmem.Media.create_ram ~capacity:1024 () in
  let a = Pmem.Alloc.format m ~base_off:64 ~heap_end:1024 in
  Alcotest.check_raises "exhaustion" Out_of_memory (fun () ->
      for _ = 1 to 1000 do
        ignore (Pmem.Alloc.alloc a 64)
      done)

let alloc_survives_reattach () =
  let m = small_media () in
  let a = Pmem.Alloc.format m ~base_off:64 ~heap_end:(1 lsl 16) in
  let p1 = Pmem.Alloc.alloc a 48 in
  let a2 = Pmem.Alloc.attach m ~base_off:64 in
  let p2 = Pmem.Alloc.alloc a2 48 in
  check_bool "no double allocation after reattach" true (p1 <> p2)

let alloc_zeroed_is_zero () =
  let m = small_media () in
  let a = Pmem.Alloc.format m ~base_off:64 ~heap_end:(1 lsl 16) in
  (* Dirty a block, free it, re-allocate zeroed. *)
  let p = Pmem.Alloc.alloc a 32 in
  Pmem.Media.set_i64 m (p + 8) 0xdead;
  Pmem.Alloc.free a p 32;
  let q = Pmem.Alloc.alloc_zeroed a 32 in
  check_int "same block" p q;
  check_int "zeroed" 0 (Pmem.Media.get_i64 m (q + 8))

(* A fresh block lies below the persisted reservation and above every
   block handed out so far, so it is durable zero already: neither
   cutting it nor zeroing it writes or flushes anything. *)
let alloc_zeroed_fresh_flushes_nothing () =
  let m = small_media () in
  let a = Pmem.Alloc.format m ~base_off:64 ~heap_end:(1 lsl 16) in
  let stats = Pmem.Media.stats m in
  let _, alloc_lines, alloc_fences =
    persist_cost stats (fun () -> Pmem.Alloc.alloc a 1024)
  in
  let q, lines, fences = persist_cost stats (fun () -> Pmem.Alloc.alloc_zeroed a 1024) in
  check_int "alloc: no line" 0 alloc_lines;
  check_int "alloc: no fence" 0 alloc_fences;
  check_int "alloc_zeroed: no line" 0 lines;
  check_int "alloc_zeroed: no fence" 0 fences;
  check_bool "reads zero" true
    (Bytes.for_all (fun c -> c = '\000') (Pmem.Media.read_bytes m q 1024))

let zeroed m off len = Bytes.for_all (fun c -> c = '\000') (Pmem.Media.read_bytes m off len)

(* A block handed out inside a batch scope can be written and flushed
   by another domain before the scope's barrier, and the allocator
   persists nothing when it hands the block out. After a crash before
   the barrier, the rebuild at the next open decides: when it marks the
   block live (its owner linked it), the block is not handed out again,
   neither cut again as fresh memory nor split off a free block; when it
   does not, the block is free, and handed out zeroed. *)
let alloc_in_batch_survives_crash ~recycled () =
  let m = Pmem.Media.create_ram ~crash_sim:true ~capacity:(1 lsl 20) () in
  let a = Pmem.Alloc.format m ~base_off:64 ~heap_end:(1 lsl 20) in
  if recycled then Pmem.Alloc.free a (Pmem.Alloc.alloc a 32) 32;
  let p =
    Pmem.Media.with_batch (fun () ->
        let p = Pmem.Alloc.alloc a 32 in
        Pmem.Media.set_i64 m p 0xdead;
        Pmem.Media.set_i64 m (p + 8) 0xbeef;
        Domain.join (Domain.spawn (fun () -> Pmem.Media.persist m p 16));
        Pmem.Media.simulate_crash m;
        p)
  in
  check_int "the other domain's write is durable" 0xdead (Pmem.Media.get_i64 m p);
  let rebuilt ~live =
    let a = Pmem.Alloc.attach m ~base_off:64 in
    let marks = Pmem.Alloc.marks a in
    if live then Pmem.Alloc.mark marks p 32;
    Pmem.Alloc.rebuild a marks;
    a
  in
  let a2 = rebuilt ~live:true in
  let rec until_fresh () =
    let used = Pmem.Alloc.used_bytes a2 in
    let q = Pmem.Alloc.alloc_zeroed a2 32 in
    check_bool "not handed out again" true (q <> p);
    check_bool "reads zero" true (zeroed m q 32);
    if Pmem.Alloc.used_bytes a2 = used then until_fresh ()
  in
  until_fresh ();
  let q = Pmem.Alloc.alloc_zeroed (rebuilt ~live:false) 32 in
  check_int "unmarked: handed out again" p q;
  check_bool "unmarked: zeroed" true (zeroed m q 32)

(* A block cut past the reservation moves it first, persisted at once
   even inside a batch scope: after a crash before the scope's barrier,
   the block (which another domain wrote and flushed) still lies below
   the durable reservation, so memory cut fresh after the crash is not
   it, and reads zero. *)
let alloc_past_reservation_survives_crash () =
  let m = Pmem.Media.create_ram ~crash_sim:true ~capacity:(1 lsl 20) () in
  let a = Pmem.Alloc.format m ~base_off:64 ~heap_end:(1 lsl 20) in
  let r0 = Pmem.Alloc.reservation a in
  let p =
    Pmem.Media.with_batch (fun () ->
        let rec past () =
          let p = Pmem.Alloc.alloc a 4096 in
          if p + 4096 + 16 > r0 then p else past ()
        in
        let p = past () in
        Domain.join
          (Domain.spawn (fun () ->
               Pmem.Media.set_i64 m p 0xdead;
               Pmem.Media.persist m p 8));
        Pmem.Media.simulate_crash m;
        p)
  in
  check_int "the other domain's write is durable" 0xdead (Pmem.Media.get_i64 m p);
  let q = Pmem.Alloc.alloc_zeroed (Pmem.Alloc.attach m ~base_off:64) 4096 in
  check_bool "cut past the block" true (q >= p + 4096);
  check_bool "reads zero" true (zeroed m q 4096)

(* A recycled block's zero fill is durable when [alloc_zeroed] returns,
   even inside a batch scope: its caller may persist a link to it at
   once (a history growth does), and a crash before the scope's barrier
   must not leave that link pointing at the block's old contents. *)
let alloc_zeroed_recycled_in_batch_is_durable () =
  let m = crash_media () in
  let a = Pmem.Alloc.format m ~base_off:64 ~heap_end:(1 lsl 16) in
  let p = Pmem.Alloc.alloc a 32 in
  Pmem.Media.set_i64 m (p + 8) 0xdead;
  Pmem.Media.persist m p 32;
  Pmem.Alloc.free a p 32;
  Pmem.Media.with_batch (fun () ->
      check_int "recycled" p (Pmem.Alloc.alloc_zeroed a 32);
      Pmem.Media.simulate_crash m);
  check_int "zero fill survives the crash" 0 (Pmem.Media.get_i64 m (p + 8))

let alloc_oversized_reuse () =
  let m = small_media () in
  let a = Pmem.Alloc.format m ~base_off:64 ~heap_end:(1 lsl 16) in
  let stats = Pmem.Media.stats m in
  let leaked0 = Pmem.Pstats.leaked_bytes stats in
  let live0 = Pmem.Pstats.live_bytes stats in
  (* 8000 bytes is beyond the largest size class (4096): the free must
     land on the oversized first-fit list, not in the leak counter, and
     an exact-size re-allocation must hand the same block back. *)
  let p = Pmem.Alloc.alloc a 8000 in
  Pmem.Alloc.free a p 8000;
  check_int "oversized free is not a leak" leaked0
    (Pmem.Pstats.leaked_bytes stats);
  check_int "live_bytes back to baseline" live0 (Pmem.Pstats.live_bytes stats);
  let q = Pmem.Alloc.alloc a 8000 in
  check_int "exact-size oversized reuse" p q

let alloc_oversized_first_fit_split () =
  let m = small_media () in
  let a = Pmem.Alloc.format m ~base_off:64 ~heap_end:(1 lsl 16) in
  let stats = Pmem.Media.stats m in
  let leaked0 = Pmem.Pstats.leaked_bytes stats in
  (* Free an 8192-byte block, then ask for 6144: first fit splits the
     block, serving the request from its front... *)
  let p = Pmem.Alloc.alloc a 8192 in
  Pmem.Alloc.free a p 8192;
  let q = Pmem.Alloc.alloc a 6144 in
  check_int "first fit serves from the freed block" p q;
  (* ...and the 2048-byte remainder was recycled as a class block, so
     the next class-sized alloc comes out of that region instead of
     fresh heap. *)
  let r = Pmem.Alloc.alloc a 2048 in
  check_bool "remainder recycled into classes" true
    (r >= p + 6144 && r + 2048 <= p + 8192);
  (* Nothing was leaked along the way: a split remainder is allocator
     inventory, not garbage. *)
  check_int "split leaks nothing" leaked0 (Pmem.Pstats.leaked_bytes stats)

let alloc_oversized_survives_reattach () =
  let m = small_media () in
  let a = Pmem.Alloc.format m ~base_off:64 ~heap_end:(1 lsl 16) in
  let p = Pmem.Alloc.alloc a 6000 in
  Pmem.Alloc.free a p 6000;
  (* The free lists live in DRAM: after a reattach, a rebuild that does
     not mark the freed block makes it free again, and it is served
     again. *)
  let a2 = Pmem.Alloc.attach m ~base_off:64 in
  Pmem.Alloc.rebuild a2 (Pmem.Alloc.marks a2);
  let q = Pmem.Alloc.alloc a2 6000 in
  check_int "oversized free list survives reattach" p q

(* The free lists live in DRAM and a warm reservation covers the
   cursor, so alloc/free pairs write nothing to the media: class-sized
   and oversized, recycled and fresh alike. *)
let alloc_free_pairs_persist_nothing () =
  let h = Pmem.Pheap.create_ram ~capacity:(1 lsl 20) () in
  let a = Pmem.Pheap.allocator h in
  let sizes = [| 24; 64; 200; 5000 |] in
  Array.iter (fun size -> Pmem.Alloc.free a (Pmem.Alloc.alloc a size) size) sizes;
  let (), lines, fences =
    persist_cost (Pmem.Pheap.stats h) (fun () ->
        for i = 1 to 10_000 do
          let size = sizes.(i mod Array.length sizes) in
          Pmem.Alloc.free a (Pmem.Alloc.alloc a size) size
        done)
  in
  check_int "10,000 pairs: lines" 0 lines;
  check_int "10,000 pairs: fences" 0 fences

(* A rebuild returns each maximal unmarked run as one free block, so
   dead neighbours coalesce, and a class request splits a run too big
   for any class before it cuts fresh memory. *)
let alloc_rebuild_coalesces () =
  let m = Pmem.Media.create_ram ~capacity:(1 lsl 20) () in
  let a = Pmem.Alloc.format m ~base_off:64 ~heap_end:(1 lsl 20) in
  let blocks = Array.init 8 (fun _ -> Pmem.Alloc.alloc a 1024) in
  let a2 = Pmem.Alloc.attach m ~base_off:64 in
  let marks = Pmem.Alloc.marks a2 in
  Pmem.Alloc.mark marks blocks.(0) 1024;
  Pmem.Alloc.mark marks blocks.(7) 1000;
  Pmem.Alloc.rebuild a2 marks;
  let tail = blocks.(7) + 1024 in
  check_bool "blocks 1-6 and the tail are free, whole" true
    (Pmem.Alloc.free_blocks a2
    = [ (blocks.(1), 6 * 1024); (tail, Pmem.Alloc.reservation a2 - tail) ]);
  let used = Pmem.Alloc.used_bytes a2 in
  check_int "a class request splits the coalesced run" blocks.(1) (Pmem.Alloc.alloc a2 16);
  check_int "an oversized one too" (blocks.(1) + 16) (Pmem.Alloc.alloc a2 5000);
  check_int "no fresh memory cut" used (Pmem.Alloc.used_bytes a2);
  let free = Pmem.Alloc.free_blocks a2 in
  Pmem.Alloc.rebuild a2 (Pmem.Alloc.marks a2);
  check_bool "a second rebuild frees nothing" true (Pmem.Alloc.free_blocks a2 = free)

let alloc_concurrent_no_overlap () =
  let m = Pmem.Media.create_ram ~capacity:(1 lsl 20) () in
  let a = Pmem.Alloc.format m ~base_off:64 ~heap_end:(1 lsl 20) in
  let per_domain = 500 in
  let results =
    Concurrent.Parallel.run ~threads:4 (fun _ ->
        Array.init per_domain (fun _ -> Pmem.Alloc.alloc a 24))
  in
  let all = Array.concat (Array.to_list results) in
  let tbl = Hashtbl.create 2048 in
  Array.iter
    (fun p ->
      check_bool "unique block" false (Hashtbl.mem tbl p);
      Hashtbl.add tbl p ())
    all

(* Pheap *)

let pheap_roots () =
  let h = small_heap () in
  check_int "unset root is null" 0 (Pmem.Pheap.root_get h 3);
  Pmem.Pheap.root_set h 3 4096;
  check_int "root persisted" 4096 (Pmem.Pheap.root_get h 3);
  let h2 = Pmem.Pheap.reopen h in
  check_int "root after reopen" 4096 (Pmem.Pheap.root_get h2 3)

let pheap_rejects_bad_magic () =
  let m = small_media () in
  Alcotest.check_raises "unformatted"
    (Invalid_argument "Pheap.open_existing: bad magic (not a formatted heap)")
    (fun () -> ignore (Pmem.Pheap.open_existing m))

(* A pool stamped with an older layout version. Version-2 pools keep a
   history in one buffer, whose first word is its capacity; version 3
   and later read that word as a segment link. Version-3 pools persist
   a bump pointer and free-list heads where version 4 keeps its
   reservation. A version-4 key-chain slot points at a history header,
   where version 5 reads the history's first segment. A version-5 pool
   may hold a stamp floor without the compaction horizon that version 6
   always writes beside it. A version-6 pool holds a capacity word in
   every history's first segment, between its link word and its
   records, where version 7 reads record 0. *)
let old_layout_pool version =
  let path = Filename.temp_file "mvkv" ".pool" in
  let heap = Pmem.Pheap.create_file ~path ~capacity:(1 lsl 20) in
  Pmem.Media.set_i64 (Pmem.Pheap.media heap) 8 version;
  Pmem.Media.persist (Pmem.Pheap.media heap) 8 8;
  Pmem.Pheap.close heap;
  path

let pheap_rejects_layout version () =
  let path = old_layout_pool version in
  Alcotest.check_raises (Printf.sprintf "layout %d" version)
    (Invalid_argument "Pheap.open_existing: unsupported layout version")
    (fun () -> ignore (Pmem.Pheap.open_file ~path));
  Sys.remove path

let mvkv = Filename.concat (Filename.dirname Sys.executable_name) "../bin/mvkv.exe"

(* [mvkv --version], which names the heap layout the binary reads. *)
let mvkv_version =
  lazy
    (let out = Filename.temp_file "mvkv" ".out" in
     ignore
       (Sys.command
          (Printf.sprintf "%s --version > %s 2> /dev/null" (Filename.quote mvkv)
             (Filename.quote out)));
     let version = String.trim (In_channel.with_open_text out In_channel.input_all) in
     Sys.remove out;
     version)

(* Runs [mvkv args] and returns its exit status and its non-empty
   stderr lines. Only [dune runtest] rebuilds the binary before this
   suite, so a binary that reads another heap layout than this build
   fails each CLI case with one line, before the case runs it. *)
let mvkv_run args =
  let layout = Printf.sprintf "(heap layout %d)" Pmem.Pheap.layout_version in
  let version = Lazy.force mvkv_version in
  if not (String.ends_with ~suffix:layout version) then
    Alcotest.failf "%s reports version %S, not %s: run `dune build` first" mvkv version
      layout;
  let err = Filename.temp_file "mvkv" ".err" in
  let status =
    Sys.command
      (Printf.sprintf "%s %s > /dev/null 2> %s" (Filename.quote mvkv)
         (String.concat " " (List.map Filename.quote args))
         (Filename.quote err))
  in
  let lines =
    List.filter (( <> ) "")
      (String.split_on_char '\n' (In_channel.with_open_text err In_channel.input_all))
  in
  Sys.remove err;
  (status, lines)

(* The command line reports the refusal as a user error: exit status 2
   and one line on stderr. *)
let mvkv_rejects_layout version () =
  let path = old_layout_pool version in
  let status, lines = mvkv_run [ "find"; "--pool"; path; "--key"; "1" ] in
  Sys.remove path;
  check_int "exit status" 2 status;
  check_int "stderr lines" 1 (List.length lines);
  check_bool "names the layout version" true
    (List.for_all (String.ends_with ~suffix:"unsupported layout version") lines)

(* The allocator's free lists live in the DRAM of the process that opened
   the pool, so a second process is refused the pool while a server
   holds it, and gets it once the server is killed. *)
let mvkv_refuses_a_held_pool () =
  let dir = Filename.temp_dir "mvkv" "held" in
  let pool = Filename.concat dir "p.mvkv" and sock = Filename.concat dir "s.sock" in
  check_int "init" 0 (fst (mvkv_run [ "init"; "--pool"; pool; "--size"; "1048576" ]));
  let null = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let server =
    Unix.create_process mvkv [| mvkv; "serve"; "--pool"; pool; "--socket"; sock |] null null null
  in
  Unix.close null;
  let fd = Unix.openfile pool [ Unix.O_RDWR ] 0 in
  let held () =
    match Unix.lockf fd Unix.F_TEST 0 with
    | () -> false
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EACCES), _, _) -> true
  in
  let t0 = Unix.gettimeofday () in
  while (not (held ())) && Unix.gettimeofday () -. t0 < 20. do
    Unix.sleepf 0.01
  done;
  Unix.close fd;
  let status, lines = mvkv_run [ "find"; "--pool"; pool; "--key"; "1" ] in
  Unix.kill server Sys.sigkill;
  ignore (Unix.waitpid [] server);
  let after, _ = mvkv_run [ "find"; "--pool"; pool; "--key"; "1" ] in
  List.iter (fun f -> try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
    [ "p.mvkv"; "s.sock" ];
  Sys.rmdir dir;
  check_int "exit status while held" 2 status;
  check_int "stderr lines" 1 (List.length lines);
  check_bool "cannot open pool" true
    (List.for_all (String.starts_with ~prefix:"mvkv: cannot open pool") lines);
  check_int "after SIGKILL: opens (key absent)" 1 after

(* Two live allocators on one media would hand out the same block, so
   [reopen] retires the handle it replaces. *)
let pheap_reopen_retires () =
  let h = small_heap () in
  let h2 = Pmem.Pheap.reopen h in
  Alcotest.check_raises "alloc on the retired handle"
    (Invalid_argument "Alloc.alloc: allocator retired by a reopen")
    (fun () -> ignore (Pmem.Alloc.alloc (Pmem.Pheap.allocator h) 16));
  ignore (Pmem.Alloc.alloc (Pmem.Pheap.allocator h2) 16)

let pheap_root_bounds () =
  let h = small_heap () in
  Alcotest.check_raises "slot range" (Invalid_argument "Pheap: root slot out of range")
    (fun () -> ignore (Pmem.Pheap.root_get h 16))

(* Pblob *)

let blob_roundtrip () =
  let h = small_heap () in
  let data = Bytes.of_string "hello blob" in
  let p = Pmem.Pblob.write h data in
  check_bytes "roundtrip" data (Pmem.Pblob.read (Pmem.Pheap.media h) p);
  check_int "length" 10 (Pmem.Pblob.length (Pmem.Pheap.media h) p)

let blob_empty () =
  let h = small_heap () in
  let p = Pmem.Pblob.write h Bytes.empty in
  check_bytes "empty blob" Bytes.empty (Pmem.Pblob.read (Pmem.Pheap.media h) p)

let blob_free_recycles () =
  let h = small_heap () in
  let p1 = Pmem.Pblob.write h (Bytes.make 10 'x') in
  Pmem.Pblob.free h p1;
  let p2 = Pmem.Pblob.write h (Bytes.make 10 'y') in
  check_int "recycled" p1 p2

(* Pvector *)

let pvector_words () =
  let h = small_heap () in
  let v = Pmem.Pvector.create h in
  Pmem.Pvector.set_word h v ~record:0 ~word:0 10;
  Pmem.Pvector.set_word h v ~record:0 ~word:1 20;
  Pmem.Pvector.set_word h v ~record:0 ~word:2 30;
  Pmem.Pvector.set_word h v ~record:1 ~word:0 11;
  check_int "w0" 10 (Pmem.Pvector.get_word h v ~record:0 ~word:0);
  check_int "w1" 20 (Pmem.Pvector.get_word h v ~record:0 ~word:1);
  check_int "w2" 30 (Pmem.Pvector.get_word h v ~record:0 ~word:2);
  (* Record 0's three words where [iter_records] locates it. *)
  let offs = ref [] in
  Pmem.Pvector.iter_records v (fun off -> offs := off :: !offs);
  let r0 = List.hd (List.rev !offs) and media = Pmem.Pheap.media h in
  check_int "r3 a" 10 (Pmem.Media.get_i64 media r0);
  check_int "r3 b" 20 (Pmem.Media.get_i64 media (r0 + 8));
  check_int "r3 c" 30 (Pmem.Media.get_i64 media (r0 + 16));
  check_int "record 1" 11 (Pmem.Pvector.get_word h v ~record:1 ~word:0)

let pvector_grow_preserves () =
  let h = small_heap () in
  let v = Pmem.Pvector.create h in
  Pmem.Pvector.set_word h v ~record:0 ~word:0 1;
  Pmem.Pvector.set_word h v ~record:1 ~word:0 2;
  Pmem.Pvector.persist_record h v ~record:0;
  Pmem.Pvector.persist_record h v ~record:1;
  check_int "capacity before" 2 (Pmem.Pvector.capacity v);
  let v = Pmem.Pvector.grow h v 3 in
  check_bool "capacity grown" true (Pmem.Pvector.capacity v >= 3);
  check_int "record 0 preserved" 1 (Pmem.Pvector.get_word h v ~record:0 ~word:0);
  check_int "record 1 preserved" 2 (Pmem.Pvector.get_word h v ~record:1 ~word:0);
  Pmem.Pvector.set_word h v ~record:2 ~word:0 3;
  check_int "new record writable" 3 (Pmem.Pvector.get_word h v ~record:2 ~word:0)

(* A vector has no header: its root is its first segment, whose link
   word leads its records, as in every segment, and its capacity is
   2^(segments), read back from the links alone. *)
let pvector_attach () =
  let h = small_heap () in
  let media = Pmem.Pheap.media h in
  let v = Pmem.Pvector.create h in
  check_int "capacity of one segment" 2 (Pmem.Pvector.capacity v);
  let v = Pmem.Pvector.grow h v 5 in
  Pmem.Pvector.set_word h v ~record:0 ~word:0 66;
  Pmem.Pvector.set_word h v ~record:2 ~word:1 77;
  Pmem.Pvector.set_word h v ~record:4 ~word:2 88;
  let root = Pmem.Pvector.root v in
  let v2 = Pmem.Pvector.attach h root in
  check_int "capacity after attach" 8 (Pmem.Pvector.capacity v2);
  check_int "record 2 after attach" 77 (Pmem.Pvector.get_word h v2 ~record:2 ~word:1);
  check_int "record 4 after attach" 88 (Pmem.Pvector.get_word h v2 ~record:4 ~word:2);
  check_int "record 0 follows the link word" 66 (Pmem.Media.get_i64 media (root + 8));
  let second = Pmem.Media.get_i64 media root in
  check_int "record 2 follows the second segment's link word" 77
    (Pmem.Media.get_i64 media (second + 16));
  Alcotest.check_raises "null root" (Invalid_argument "Pvector.attach: null root")
    (fun () -> ignore (Pmem.Pvector.attach h Pmem.Pptr.null))

let pvector_grow_crash_safe () =
  let media = Pmem.Media.create_ram ~crash_sim:true ~capacity:(1 lsl 20) () in
  let h = Pmem.Pheap.create media in
  let v = Pmem.Pvector.create h in
  Pmem.Pvector.set_word h v ~record:0 ~word:0 5;
  Pmem.Pvector.persist_record h v ~record:0;
  ignore (Pmem.Pvector.grow h v 8);
  (* Growth persisted everything it changed; a crash right after must
     leave an attachable vector with the data intact. *)
  Pmem.Media.simulate_crash media;
  let h2 = Pmem.Pheap.reopen h in
  let v2 = Pmem.Pvector.attach h2 (Pmem.Pvector.root v) in
  check_int "data survives crash after grow" 5
    (Pmem.Pvector.get_word h2 v2 ~record:0 ~word:0);
  check_bool "capacity valid" true (Pmem.Pvector.capacity v2 >= 2)

(* Pblockchain *)

(* Register a key in one go: claim a slot, then commit it. *)
let register c ~key ~hist = Pmem.Pblockchain.commit c (Pmem.Pblockchain.claim c ~key) ~hist

let chain_append_iterate () =
  let h = small_heap () in
  let c = Pmem.Pblockchain.create h ~block_slots:4 in
  for i = 1 to 10 do
    register c ~key:(i * 100) ~hist:(i * 8)
  done;
  check_int "claimed" 10 (Pmem.Pblockchain.claimed c);
  check_int "blocks" 3 (Pmem.Pblockchain.block_count c);
  let seen = ref [] in
  Pmem.Pblockchain.iter_slots c (fun ~key ~hist -> seen := (key, hist) :: !seen);
  let seen = List.rev !seen in
  check_int "all slots" 10 (List.length seen);
  List.iteri
    (fun i (key, hist) ->
      check_int "key order" ((i + 1) * 100) key;
      check_int "hist" ((i + 1) * 8) hist)
    seen

let chain_attach_resumes () =
  let h = small_heap () in
  let c = Pmem.Pblockchain.create h ~block_slots:4 in
  for i = 1 to 6 do
    register c ~key:i ~hist:(i * 8)
  done;
  let c2 = Pmem.Pblockchain.attach h (Pmem.Pblockchain.handle c) in
  check_int "claimed recovered" 6 (Pmem.Pblockchain.claimed c2);
  register c2 ~key:7 ~hist:56;
  let count = ref 0 in
  Pmem.Pblockchain.iter_slots c2 (fun ~key:_ ~hist:_ -> incr count);
  check_int "all entries visible" 7 !count

let chain_concurrent_appends () =
  let h = Pmem.Pheap.create_ram ~capacity:(1 lsl 22) () in
  let c = Pmem.Pblockchain.create h ~block_slots:8 in
  let per_domain = 200 in
  ignore
    (Concurrent.Parallel.run ~threads:4 (fun tid ->
         for i = 0 to per_domain - 1 do
           register c ~key:((tid * per_domain) + i) ~hist:8
         done));
  check_int "all claimed" (4 * per_domain) (Pmem.Pblockchain.claimed c);
  let seen = Hashtbl.create 1024 in
  Pmem.Pblockchain.iter_slots c (fun ~key ~hist:_ ->
      check_bool "no duplicate slot" false (Hashtbl.mem seen key);
      Hashtbl.add seen key ());
  check_int "every append landed" (4 * per_domain) (Hashtbl.length seen)

(* The history word is a slot's commit word: a slot whose two words share
   a cache line costs one flushed line and one fence, and only a slot
   straddling two lines pays for the key word's line separately. *)
let chain_append_cost () =
  let h = small_heap () in
  let stats = Pmem.Pheap.stats h in
  let c = Pmem.Pblockchain.create h ~block_slots:8 in
  let block = (Pmem.Pblockchain.block_offsets c).(0) in
  let one_line_slots = ref 0 in
  for slot = 0 to 7 do
    let off = block + 8 + (16 * slot) in
    let expect =
      if off / Pmem.Media.cache_line = (off + 15) / Pmem.Media.cache_line then begin
        incr one_line_slots;
        1
      end
      else 2
    in
    let (), lines, fences =
      persist_cost stats (fun () -> register c ~key:slot ~hist:8)
    in
    check_int "flushed lines" expect lines;
    check_int "fences" expect fences
  done;
  check_bool "most slots fit one line" true (!one_line_slots >= 6)

let chain_crash_hole_skipped () =
  let media = Pmem.Media.create_ram ~crash_sim:true ~capacity:(1 lsl 20) () in
  let h = Pmem.Pheap.create media in
  let c = Pmem.Pblockchain.create h ~block_slots:4 in
  register c ~key:1 ~hist:8;
  register c ~key:2 ~hist:16;
  (* Fabricate a torn append: key word persisted, history word not. *)
  Pmem.Media.simulate_crash media;
  let h2 = Pmem.Pheap.reopen h in
  let c2 = Pmem.Pblockchain.attach h2 (Pmem.Pblockchain.handle c) in
  let keys = ref [] in
  Pmem.Pblockchain.iter_slots c2 (fun ~key ~hist:_ -> keys := key :: !keys);
  (* Both appends fully persisted each word, so both survive. *)
  Alcotest.(check (list int)) "persisted appends survive" [ 2; 1 ] !keys

(* A cleared slot is a hole, durably: iteration after a crash and a
   reattach skips it, and the next claim takes it again rather than a
   fresh slot. *)
let chain_clear_frees_slot () =
  let media = Pmem.Media.create_ram ~crash_sim:true ~capacity:(1 lsl 20) () in
  let h = Pmem.Pheap.create media in
  let c = Pmem.Pblockchain.create h ~block_slots:4 in
  let slot = Pmem.Pblockchain.claim c ~key:1 in
  Pmem.Pblockchain.commit c slot ~hist:8;
  register c ~key:2 ~hist:16;
  check_int "clear returns the key word" 1 (Pmem.Pblockchain.clear c slot);
  Pmem.Media.simulate_crash media;
  let c2 = Pmem.Pblockchain.attach (Pmem.Pheap.reopen h) (Pmem.Pblockchain.handle c) in
  let keys = ref [] in
  Pmem.Pblockchain.iter_slots c2 (fun ~key ~hist:_ -> keys := key :: !keys);
  Alcotest.(check (list int)) "the cleared slot is a hole" [ 2 ] !keys;
  check_int "the next claim takes it" slot (Pmem.Pblockchain.claim c ~key:3);
  check_int "claimed slots" 2 (Pmem.Pblockchain.claimed c)

(* A block linked inside a batch scope is published at once, and
   another domain's append there persists at once; so the link must be
   durable before the scope's barrier, or a crash before it loses that
   append. *)
let chain_block_linked_in_batch_survives_crash () =
  let media = Pmem.Media.create_ram ~crash_sim:true ~capacity:(1 lsl 20) () in
  let h = Pmem.Pheap.create media in
  let c = Pmem.Pblockchain.create h ~block_slots:2 in
  register c ~key:1 ~hist:8;
  register c ~key:2 ~hist:16;
  Pmem.Media.with_batch (fun () ->
      register c ~key:3 ~hist:24;
      Domain.join (Domain.spawn (fun () -> register c ~key:4 ~hist:32));
      Pmem.Media.simulate_crash media);
  let c2 = Pmem.Pblockchain.attach (Pmem.Pheap.reopen h) (Pmem.Pblockchain.handle c) in
  let keys = ref [] in
  Pmem.Pblockchain.iter_slots c2 (fun ~key ~hist:_ -> keys := key :: !keys);
  check_bool "the other domain's append survives" true (List.mem 4 !keys)

(* A linked block whose one claimed slot was cleared is still linked,
   and the chain's next claim writes there: a reattach lists it and
   marks it live, so the rebuild does not hand it out again. *)
let chain_emptied_tail_stays_live () =
  let h = small_heap () in
  let c = Pmem.Pblockchain.create h ~block_slots:2 in
  register c ~key:1 ~hist:8;
  register c ~key:2 ~hist:16;
  let slot = Pmem.Pblockchain.claim c ~key:3 in
  Pmem.Pblockchain.commit c slot ~hist:24;
  ignore (Pmem.Pblockchain.clear c slot);
  let h2 = Pmem.Pheap.reopen h in
  let c2 = Pmem.Pblockchain.attach h2 (Pmem.Pblockchain.handle c) in
  let blocks = Pmem.Pblockchain.block_offsets c2 in
  check_int "both linked blocks listed" 2 (Array.length blocks);
  let alloc = Pmem.Pheap.allocator h2 in
  let marks = Pmem.Alloc.marks alloc in
  Pmem.Pblockchain.mark c2 marks;
  Pmem.Alloc.rebuild alloc marks;
  (* A block of 2 slots is 8 + 16 * 2 bytes. *)
  let tail = blocks.(1) in
  check_bool "no free block overlaps the emptied tail" true
    (List.for_all (fun (off, n) -> off + n <= tail || off >= tail + 40) (Pmem.Alloc.free_blocks alloc))

(* One domain registers fresh keys while the other registers, commits
   and clears its own, so its holes are reused while fresh blocks of 4
   slots are linked. No slot may be live in two claims at once, the
   chain must hold exactly the keys left committed, and a reattach must
   read back the same blocks, slots and holes. *)
let chain_claims_race_clears () =
  let h = Pmem.Pheap.create_ram ~capacity:(1 lsl 22) () in
  let c = Pmem.Pblockchain.create h ~block_slots:4 in
  let per_domain = 400 in
  let live = Hashtbl.create 1024 and live_lock = Mutex.create () in
  let shared = Atomic.make 0 in
  let take key =
    let slot = Pmem.Pblockchain.claim c ~key in
    Mutex.protect live_lock (fun () ->
        if Hashtbl.mem live slot then Atomic.incr shared;
        Hashtbl.replace live slot ());
    Pmem.Pblockchain.commit c slot ~hist:(8 * (key + 1));
    (key, slot)
  in
  (* Out of the live set before the clear frees the slot for a claim. *)
  let release (_, slot) =
    Mutex.protect live_lock (fun () -> Hashtbl.remove live slot);
    ignore (Pmem.Pblockchain.clear c slot)
  in
  let kept =
    Concurrent.Parallel.run ~threads:2 (fun tid ->
        List.filter_map
          (fun i ->
            let taken = take ((tid * per_domain) + i) in
            if tid = 0 || i mod 3 = 0 then Some taken
            else begin
              release taken;
              None
            end)
          (List.init per_domain Fun.id))
    |> Array.to_list |> List.concat
  in
  check_int "no slot live in two claims at once" 0 (Atomic.get shared);
  let contents chain =
    let seen = ref [] in
    Pmem.Pblockchain.iter_slots chain (fun ~key ~hist -> seen := (key, hist) :: !seen);
    List.sort compare !seen
  in
  let pairs = Alcotest.(list (pair int int)) in
  Alcotest.check pairs "the chain holds the committed keys"
    (List.sort compare (List.map (fun (key, _) -> (key, 8 * (key + 1))) kept))
    (contents c);
  (* A reattach counts a hole only below the tail's last valid slot. So
     fill the holes, take one fresh slot on top, then clear every fifth
     kept key: holes in many blocks, all under a live top slot. *)
  let kept = ref kept and next = ref (2 * per_domain) in
  while Pmem.Pblockchain.free_slot_count c > 0 do
    kept := take !next :: !kept;
    incr next
  done;
  ignore (take !next);
  List.iteri (fun i taken -> if i mod 5 = 0 then release taken) !kept;
  check_bool "holes to read back" true (Pmem.Pblockchain.free_slot_count c > 0);
  let c2 = Pmem.Pblockchain.attach h (Pmem.Pblockchain.handle c) in
  let blocks = Array.to_list (Pmem.Pblockchain.block_offsets c2) in
  check_int "no block listed twice" (List.length blocks)
    (List.length (List.sort_uniq compare blocks));
  Alcotest.check pairs "reattached slots" (contents c) (contents c2);
  check_int "reattached holes" (Pmem.Pblockchain.free_slot_count c)
    (Pmem.Pblockchain.free_slot_count c2);
  check_int "reattached claim point" (Pmem.Pblockchain.claimed c)
    (Pmem.Pblockchain.claimed c2)

(* Property: a random alloc/free program never hands out overlapping
   live blocks, and frees recycle within a size class. *)
let qcheck_allocator_no_overlap =
  QCheck.Test.make ~name:"allocator never overlaps live blocks" ~count:100
    QCheck.(list (pair (int_range 1 300) bool))
    (fun program ->
      let m = Pmem.Media.create_ram ~capacity:(1 lsl 20) () in
      let a = Pmem.Alloc.format m ~base_off:64 ~heap_end:(1 lsl 20) in
      let live = ref [] in
      let ok = ref true in
      List.iter
        (fun (size, free_one) ->
          if free_one then
            match !live with
            | (ptr, sz) :: rest ->
                Pmem.Alloc.free a ptr sz;
                live := rest
            | [] -> ()
          else begin
            match Pmem.Alloc.alloc a size with
            | ptr ->
                let hi = ptr + size in
                List.iter
                  (fun (p, s) -> if ptr < p + s && p < hi then ok := false)
                  !live;
                live := (ptr, size) :: !live
            | exception Out_of_memory -> ()
          end)
        program;
      !ok)

(* Property: a chain survives any number of reattachments with all
   appended slots intact and in order. Each reattach walks the whole
   chain, so a case costs the square of its batch count: at most 64
   keep the property near a tenth of a second. *)
let qcheck_chain_reattach =
  QCheck.Test.make ~name:"block chain survives reattach at any point" ~count:50
    QCheck.(pair (int_range 1 16) (list_of_size Gen.(int_range 0 64) (int_range 1 20)))
    (fun (block_slots, batches) ->
      let heap = Pmem.Pheap.create_ram ~capacity:(1 lsl 22) () in
      let first = Pmem.Pblockchain.create heap ~block_slots in
      let handle = Pmem.Pblockchain.handle first in
      let appended = ref [] in
      let counter = ref 0 in
      let chain = ref first in
      List.iter
        (fun batch ->
          for _ = 1 to batch do
            incr counter;
            register !chain ~key:!counter ~hist:(8 * !counter);
            appended := !counter :: !appended
          done;
          (* Reattach between batches, as a restart would. *)
          chain := Pmem.Pblockchain.attach heap handle)
        batches;
      let seen = ref [] in
      Pmem.Pblockchain.iter_slots !chain (fun ~key ~hist ->
          if hist <> 8 * key then raise Exit;
          seen := key :: !seen);
      !seen = !appended)

let () =
  Alcotest.run "pmem"
    [
      ( "media",
        [
          Alcotest.test_case "i64 roundtrip" `Quick media_i64_roundtrip;
          Alcotest.test_case "bytes roundtrip" `Quick media_bytes_roundtrip;
          Alcotest.test_case "bounds checked" `Quick media_bounds_checked;
          Alcotest.test_case "flush counts lines" `Quick media_flush_counts_lines;
          Alcotest.test_case "crash discards unflushed" `Quick media_crash_discards_unflushed;
          Alcotest.test_case "crash partial flush" `Quick media_crash_partial_flush;
          Alcotest.test_case "persist_before leaves the commit line" `Quick
            media_persist_before;
          Alcotest.test_case "crash requires mode" `Quick media_crash_requires_mode;
          Alcotest.test_case "crash_after stops the k-th flush" `Quick media_crash_after;
          Alcotest.test_case "a batch scope allocates nothing in steady state" `Quick
            media_batch_scope_allocates_nothing;
          Alcotest.test_case "a persist to another media drains the scope" `Quick
            media_batch_scope_drains_on_media_switch;
          Alcotest.test_case "concurrent line flushes keep every word" `Quick
            media_concurrent_line_flushes;
          Alcotest.test_case "file-backed persists" `Quick media_file_backed_persists;
          Alcotest.test_case "file words never torn" `Quick media_file_words_not_torn;
          Alcotest.test_case "file words decode legacy layout" `Quick
            media_file_words_legacy_layout;
        ] );
      ( "alloc",
        [
          Alcotest.test_case "basic" `Quick alloc_basic;
          Alcotest.test_case "recycles freed blocks" `Quick alloc_recycles;
          Alcotest.test_case "size class separation" `Quick alloc_size_class_separation;
          Alcotest.test_case "out of memory" `Quick alloc_out_of_memory;
          Alcotest.test_case "reattach" `Quick alloc_survives_reattach;
          Alcotest.test_case "alloc_zeroed" `Quick alloc_zeroed_is_zero;
          Alcotest.test_case "alloc_zeroed of a fresh block flushes nothing" `Quick
            alloc_zeroed_fresh_flushes_nothing;
          Alcotest.test_case "a block cut in a batch survives a crash" `Quick
            (alloc_in_batch_survives_crash ~recycled:false);
          Alcotest.test_case "a block popped in a batch survives a crash" `Quick
            (alloc_in_batch_survives_crash ~recycled:true);
          Alcotest.test_case "alloc_zeroed of a recycled block in a batch is durable" `Quick
            alloc_zeroed_recycled_in_batch_is_durable;
          Alcotest.test_case "a block cut past the reservation in a batch survives a crash"
            `Quick alloc_past_reservation_survives_crash;
          Alcotest.test_case "oversized free is reused" `Quick alloc_oversized_reuse;
          Alcotest.test_case "oversized first-fit split" `Quick
            alloc_oversized_first_fit_split;
          Alcotest.test_case "oversized free list survives reattach" `Quick
            alloc_oversized_survives_reattach;
          Alcotest.test_case "alloc/free pairs persist nothing" `Quick
            alloc_free_pairs_persist_nothing;
          Alcotest.test_case "rebuild coalesces unmarked blocks" `Quick
            alloc_rebuild_coalesces;
          Alcotest.test_case "concurrent no overlap" `Quick alloc_concurrent_no_overlap;
        ] );
      ( "pheap",
        [
          Alcotest.test_case "roots" `Quick pheap_roots;
          Alcotest.test_case "bad magic" `Quick pheap_rejects_bad_magic;
          Alcotest.test_case "refuses a layout-2 pool" `Quick (pheap_rejects_layout 2);
          Alcotest.test_case "mvkv find on a layout-2 pool exits 2 with one line" `Quick
            (mvkv_rejects_layout 2);
          Alcotest.test_case "refuses a layout-3 pool" `Quick (pheap_rejects_layout 3);
          Alcotest.test_case "mvkv find on a layout-3 pool exits 2 with one line" `Quick
            (mvkv_rejects_layout 3);
          Alcotest.test_case "refuses a layout-4 pool" `Quick (pheap_rejects_layout 4);
          Alcotest.test_case "mvkv find on a layout-4 pool exits 2 with one line" `Quick
            (mvkv_rejects_layout 4);
          Alcotest.test_case "refuses a layout-5 pool" `Quick (pheap_rejects_layout 5);
          Alcotest.test_case "mvkv find on a layout-5 pool exits 2 with one line" `Quick
            (mvkv_rejects_layout 5);
          Alcotest.test_case "refuses a layout-6 pool" `Quick (pheap_rejects_layout 6);
          Alcotest.test_case "mvkv find on a layout-6 pool exits 2 with one line" `Quick
            (mvkv_rejects_layout 6);
          Alcotest.test_case "mvkv find on a pool a server holds exits 2 with one line"
            `Quick mvkv_refuses_a_held_pool;
          Alcotest.test_case "reopen retires the replaced allocator" `Quick
            pheap_reopen_retires;
          Alcotest.test_case "root bounds" `Quick pheap_root_bounds;
        ] );
      ( "pblob",
        [
          Alcotest.test_case "roundtrip" `Quick blob_roundtrip;
          Alcotest.test_case "empty" `Quick blob_empty;
          Alcotest.test_case "free recycles" `Quick blob_free_recycles;
        ] );
      ( "pvector",
        [
          Alcotest.test_case "words" `Quick pvector_words;
          Alcotest.test_case "grow preserves" `Quick pvector_grow_preserves;
          Alcotest.test_case "attach" `Quick pvector_attach;
          Alcotest.test_case "grow crash safe" `Quick pvector_grow_crash_safe;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest qcheck_allocator_no_overlap;
          QCheck_alcotest.to_alcotest qcheck_chain_reattach;
        ] );
      ( "pblockchain",
        [
          Alcotest.test_case "append/iterate" `Quick chain_append_iterate;
          Alcotest.test_case "attach resumes" `Quick chain_attach_resumes;
          Alcotest.test_case "concurrent appends" `Quick chain_concurrent_appends;
          Alcotest.test_case "crash holes" `Quick chain_crash_hole_skipped;
          Alcotest.test_case "a cleared slot is a hole the next claim takes" `Quick
            chain_clear_frees_slot;
          Alcotest.test_case "a block linked in a batch survives a crash" `Quick
            chain_block_linked_in_batch_survives_crash;
          Alcotest.test_case "append costs one line and fence" `Quick chain_append_cost;
          Alcotest.test_case "an emptied tail block stays live after a reattach" `Quick
            chain_emptied_tail_stays_live;
          Alcotest.test_case "claims racing clears across block boundaries" `Quick
            chain_claims_race_clears;
        ] );
    ]
