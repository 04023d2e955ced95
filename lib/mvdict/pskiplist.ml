module Make (K : Codec.KEY) (V : Codec.VALUE) = struct
  type key = K.t
  type value = V.t

  type t = {
    heap : Pmem.Pheap.t;
    media : Pmem.Media.t;
    chain : Pmem.Pblockchain.t;
    index : (K.t, Phistory.t) Concurrent.Skiplist.t;
    ctx : Version.t;
    board : Completion.t;
    recovered_fc : int;
    (* GC gate: ordinary operations pass through [gated]; compaction
       closes the gate, drains in-flight operations and then has the
       store to itself (a bounded stop-the-world pause). *)
    gate_closed : bool Atomic.t;
    gate_inflight : int Atomic.t;
    gc_lock : Mutex.t;
  }

  let name = "PSkipList"
  let chain_root_slot = 0

  (* The stamp floor F (0 in a pool no compaction has touched): every
     stamp <= F counts as present on recovery, so compaction may drop
     records and the ones it keeps keep their stamps. *)
  let floor_root_slot = 1

  (* Hot-path op metrics (lib/obs). Registry handles are get-or-create
     by name, so every functor instantiation shares them. *)
  let m_insert = Obs.Instr.op "mvdict.pskiplist.insert"
  let m_remove = Obs.Instr.op "mvdict.pskiplist.remove"
  let m_insert_batch = Obs.Instr.op "mvdict.pskiplist.insert_batch"
  let m_remove_batch = Obs.Instr.op "mvdict.pskiplist.remove_batch"
  let m_find = Obs.Instr.op "mvdict.pskiplist.find"
  let m_history = Obs.Instr.op "mvdict.pskiplist.history"
  let m_snapshot = Obs.Instr.op "mvdict.pskiplist.snapshot"
  let m_recover = Obs.Instr.op "mvdict.pskiplist.recover"
  let g_recovered_fc = Obs.Registry.gauge "mvdict.pskiplist.recovered_fc"
  let c_gc_runs = Obs.Registry.counter "gc.runs"
  let c_gc_dropped = Obs.Registry.counter "gc.entries_dropped"
  let c_gc_scrubbed = Obs.Registry.counter "gc.keys_scrubbed"
  let c_gc_reclaimed = Obs.Registry.counter "gc.bytes_reclaimed"
  let h_gc_pause = Obs.Registry.histogram "gc.pause_ns"

  let new_index () = Concurrent.Skiplist.create ~compare:K.compare ()

  let make_store heap chain index ctx recovered_fc =
    {
      heap;
      media = Pmem.Pheap.media heap;
      chain;
      index;
      ctx;
      board = Completion.create ctx;
      recovered_fc;
      gate_closed = Atomic.make false;
      gate_inflight = Atomic.make 0;
      gc_lock = Mutex.create ();
    }

  (* Register, then re-check the flag and back out if compaction closed
     the gate in between — compaction's drain loop then cannot miss us.
     The spin waits out one compaction pass: the compactor opens the
     gate when its pass ends, and it never waits on this caller, which
     is not registered while it spins. Gated sections never nest, so no
     caller spins here while registered in an outer op. *)
  let rec op_enter t =
    while Atomic.get t.gate_closed do
      Domain.cpu_relax ()
    done;
    ignore (Atomic.fetch_and_add t.gate_inflight 1);
    if Atomic.get t.gate_closed then begin
      ignore (Atomic.fetch_and_add t.gate_inflight (-1));
      Domain.cpu_relax ();
      op_enter t
    end

  let op_exit t = ignore (Atomic.fetch_and_add t.gate_inflight (-1))

  let gated t f =
    op_enter t;
    match f () with
    | result ->
        op_exit t;
        result
    | exception e ->
        op_exit t;
        raise e

  let create ?(block_slots = 63) heap =
    if not (Pmem.Pptr.is_null (Pmem.Pheap.root_get heap chain_root_slot)) then
      invalid_arg "Pskiplist.create: heap already holds a store (use open_existing)";
    let chain = Pmem.Pblockchain.create heap ~block_slots in
    Pmem.Pheap.root_set heap chain_root_slot (Pmem.Pblockchain.handle chain);
    make_store heap chain (new_index ()) (Version.create ()) 0

  (* Index lookup with insert-if-absent. A freshly won history is
     registered in the persistent key chain; a raced speculative one is
     recycled (the paper: "the slower thread needs to detect this
     situation and clean up accordingly, then reuse the pointer of the
     faster thread"). The read-only [find] goes first: a write to an
     existing key then skips the insert's tower-recording arrays. *)
  let history_of t key =
    match Concurrent.Skiplist.find t.index key with
    | Some h -> h
    | None -> (
        match
          Concurrent.Skiplist.find_or_insert t.index key ~make:(fun () ->
              Phistory.create t.heap)
        with
        | Concurrent.Skiplist.Found h -> h
        | Concurrent.Skiplist.Added h ->
            Pmem.Pblockchain.append t.chain
              ~key:(Codec.encode (module K) t.heap key)
              ~hist:(Phistory.handle h);
            h
        | Concurrent.Skiplist.Raced { made; existing } ->
            Phistory.destroy t.heap made;
            existing)

  let append t key value_word =
    let version = Version.stamp t.ctx in
    Phistory.H.append t.heap (history_of t key) ~ctx:t.ctx ~board:t.board ~version
      value_word

  let insert t key value =
    let t0 = Obs.Instr.start () in
    gated t (fun () -> append t key (Codec.encode (module V) t.heap value));
    Obs.Instr.finish m_insert t0

  let remove t key =
    let t0 = Obs.Instr.start () in
    gated t (fun () -> append t key Codec.marker_word);
    Obs.Instr.finish m_remove t0

  (* [history_of] along a finger cursor: the batch's ascending walk
     resumes each index search from the previous key's towers. Same
     Added/Raced contract as above, except that a key new to the store
     comes back with its encoded key word (the marker word otherwise),
     for the caller to link into the key chain. *)
  let resolve_at t cur key =
    match
      Concurrent.Skiplist.find_or_insert_at cur key ~make:(fun () ->
          Phistory.create t.heap)
    with
    | Concurrent.Skiplist.Found h -> (h, Codec.marker_word)
    | Concurrent.Skiplist.Added h -> (h, Codec.encode (module K) t.heap key)
    | Concurrent.Skiplist.Raced { made; existing } ->
        Phistory.destroy t.heap made;
        (existing, Codec.marker_word)

  let link_key t h key_word =
    if key_word <> Codec.marker_word then
      Pmem.Pblockchain.append t.chain ~key:key_word ~hist:(Phistory.handle h)

  let history_of_at t cur key =
    let h, key_word = resolve_at t cur key in
    link_key t h key_word;
    h

  (* The Jiffy-style batch install. Under one gate pass: stamp one
     version for the whole batch, resolve every history along a single
     ascending finger walk, write all payloads, then link the new keys
     into the key chain and stamp all entries — with [Media.with_batch]
     coalescing the persistence epilogue into two barriers (no payload
     durable after its stamp; stamps durable before any publication).
     A barrier makes its lines durable in no particular order, so a
     new key's chain slot waits for the second barrier: the first makes
     the history and key blob it points to durable. Completion stamps
     are published last and still inside the gated section:
     compaction's drain assumes a drained store has published every
     claimed slot.

     Very large batches are installed as chunks of [install_chunk] keys
     (still one gate pass, one version and one cursor — the canonical
     ascending order spans chunks, so the fingers keep paying off):
     beyond a few dozen keys the two-phase walk stops fitting in cache
     and the dirty-range log outgrows its merge window, so per-chunk
     epilogues are strictly faster and still collapse [install_chunk]
     fences into one. Crash-safety is unchanged — each entry is durable
     at its chunk's barrier, before anything makes it visible. *)
  let install_chunk = 64

  let install_one_chunk t ~version ~cur ~word_of items lo hi =
    let k = hi - lo in
    let stamps = Array.make k 0 in
    Pmem.Media.with_batch (fun () ->
        let slots =
          Array.init k (fun i ->
              let key, x = items.(lo + i) in
              let h, key_word = resolve_at t cur key in
              (h, key_word, Phistory.H.append_entry t.heap h ~version (word_of x)))
        in
        Pmem.Media.batch_barrier ();
        Array.iteri
          (fun i (h, key_word, slot) ->
            link_key t h key_word;
            stamps.(i) <- Phistory.H.finish_entry t.heap h ~ctx:t.ctx ~slot)
          slots);
    (* Scope exit above was the stamps' barrier; entries become visible
       only now, so visible still implies durable. *)
    Array.iter (fun s -> Completion.publish t.board s) stamps

  let install_batch t items ~word_of =
    let items = Array.of_list items in
    gated t (fun () ->
        let version = Version.stamp t.ctx in
        let cur = Concurrent.Skiplist.cursor t.index in
        let n = Array.length items in
        let i = ref 0 in
        while !i < n do
          let hi = min n (!i + install_chunk) in
          install_one_chunk t ~version ~cur ~word_of items !i hi;
          i := hi
        done)

  let insert_batch t pairs =
    match Dict_intf.canonical_pairs ~compare:K.compare pairs with
    | [] -> ()
    | items ->
        let t0 = Obs.Instr.start () in
        install_batch t items ~word_of:(fun v ->
            Codec.encode (module V) t.heap v);
        Obs.Instr.finish m_insert_batch t0

  let remove_batch t keys =
    match Dict_intf.canonical_keys ~compare:K.compare keys with
    | [] -> ()
    | keys ->
        let t0 = Obs.Instr.start () in
        install_batch t
          (List.map (fun k -> (k, ())) keys)
          ~word_of:(fun () -> Codec.marker_word);
        Obs.Instr.finish m_remove_batch t0

  let tag t = Version.tag t.ctx
  let current_version t = Version.current t.ctx

  let lookup_value t h version =
    let slot = Phistory.H.find t.heap h ~ctx:t.ctx ~version in
    if slot < 0 then None
    else begin
      let word = Phistory.H.value t.heap h slot in
      if Codec.is_marker word then None
      else Some (Codec.decode (module V) t.media word)
    end

  (* Gated like every op, but by hand: a closure for [gated] would be
     the only allocation of a hit besides its two options. *)
  let find t ?(version = max_int) key =
    let t0 = Obs.Instr.start () in
    op_enter t;
    let result =
      try
        match Concurrent.Skiplist.find t.index key with
        | None -> None
        | Some h -> lookup_value t h version
      with e ->
        op_exit t;
        raise e
    in
    op_exit t;
    Obs.Instr.finish m_find t0;
    result

  let extract_history t key =
    let t0 = Obs.Instr.start () in
    let result =
      gated t (fun () ->
          match Concurrent.Skiplist.find t.index key with
          | None -> []
          | Some h ->
              List.map
                (fun (version, word) ->
                  if Codec.is_marker word then (version, Dict_intf.Del)
                  else
                    (version, Dict_intf.Put (Codec.decode (module V) t.media word)))
                (Phistory.H.events t.heap h ~ctx:t.ctx))
    in
    Obs.Instr.finish m_history t0;
    result

  (* Un-gated iteration core; every public entry point below wraps it
     exactly once (gated sections must not nest — compaction's drain
     would deadlock against a reader re-entering the gate). *)
  let iter_snapshot_raw t ~version f =
    Concurrent.Skiplist.iter t.index (fun key h ->
        match lookup_value t h version with
        | Some v -> f key v
        | None -> ())

  let iter_snapshot t ?(version = max_int) f =
    gated t (fun () -> iter_snapshot_raw t ~version f)

  let iter_range t ?(version = max_int) ~lo ~hi f =
    gated t (fun () ->
        Concurrent.Skiplist.iter_range t.index ~lo ~hi (fun key h ->
            match lookup_value t h version with
            | Some v -> f key v
            | None -> ()))

  let extract_snapshot t ?(version = max_int) () =
    let t0 = Obs.Instr.start () in
    let acc = ref [] in
    gated t (fun () -> iter_snapshot_raw t ~version (fun k v -> acc := (k, v) :: !acc));
    let a = Array.of_list !acc in
    let n = Array.length a in
    let result = Array.init n (fun i -> a.(n - 1 - i)) in
    Obs.Instr.finish m_snapshot t0;
    result

  let key_count t = Concurrent.Skiplist.cardinal t.index

  (* ---- migration primitives ----

     [pull_chains] pages a key range's version chains out (shard
     handoff reads), [install_chains] writes pulled chains into another
     store preserving the version stamps exactly — Put and Del events
     alike, so tombstones and multi-event-per-version histories
     transfer verbatim. *)

  let decode_event t word =
    if Codec.is_marker word then Dict_intf.Del
    else Dict_intf.Put (Codec.decode (module V) t.media word)

  exception Page_done

  (* One gated ascending pass over [lo, hi). Per key: every event with
     version > [since], oldest first; keys with nothing above [since]
     are skipped. [limit] bounds the page in events but a key's chain
     is never split, and the first key always ships — so every
     non-empty page makes progress and an empty page means done. *)
  let pull_chains t ~lo ~hi ~since ~limit =
    gated t (fun () ->
        let acc = ref [] and events = ref 0 in
        (try
           Concurrent.Skiplist.iter_range t.index ~lo ~hi (fun key h ->
               if limit > 0 && !events >= limit then raise Page_done;
               let chain =
                 List.filter_map
                   (fun (version, word) ->
                     if version > since then Some (version, decode_event t word)
                     else None)
                   (Phistory.H.events t.heap h ~ctx:t.ctx)
               in
               if chain <> [] then begin
                 acc := (key, chain) :: !acc;
                 events := !events + List.length chain
               end)
         with Page_done -> ());
        List.rev !acc)

  (* Install pulled chains, idempotently. Invariant the coordinator
     maintains: this store's chain for a migrating key is always a
     prefix of the source's, and an incoming chain is {e all} of the
     source's events above [since]. So the already-installed part of a
     chain is exactly our own events above [since] — count them, append
     the rest. (Counting by version alone would be wrong: the version
     clock only advances on tags, so two successive events of one key
     can share a version and a replay must not drop the second.) *)
  let install_chains t ~since chains =
    let chains = List.sort (fun (a, _) (b, _) -> K.compare a b) chains in
    gated t (fun () ->
        let cur = Concurrent.Skiplist.cursor t.index in
        List.iter
          (fun (key, events) ->
            let h = history_of_at t cur key in
            let skip =
              List.fold_left
                (fun n (version, _) -> if version > since then n + 1 else n)
                0
                (Phistory.H.events t.heap h ~ctx:t.ctx)
            in
            List.iteri
              (fun i (version, event) ->
                if i >= skip then
                  let word =
                    match event with
                    | Dict_intf.Del -> Codec.marker_word
                    | Dict_intf.Put v -> Codec.encode (module V) t.heap v
                  in
                  Phistory.H.append t.heap h ~ctx:t.ctx ~board:t.board ~version word)
              events)
          chains)

  let open_existing ?(threads = 1) heap =
    Obs.Span.with_ "mvdict.pskiplist.recover" @@ fun () ->
    let t0 = Obs.Instr.start () in
    let chain_handle = Pmem.Pheap.root_get heap chain_root_slot in
    if Pmem.Pptr.is_null chain_handle then
      invalid_arg "Pskiplist.open_existing: heap holds no store";
    let chain = Pmem.Pblockchain.attach heap chain_handle in
    (* Pass 1 — gather every non-zero completion stamp of every history
       and recover the global finished counter, marking every block
       reachable from the chain on the way: the chain, key blobs,
       histories and the blobs their records point to. Every other block
       of the heap is free, and the allocator takes it back before pass
       2 frees the pruned records' blobs. A stamp behind an unstamped
       slot counts too: it may have been visible, and later stamps with
       it (see [Phistory]). The stamps go into one int array rather than
       a list, and the store (with its 4,096-cell completion board) is
       built once, after pass 2: the peak heap of an open is a served
       pool's peak resident set. *)
    let alloc = Pmem.Pheap.allocator heap in
    let marks = Pmem.Alloc.marks alloc in
    Pmem.Pblockchain.mark chain marks;
    let stamps = ref (Array.make 1024 0) and count = ref 0 in
    let add stamp =
      if !count = Array.length !stamps then begin
        let bigger = Array.make (2 * !count) 0 in
        Array.blit !stamps 0 bigger 0 !count;
        stamps := bigger
      end;
      !stamps.(!count) <- stamp;
      incr count
    in
    Pmem.Pblockchain.iter_slots chain (fun ~key ~hist ->
        Codec.mark_word heap marks key;
        Phistory.mark_persisted heap hist marks ~stamp:add);
    Pmem.Alloc.rebuild alloc marks;
    let floor = Pmem.Pheap.root_get heap floor_root_slot in
    (* The array as grown: its unused tail of zeros counts for nothing,
       and a copy of the used part was the open's peak allocation on a
       pool of 65,536 keys x 8 stamps, and so its resident set. *)
    let fc = Recovery.recover_fc ~floor !stamps in
    Obs.Metric.set g_recovered_fc fc;
    (* Pass 2 prunes the records behind an unstamped slot, stamps <= fc
       among them, so the floor moves up to fc first: the next open must
       not find a gap there and prune below fc. *)
    if fc > floor then Pmem.Pheap.root_set heap floor_root_slot fc;
    (* Pass 2 — prune beyond [fc] and rebuild the index in parallel:
       thread [tid] claims the chain blocks with index = tid mod threads
       and bulk-inserts their keys. *)
    let index = new_index () in
    let media = Pmem.Pheap.media heap in
    let blocks = Pmem.Pblockchain.block_offsets chain in
    let slots = Pmem.Pblockchain.block_slots chain in
    let max_versions =
      Concurrent.Parallel.run ~threads (fun tid ->
          let highest = ref 0 in
          List.iter
            (fun bi ->
              for s = 0 to slots - 1 do
                match Pmem.Pblockchain.read_slot chain blocks.(bi) s with
                | None -> ()
                | Some (key_word, hist_handle) ->
                    let key = Codec.decode (module K) media key_word in
                    let h, maxv = Phistory.attach_pruned heap hist_handle ~fc in
                    if maxv > !highest then highest := maxv;
                    (match
                       Concurrent.Skiplist.find_or_insert index key
                         ~make:(fun () -> h)
                     with
                    | Concurrent.Skiplist.Added _ | Found _ | Raced _ -> ())
              done)
            (Recovery.plan_blocks ~blocks:(Array.length blocks) ~threads ~tid);
          !highest)
    in
    let clock = Array.fold_left max 0 max_versions in
    let t = make_store heap chain index (Version.restore ~clock ~fc) fc in
    Obs.Instr.finish m_recover t0;
    t

  let heap t = t.heap

  (* The GC core; runs with the store quiesced (gate closed, in-flight
     drained, fc settled). Persist order is the crash-safety argument:
     (1) the floor F = fc, before anything is dropped, so recovery
     counts every dropped stamp as present and kept records keep their
     stamps; (2) per history that drops records (a prefix: everything
     before the newest entry at or below [before], and that entry too
     when it is a removal marker) or is larger than its right size,
     one header swap ([Phistory.drop_prefix]); (3) only after the swap,
     the dropped value blobs are freed. Keys whose history empties out
     are scrubbed: their chain slot is cleared (persisted) first, and
     only then are the key blob, value blobs and history storage freed
     and the index node unlinked. A crash between any two steps strands
     blocks at worst, which the next open's rebuild frees, and never
     leaves a record pointing at freed storage. *)
  let compact_quiesced t ~before =
    Pmem.Pheap.root_set t.heap floor_root_slot (Version.fc t.ctx);
    let free_values raw ~upto =
      for i = 0 to upto - 1 do
        let _, word, _ = raw.(i) in
        Codec.free_word t.heap word
      done
    in
    let dropped = ref 0 in
    let dead = Hashtbl.create 16 in
    Concurrent.Skiplist.iter t.index (fun _ h ->
        let raw = Phistory.scan_persisted t.heap h in
        let n = Array.length raw in
        (* Rightmost entry with version <= before, if any. *)
        let floor_idx = ref (-1) in
        Array.iteri
          (fun i (version, _, _) -> if version <= before then floor_idx := i)
          raw;
        let first =
          if !floor_idx < 0 then 0
          else
            let _, word, _ = raw.(!floor_idx) in
            if Codec.is_marker word then !floor_idx + 1 else !floor_idx
        in
        dropped := !dropped + first;
        if first = n then Hashtbl.replace dead (Phistory.handle h) (h, raw)
        else begin
          Phistory.drop_prefix t.heap h ~first;
          free_values raw ~upto:first
        end);
    if Hashtbl.length dead > 0 then begin
      ignore
        (Pmem.Pblockchain.release_slots t.chain
           ~dead:(fun ~hist -> Hashtbl.mem dead hist)
           ~on_release:(fun ~key ~hist:_ -> Codec.free_word t.heap key));
      Hashtbl.iter
        (fun _ (h, raw) ->
          free_values raw ~upto:(Array.length raw);
          Phistory.destroy t.heap h)
        dead;
      let scrubbed =
        Concurrent.Skiplist.scrub t.index ~dead:(fun _ h ->
            Hashtbl.mem dead (Phistory.handle h))
      in
      Obs.Metric.add c_gc_scrubbed scrubbed
    end;
    !dropped

  (* Online GC entry point (see interface). Serialises concurrent
     compactions with a mutex, then closes the gate and drains: once
     [gate_inflight] hits zero every claimed history slot has been
     written and stamped, so one [help_advance] settles fc = pc and the
     quiesced invariants of the offline pass hold. *)
  let compact t ~before =
    Mutex.lock t.gc_lock;
    Fun.protect
      ~finally:(fun () ->
        Atomic.set t.gate_closed false;
        Mutex.unlock t.gc_lock)
      (fun () ->
        let pause0 = Obs.Clock.now_ns () in
        Atomic.set t.gate_closed true;
        (* Waits for the ops registered before the gate closed to
           finish. A registered op never waits on the compactor: it
           checks the gate only at entry, and its own waits (stamp
           backpressure, growths, key-chain blocks) are on other
           registered ops. *)
        while Atomic.get t.gate_inflight > 0 do
          Domain.cpu_relax ()
        done;
        Completion.help_advance t.board;
        let stats = Pmem.Pheap.stats t.heap in
        let live0 = Pmem.Pstats.live_bytes stats in
        let dropped = compact_quiesced t ~before in
        let live1 = Pmem.Pstats.live_bytes stats in
        Obs.Metric.incr c_gc_runs;
        Obs.Metric.add c_gc_dropped dropped;
        if live0 > live1 then Obs.Metric.add c_gc_reclaimed (live0 - live1);
        Obs.Histogram.record h_gc_pause (Obs.Clock.now_ns () - pause0);
        dropped)

  let retain t ~keep =
    if keep < 0 then invalid_arg "Pskiplist.retain: keep must be non-negative";
    let before = max 0 (current_version t - keep) in
    let dropped = if before > 0 then compact t ~before else 0 in
    (before, dropped)

  type gc = { stop : bool Atomic.t; domain : unit Domain.t }

  let gc_start t ?(interval_ms = 50) ~keep () =
    if keep < 0 then invalid_arg "Pskiplist.gc_start: keep must be non-negative";
    if interval_ms <= 0 then
      invalid_arg "Pskiplist.gc_start: interval_ms must be positive";
    let stop = Atomic.make false in
    let domain =
      Domain.spawn (fun () ->
          while not (Atomic.get stop) do
            ignore (retain t ~keep);
            (* Sleep in short slices so gc_stop is prompt. *)
            let remaining = ref interval_ms in
            while !remaining > 0 && not (Atomic.get stop) do
              let slice = min 5 !remaining in
              Unix.sleepf (float_of_int slice /. 1000.);
              remaining := !remaining - slice
            done
          done)
    in
    { stop; domain }

  let gc_stop g =
    Atomic.set g.stop true;
    Domain.join g.domain

  let history_words t key =
    gated t (fun () ->
        match Concurrent.Skiplist.find t.index key with
        | None -> [||]
        | Some h -> Phistory.scan_persisted t.heap h)

  let recovered_fc t = t.recovered_fc
  let chain_claimed t = Pmem.Pblockchain.claimed t.chain
  let chain_free_slots t = Pmem.Pblockchain.free_slot_count t.chain
end
