module Make (K : Codec.KEY) (V : Codec.VALUE) = struct
  (* What the persistent policy's operations share, and the state the
     persistent-only operations below keep beside it. *)
  type pool = {
    heap : Pmem.Pheap.t;
    media : Pmem.Media.t;
    chain : Pmem.Pblockchain.t;
    recovered_fc : int;
    horizon : int Atomic.t;
    gc_lock : Mutex.t;
  }

  (* The persistent history policy: a value is a {!Codec} word, a
     history a {!Phistory} rooted at the key-chain slot that names its
     key, and the batch scope is {!Pmem.Media}'s. *)
  module Policy = struct
    type key = K.t
    type value = V.t
    type store = pool
    type word = int
    type name = Pmem.Pptr.t
    type history = Phistory.t

    let name = "PSkipList"
    let compare = K.compare
    let encode s v = Codec.encode (module V) s.heap v

    let decode s word =
      if Codec.is_marker word then None else Some (Codec.decode (module V) s.media word)

    let marker = Codec.marker_word
    let words n = Vstore.ints n marker
    let is_blob = Codec.is_blob
    let free s word = Codec.free_word s.heap word
    let with_batch = Pmem.Media.with_batch
    let barrier = Pmem.Media.batch_barrier
    let claim s key = Pmem.Pblockchain.claim s.chain ~key:(Codec.encode (module K) s.heap key)
    let commit s slot h = Pmem.Pblockchain.commit s.chain slot ~hist:(Phistory.root h)
    let clear s slot = Pmem.Pblockchain.clear s.chain slot
    let create s slot = Phistory.create s.heap ~chain_slot:slot
    let destroy s h = Phistory.destroy s.heap h
    let append_entry s h ~version word = Phistory.H.append_entry s.heap h ~version word
    let finish_entry s h ~ctx ~slot = Phistory.H.finish_entry s.heap h ~ctx ~slot
    let find s h ~ctx ~version = Phistory.H.find s.heap h ~ctx ~version
    let value s h slot = Phistory.H.value s.heap h slot
    let events s h ~ctx ~since = Phistory.H.events s.heap h ~ctx ~since
  end

  include Vstore.Make (Policy)

  let chain_root_slot = 0

  (* The stamp floor F (0 in a pool no compaction has touched): every
     stamp <= F counts as present on recovery, so compaction may drop
     records and the ones it keeps keep their stamps. *)
  let floor_root_slot = 1

  (* The compaction horizon h, the highest [before] any pass used: an
     event above h is never dropped. Root slot 2 holds h + 1 once
     recorded (0: none), beside the floor in one line, and both persist
     with one flush before a pass drops anything. *)
  let horizon_root_slot = 2

  let set_floor heap ~floor ~horizon =
    Pmem.Pheap.roots_set heap floor_root_slot [ floor; horizon + 1 ]

  let m_recover = Obs.Instr.op "mvdict.pskiplist.recover"
  let g_recovered_fc = Obs.Registry.gauge "mvdict.pskiplist.recovered_fc"
  let c_gc_runs = Obs.Registry.counter "gc.runs"
  let c_gc_dropped = Obs.Registry.counter "gc.entries_dropped"
  let c_gc_scrubbed = Obs.Registry.counter "gc.keys_scrubbed"
  let c_gc_reclaimed = Obs.Registry.counter "gc.bytes_reclaimed"
  let h_gc_pause = Obs.Registry.histogram "gc.pause_ns"

  let make_store heap chain index ctx recovered_fc ~horizon =
    let media = Pmem.Pheap.media heap and horizon = Atomic.make horizon in
    make { heap; media; chain; recovered_fc; horizon; gc_lock = Mutex.create () } index ctx

  let create ?(block_slots = 63) heap =
    if not (Pmem.Pptr.is_null (Pmem.Pheap.root_get heap chain_root_slot)) then
      invalid_arg "Pskiplist.create: heap already holds a store (use open_existing)";
    let chain = Pmem.Pblockchain.create heap ~block_slots in
    Pmem.Pheap.root_set heap chain_root_slot (Pmem.Pblockchain.handle chain);
    make_store heap chain (new_index ()) (Version.create ()) 0 ~horizon:0

  (* ---- migration primitives ----

     [pull_chains] pages a key range's version chains out (shard
     handoff reads), [install_chains] writes pulled chains into another
     store preserving the version stamps exactly — Put and Del events
     alike, so tombstones and multi-event-per-version histories
     transfer verbatim. *)

  exception Page_done

  (* One gated ascending pass over [lo, hi). Per key: every event with
     version > [since], oldest first; keys with nothing above [since]
     are skipped, and allocate nothing, so a pull costs what it ships
     plus one binary search per key. [limit] bounds the page in events
     but a key's chain is never split, and the first key always ships
     — so every non-empty page makes progress and an empty page means
     done. *)
  let pull_chains t ~lo ~hi ~since ~limit =
    gated t (fun () ->
        let acc = ref [] and events = ref 0 in
        (try
           Concurrent.Skiplist.iter_range t.index ~lo ~hi (fun key h ->
               if limit > 0 && !events >= limit then raise Page_done;
               match chain_of t h ~since with
               | [] -> ()
               | chain ->
                   acc := (key, chain) :: !acc;
                   events := !events + List.length chain)
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
    let chains =
      List.sort
        (fun (a, _) (b, _) -> K.compare a b)
        (List.filter (fun (_, events) -> events <> []) chains)
    in
    let skip h = List.length (Policy.events t.store h ~ctx:t.ctx ~since) in
    gated t (fun () ->
        install t
          (Array.of_list (List.map fst chains))
          (Array.of_list (List.map snd chains))
          ~skip
          ~word_of:(fun s -> function
            | Dict_intf.Del -> Policy.marker
            | Dict_intf.Put v -> Policy.encode s v))

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
       it (see [Phistory]). The stamps go into one bit each above the
       floor, and the store (with its 4,096-cell completion board) is
       built once, after pass 2: the peak heap of an open is a served
       pool's peak resident set. *)
    let alloc = Pmem.Pheap.allocator heap in
    let marks = Pmem.Alloc.marks alloc in
    Pmem.Pblockchain.mark chain marks;
    let floor = Pmem.Pheap.root_get heap floor_root_slot in
    let horizon = max 0 (Pmem.Pheap.root_get heap horizon_root_slot - 1) in
    (* Every stamp is a word of the pool, so its words bound the count. *)
    let stamps =
      Recovery.stamps ~floor
        ~bound:(Pmem.Media.capacity (Pmem.Pheap.media heap) / 8)
        ()
    in
    let add = Recovery.add stamps in
    Pmem.Pblockchain.iter_slots chain (fun ~key ~hist ->
        Codec.mark_word heap marks key;
        Phistory.mark_persisted heap hist marks ~stamp:add);
    Pmem.Alloc.rebuild alloc marks;
    let fc = Recovery.recover_fc stamps in
    Obs.Metric.set g_recovered_fc fc;
    (* Pass 2 prunes the records behind an unstamped slot, stamps <= fc
       among them, so the floor moves up to fc first: the next open must
       not find a gap there and prune below fc. *)
    if fc > floor then set_floor heap ~floor:fc ~horizon;
    (* Pass 2 — prune beyond [fc] and rebuild the index in parallel:
       thread [tid] claims the chain blocks with index = tid mod threads
       and bulk-inserts their keys. *)
    let index = new_index () in
    let media = Pmem.Pheap.media heap in
    let blocks = Pmem.Pblockchain.block_offsets chain in
    let max_versions =
      Concurrent.Parallel.run ~threads (fun tid ->
          let highest = ref 0 in
          List.iter
            (fun bi ->
              Pmem.Pblockchain.iter_block chain blocks.(bi) (fun ~slot ~key:key_word ~hist ->
                  let h, maxv = Phistory.attach_pruned heap ~chain_slot:slot hist ~fc in
                  if Phistory.H.visible_length h = 0 then
                    (* Nothing of it was visible: a new key whose first
                       stamp, or a lost publication race whose clear, a
                       crash cut off. *)
                    Phistory.release heap chain h
                  else begin
                    if maxv > !highest then highest := maxv;
                    let key = Codec.decode (module K) media key_word in
                    match
                      Concurrent.Skiplist.find_or_insert index key ~make:(fun () -> h)
                    with
                    | Concurrent.Skiplist.Added _ | Found _ -> ()
                  end))
            (Recovery.plan_blocks ~blocks:(Array.length blocks) ~threads ~tid);
          !highest)
    in
    let clock = Array.fold_left max 0 max_versions in
    let t = make_store heap chain index (Version.restore ~clock ~fc) fc ~horizon in
    Obs.Instr.finish m_recover t0;
    t

  let heap t = t.store.heap

  (* The sweep's first step, quiesced: persist the floor
     F = fc and a horizon of at least [h] in one line, so recovery
     counts every dropped stamp as present, kept records keep their
     stamps, and the pool never claims an event a drop may take. *)
  let raise_horizon t h =
    let s = t.store in
    let horizon = max (Atomic.get s.horizon) h in
    set_floor s.heap ~floor:(Version.fc t.ctx) ~horizon;
    Atomic.set s.horizon horizon

  (* In a quiesced store, the keys a sweep released: those still
     indexed whose chain slot is a hole. *)
  let released s _ h =
    Pmem.Media.get_i64 s.media (Pmem.Pblockchain.history_word (Phistory.chain_slot h))
    = Pmem.Pptr.null

  (* The one GC sweep, for a pass and a range drop; runs with the store
     quiesced (gate closed, in-flight drained, fc settled), so every
     claimed record is stamped. It walks the index, all of it or
     [range], and reads each history where it lies: [cut h] says how
     many of its first records to drop, and no record is copied out.
     Persist order is the crash-safety argument: (1) the floor and the
     horizon ([raise_horizon]); (2) per key that keeps records, one root
     swap of its chain slot's history word when it drops some or is
     over-sized, and only after the swap the frees of its dropped blobs
     and old segments ([Phistory.drop_prefix]); per key that keeps
     none, the slot's clear, then the frees ([Phistory.release]);
     (3) one [scrub] unlinks the released keys. A crash between any two
     steps strands blocks at worst, which the next open's rebuild
     frees, and never leaves a record pointing at freed storage.
     Returns the records dropped. *)
  let sweep ?range t ~horizon ~cut =
    let s = t.store in
    raise_horizon t horizon;
    let dropped = ref 0 and emptied = ref false in
    let visit _ h =
      let first = cut h in
      dropped := !dropped + first;
      if first < Phistory.H.pending_length h then Phistory.drop_prefix s.heap h ~first
      else begin
        Phistory.release s.heap s.chain h;
        emptied := true
      end
    in
    (match range with
    | None -> Concurrent.Skiplist.iter t.index visit
    | Some (lo, hi) -> Concurrent.Skiplist.iter_range t.index ~lo ~hi visit);
    if !emptied then
      Obs.Metric.add c_gc_scrubbed
        (Concurrent.Skiplist.scrub ?range t.index ~dead:(released s));
    !dropped

  (* What a pass below [before] drops from a history, a prefix:
     everything before its floor entry (the newest at or below
     [before]), and the floor entry too when it is a removal marker. *)
  let below heap ~before h =
    match Phistory.H.floor_offline heap h ~version:before with
    | -1 -> 0
    | floor -> if Codec.is_marker (Phistory.H.value heap h floor) then floor + 1 else floor

  (* Online GC entry point (see interface). Serialises concurrent
     compactions with a mutex, then runs the sweep [quiesced]. *)
  let compact t ~before =
    Mutex.protect t.store.gc_lock (fun () ->
        let pause0 = Obs.Clock.now_ns () in
        quiesced t @@ fun () ->
        let stats = Pmem.Pheap.stats t.store.heap in
        let live0 = Pmem.Pstats.live_bytes stats in
        let dropped = sweep t ~horizon:before ~cut:(below t.store.heap ~before) in
        let live1 = Pmem.Pstats.live_bytes stats in
        Obs.Metric.incr c_gc_runs;
        Obs.Metric.add c_gc_dropped dropped;
        if live0 > live1 then Obs.Metric.add c_gc_reclaimed (live0 - live1);
        Obs.Histogram.record h_gc_pause (Obs.Clock.now_ns () - pause0);
        dropped)

  (* See the interface: the sweep over [lo, hi), releasing every key. *)
  let drop_range t ~lo ~hi ~horizon =
    Mutex.protect t.store.gc_lock @@ fun () ->
    quiesced t @@ fun () ->
    sweep ~range:(lo, hi) t ~horizon ~cut:Phistory.H.pending_length

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
        | Some h ->
            let heap = t.store.heap and segs = Phistory.H.segs h in
            Array.init
              (min (Phistory.H.pending_length h) (Phistory.Backend.capacity segs))
              (fun slot ->
                Phistory.Backend.
                  ( read_version heap segs slot,
                    read_value heap segs slot,
                    read_stamp heap segs slot )))

  let horizon t = Atomic.get t.store.horizon
  let recovered_fc t = t.store.recovered_fc
  let chain_claimed t = Pmem.Pblockchain.claimed t.store.chain
  let chain_free_slots t = Pmem.Pblockchain.free_slot_count t.store.chain
end
