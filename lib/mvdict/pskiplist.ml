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
    horizon : int Atomic.t;
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

  (* The compaction horizon h, the highest [before] any pass used: an
     event above h is never dropped. Root slot 2 holds h + 1 once
     recorded (0: none), beside the floor in one line, and both persist
     with one flush before a pass drops anything. *)
  let horizon_root_slot = 2

  let set_floor heap ~floor ~horizon =
    Pmem.Pheap.roots_set heap floor_root_slot [ floor; horizon + 1 ]

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

  let make_store heap chain index ctx recovered_fc ~horizon =
    {
      heap;
      media = Pmem.Pheap.media heap;
      chain;
      index;
      ctx;
      board = Completion.create ctx;
      recovered_fc;
      horizon = Atomic.make horizon;
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
    make_store heap chain (new_index ()) (Version.create ()) 0 ~horizon:0

  (* ---- the write path ----

     Every write is one [install], under one gate pass: a single insert
     or remove is a chunk of one key, a batch is chunks of up to
     [install_chunk] keys (the dirty-range log's merge window) under
     one version, and [install_chains] is chunks whose keys carry
     several entries. A chunk looks its keys up, then persists in one
     order, with a barrier after each step (DESIGN §5c): (0) the
     values, so a blob is durable before a record points at it;
     (1) new keys' histories and chain key words, and every payload;
     (2) new keys' chain commit words; (3) new keys' index publication,
     then every stamp. The stamps are published after the last barrier,
     still gated (compaction's drain relies on it), so an entry is
     visible only once durable, and a writer finds only keys a restart
     reaches. Where another writer published one of its new keys first
     (Algorithm 2: "the slower thread needs to detect this situation
     and clean up accordingly, then reuse the pointer of the faster
     thread"), a chunk clears its own chain slot, and only once a
     barrier has made the clear durable appends that key's entries to
     the winner's history (no blob is ever reachable from two records)
     and frees its own; [open_existing] releases the unstamped history
     a crash before that barrier leaves. *)
  let install_chunk = 64

  (* One key descends from the head; more walk two ascending finger
     cursors, one to look keys up and one to publish new ones. *)
  type walk = Head | Fingers of cursor * cursor
  and cursor = (K.t, Phistory.t) Concurrent.Skiplist.cursor

  let lookup t walk key =
    match walk with
    | Head -> Concurrent.Skiplist.find t.index key
    | Fingers (seek, _) -> Concurrent.Skiplist.find_at seek key

  let publish t walk key h =
    let make () = h in
    match walk with
    | Head -> Concurrent.Skiplist.find_or_insert t.index key ~make
    | Fingers (_, cur) -> Concurrent.Skiplist.find_or_insert_at cur key ~make

  let rec drop n = function _ :: rest when n > 0 -> drop (n - 1) rest | l -> l

  (* Flatten entries into the chunk's arrays from index [j], encoding
     each value; true once one is a blob. *)
  let rec fill t versions words ~word_of j blob = function
    | [] -> blob
    | (version, x) :: rest ->
        let word = word_of t.heap x in
        versions.(j) <- version;
        words.(j) <- word;
        fill t versions words ~word_of (j + 1) (blob || Codec.is_blob word) rest

  (* [Array.make] is a C call, an order of magnitude dearer than an inline
     allocation: a one-key write makes its arrays, of one or two cells,
     inline. *)
  let ints n (x : int) = match n with 1 -> [| x |] | 2 -> [| x; x |] | _ -> Array.make n x

  let append_entries t h versions words slots lo hi =
    for j = lo to hi - 1 do
      slots.(j) <- Phistory.H.append_entry t.heap h ~version:versions.(j) words.(j)
    done

  (* Keys [lo, hi) of [keys] (ascending) with their [events] (oldest
     first), an existing key's less the first [cut.(i)], as [skip] of
     its history says. found.(i) is key i's history once step 1 has
     made a new key's; chain.(i) the chain slot a new key claimed, else
     -1; key i's entries are [first.(i), first.(i + 1)) of the flat
     arrays. *)
  let install_chunk_at t walk ~skip ~word_of keys events lo hi =
    let k = hi - lo in
    let found = if k = 1 then [| None |] else Array.make k None and cut = ints k 0 in
    let first = ints (k + 1) 0 and chain = ints k (-1) in
    for i = 0 to k - 1 do
      let h = lookup t walk keys.(lo + i) in
      found.(i) <- h;
      (match h with Some h -> cut.(i) <- skip h | None -> ());
      first.(i + 1) <- first.(i) + List.length (drop cut.(i) events.(lo + i))
    done;
    let m = first.(k) in
    let versions = ints m 0 and words = ints m 0 in
    let slots = ints m 0 and stamps = ints m 0 in
    let losers =
      Pmem.Media.with_batch (fun () ->
          let blob = ref false and fresh = ref false and losers = ref [] in
          for i = 0 to k - 1 do
            blob :=
              fill t versions words ~word_of first.(i) !blob (drop cut.(i) events.(lo + i))
          done;
          if !blob then Pmem.Media.batch_barrier ();
          for i = 0 to k - 1 do
            if Option.is_none found.(i) then begin
              let key = Codec.encode (module K) t.heap keys.(lo + i) in
              chain.(i) <- Pmem.Pblockchain.claim t.chain ~key;
              found.(i) <- Some (Phistory.create t.heap ~chain_slot:chain.(i));
              fresh := true
            end;
            append_entries t (Option.get found.(i)) versions words slots first.(i)
              first.(i + 1)
          done;
          Pmem.Media.batch_barrier ();
          if !fresh then begin
            for i = 0 to k - 1 do
              if chain.(i) >= 0 then
                Pmem.Pblockchain.commit t.chain chain.(i)
                  ~hist:(Phistory.root (Option.get found.(i)))
            done;
            Pmem.Media.batch_barrier ();
            for i = 0 to k - 1 do
              if chain.(i) >= 0 then
                let h = Option.get found.(i) in
                match publish t walk keys.(lo + i) h with
                | Concurrent.Skiplist.Added _ -> ()
                | Found winner | Raced { existing = winner; _ } ->
                    losers := (i, h, Pmem.Pblockchain.clear t.chain chain.(i)) :: !losers;
                    found.(i) <- Some winner
            done;
            if not (List.is_empty !losers) then begin
              Pmem.Media.batch_barrier ();
              List.iter
                (fun (i, _, _) ->
                  append_entries t (Option.get found.(i)) versions words slots first.(i)
                    first.(i + 1))
                !losers;
              Pmem.Media.batch_barrier ()
            end
          end;
          for i = 0 to k - 1 do
            let h = Option.get found.(i) in
            for j = first.(i) to first.(i + 1) - 1 do
              stamps.(j) <- Phistory.H.finish_entry t.heap h ~ctx:t.ctx ~slot:slots.(j)
            done
          done;
          Pmem.Media.batch_barrier ();
          !losers)
    in
    if not (List.is_empty losers) then
      List.iter
        (fun (_, h, key) ->
          Phistory.destroy t.heap h;
          Codec.free_word t.heap key)
        losers;
    for j = 0 to m - 1 do
      Completion.publish t.board stamps.(j)
    done

  let install t keys events ~skip ~word_of =
    let n = Array.length keys in
    let walk =
      if n = 1 then Head
      else Fingers (Concurrent.Skiplist.cursor t.index, Concurrent.Skiplist.cursor t.index)
    in
    let lo = ref 0 in
    while !lo < n do
      let hi = min n (!lo + install_chunk) in
      install_chunk_at t walk ~skip ~word_of keys events !lo hi;
      lo := hi
    done

  let no_skip _ = 0
  let value_word heap v = Codec.encode (module V) heap v
  let marker_word _ () = Codec.marker_word

  let write t op key x ~word_of =
    let t0 = Obs.Instr.start () in
    gated t (fun () ->
        install t [| key |] [| [ (Version.stamp t.ctx, x) ] |] ~skip:no_skip ~word_of);
    Obs.Instr.finish op t0

  let insert t key value = write t m_insert key value ~word_of:value_word
  let remove t key = write t m_remove key () ~word_of:marker_word

  let write_batch t op items ~word_of =
    let t0 = Obs.Instr.start () in
    let items = Array.of_list items in
    gated t (fun () ->
        let version = Version.stamp t.ctx in
        install t (Array.map fst items)
          (Array.map (fun (_, x) -> [ (version, x) ]) items)
          ~skip:no_skip ~word_of);
    Obs.Instr.finish op t0

  let insert_batch t pairs =
    match Dict_intf.canonical_pairs ~compare:K.compare pairs with
    | [] -> ()
    | items -> write_batch t m_insert_batch items ~word_of:value_word

  let remove_batch t keys =
    match Dict_intf.canonical_keys ~compare:K.compare keys with
    | [] -> ()
    | keys ->
        write_batch t m_remove_batch (List.map (fun k -> (k, ())) keys) ~word_of:marker_word

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
    let chains =
      List.sort
        (fun (a, _) (b, _) -> K.compare a b)
        (List.filter (fun (_, events) -> events <> []) chains)
    in
    let skip h =
      List.fold_left
        (fun n (version, _) -> if version > since then n + 1 else n)
        0
        (Phistory.H.events t.heap h ~ctx:t.ctx)
    in
    gated t (fun () ->
        install t
          (Array.of_list (List.map fst chains))
          (Array.of_list (List.map snd chains))
          ~skip
          ~word_of:(fun heap -> function
            | Dict_intf.Del -> Codec.marker_word
            | Dict_intf.Put v -> value_word heap v))

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
    (* A floor with no horizon beside it: a build that recorded none
       compacted or reopened this pool, so any version up to its clock
       may be gone. *)
    let recorded = Pmem.Pheap.root_get heap horizon_root_slot - 1 in
    let unknown = recorded < 0 && floor > 0 in
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
    if fc > floor then
      if unknown then Pmem.Pheap.root_set heap floor_root_slot fc
      else set_floor heap ~floor:fc ~horizon:(max recorded 0);
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
                  if Phistory.H.visible_length h = 0 then begin
                    (* Nothing of it was visible: a new key whose first
                       stamp, or a lost publication race whose clear, a
                       crash cut off. Release it, the slot first. *)
                    Codec.free_word heap (Pmem.Pblockchain.clear chain slot);
                    Phistory.destroy heap h
                  end
                  else begin
                    if maxv > !highest then highest := maxv;
                    let key = Codec.decode (module K) media key_word in
                    match
                      Concurrent.Skiplist.find_or_insert index key ~make:(fun () -> h)
                    with
                    | Concurrent.Skiplist.Added _ | Found _ | Raced _ -> ()
                  end))
            (Recovery.plan_blocks ~blocks:(Array.length blocks) ~threads ~tid);
          !highest)
    in
    let clock = Array.fold_left max 0 max_versions in
    let horizon = if unknown then clock else max recorded 0 in
    let t = make_store heap chain index (Version.restore ~clock ~fc) fc ~horizon in
    Obs.Instr.finish m_recover t0;
    t

  let heap t = t.heap

  (* The GC core; runs with the store quiesced (gate closed, in-flight
     drained, fc settled). Persist order is the crash-safety argument:
     (1) the floor F = fc and the horizon, before anything is dropped,
     so recovery counts every dropped stamp as present and kept records
     keep their stamps; (2) per history that drops records (a prefix:
     everything before the newest entry at or below [before], and that
     entry too when it is a removal marker) or is larger than its right
     size, one root swap of its chain slot's history word
     ([Phistory.drop_prefix]); (3) only after the swap, the dropped
     value blobs are freed. Keys whose history empties out are scrubbed:
     their chain slots, the histories' handles, are cleared (persisted)
     first, and only then are the key blob, value blobs and history
     storage freed and the index node unlinked. A crash between any two
     steps strands blocks at worst, which the next open's rebuild frees,
     and never leaves a record pointing at freed storage. *)
  let compact_quiesced t ~before =
    let horizon = max (Atomic.get t.horizon) before in
    set_floor t.heap ~floor:(Version.fc t.ctx) ~horizon;
    Atomic.set t.horizon horizon;
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
        if first = n then Hashtbl.replace dead (Phistory.chain_slot h) (h, raw)
        else begin
          Phistory.drop_prefix t.heap h ~first;
          free_values raw ~upto:first
        end);
    if Hashtbl.length dead > 0 then begin
      Pmem.Pblockchain.release_slots t.chain
        (List.of_seq (Hashtbl.to_seq_keys dead))
        ~on_release:(fun ~key -> Codec.free_word t.heap key);
      Hashtbl.iter
        (fun _ (h, raw) ->
          free_values raw ~upto:(Array.length raw);
          Phistory.destroy t.heap h)
        dead;
      let scrubbed =
        Concurrent.Skiplist.scrub t.index ~dead:(fun _ h ->
            Hashtbl.mem dead (Phistory.chain_slot h))
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

  let horizon t = Atomic.get t.horizon
  let recovered_fc t = t.recovered_fc
  let chain_claimed t = Pmem.Pblockchain.claimed t.chain
  let chain_free_slots t = Pmem.Pblockchain.free_slot_count t.chain
end
