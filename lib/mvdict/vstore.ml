(* The store body PSkipList and ESkipList share (Sec. IV; Sec. V-B:
   ESkipList is PSkipList with every optimization kept and its
   histories in DRAM). A lock-free skip-list index maps each key to a
   lazy-tail history; every write is one chunked install and every
   read passes one store gate. A history policy supplies the rest:
   where histories live and how their writes persist, the word a
   history holds for a value, a new key's durable name, and the batch
   scope that coalesces persists. pskiplist.ml instantiates it over
   persistent memory, and adds recovery, compaction and migration on
   top; eskiplist.ml over DRAM, where every persist is a no-op. *)

(* [Array.make] and an array literal of an abstract type are C calls, an
   order of magnitude dearer than an inline allocation: a one-key write
   makes its arrays inline, its word array by its policy's [words]. *)
let ints n (x : int) = match n with 1 -> [| x |] | 2 -> [| x; x |] | _ -> Array.make n x

module type POLICY = sig
  type key
  type value

  type store
  (* What every operation below takes: the pool (heap, media, key
     chain) in persistent memory, () in DRAM. *)

  type word (* a value as a history holds it *)
  type name (* a new key's durable name: its key-chain slot *)
  type history

  val name : string (* the display name; metrics are mvdict.<lowercase name>.* *)
  val compare : key -> key -> int

  (* A value's word. [decode] gives None for the removal marker; a blob
     is storage the word points at, durable before a record holds it. *)
  val encode : store -> value -> word
  val decode : store -> word -> value option
  val marker : word
  val words : int -> word array (* [n] cells for the install to fill *)
  val is_blob : word -> bool
  val free : store -> word -> unit

  (* The batch scope, and its barrier: the scope's writes so far are
     durable before any later one. *)
  val with_batch : (unit -> 'a) -> 'a
  val barrier : unit -> unit

  (* A new key's durable name: [commit] makes a restart reach the
     history, [clear] undoes it and returns the key's word, which
     [free] releases once the clear is durable. *)
  val claim : store -> key -> name
  val commit : store -> name -> history -> unit
  val clear : store -> name -> word

  (* A history, and the {!Lazy_tail} operations of the same names. *)
  val create : store -> name -> history
  val destroy : store -> history -> unit
  val append_entry : store -> history -> version:int -> word -> int
  val finish_entry : store -> history -> ctx:Version.t -> slot:int -> int
  val find : store -> history -> ctx:Version.t -> version:int -> int
  val value : store -> history -> int -> word
  val events : store -> history -> ctx:Version.t -> since:int -> (int * word) list
end

module Make (P : POLICY) = struct
  type key = P.key
  type value = P.value

  type t = {
    store : P.store;
    index : (P.key, P.history) Concurrent.Skiplist.t;
    ctx : Version.t;
    board : Completion.t;
    (* The store gate: ordinary operations pass through [gated]; a
       persistent compaction closes it, drains in-flight operations
       and then has the store to itself (a bounded stop-the-world
       pause). *)
    gate_closed : bool Atomic.t;
    gate_inflight : int Atomic.t;
  }

  let name = P.name

  (* Hot-path op metrics (lib/obs). Registry handles are get-or-create
     by name, so every functor instantiation shares them. *)
  let metric op = Obs.Instr.op ("mvdict." ^ String.lowercase_ascii P.name ^ "." ^ op)
  let m_insert = metric "insert"
  let m_remove = metric "remove"
  let m_insert_batch = metric "insert_batch"
  let m_remove_batch = metric "remove_batch"
  let m_find = metric "find"
  let m_history = metric "history"
  let m_snapshot = metric "snapshot"
  let new_index () = Concurrent.Skiplist.create ~compare:P.compare ()

  let make store index ctx =
    let gate_closed = Atomic.make false and gate_inflight = Atomic.make 0 in
    { store; index; ctx; board = Completion.create ctx; gate_closed; gate_inflight }

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

  (* Close the gate, wait for the ops registered before it closed, and
     run [f] with the store to itself and fc settled; callers serialise
     among themselves. A registered op never waits on the closer: it
     checks the gate only at entry, and its own waits (stamp
     backpressure, growths, key-chain blocks) are on other registered
     ops. Once [gate_inflight] hits zero every claimed history slot has
     been written and stamped, so one [help_advance] settles fc. *)
  let quiesced t f =
    Atomic.set t.gate_closed true;
    Fun.protect
      ~finally:(fun () -> Atomic.set t.gate_closed false)
      (fun () ->
        while Atomic.get t.gate_inflight > 0 do
          Domain.cpu_relax ()
        done;
        Completion.help_advance t.board;
        f ())

  (* ---- the write path ----

     Every write is one [install], under one gate pass: a single insert
     or remove is a chunk of one key, a batch is chunks of up to
     [install_chunk] keys (the dirty-range log's merge window) under
     one version, and a move's [install_chains] is chunks whose keys
     carry several entries. A chunk looks its keys up, then persists in
     one order, with a barrier after each step (DESIGN §5c): (0) the
     values, so a blob is durable before a record points at it;
     (1) new keys' histories and claimed names, and every payload;
     (2) new keys' name commits; (3) new keys' index publication, then
     every stamp. The stamps are published after the last barrier,
     still gated (compaction's drain relies on it), so an entry is
     visible only once durable, and a writer finds only keys a restart
     reaches. Where another writer published one of its new keys first
     (Algorithm 2: "the slower thread needs to detect this situation
     and clean up accordingly, then reuse the pointer of the faster
     thread"), a chunk clears its own name, and only once a barrier
     has made the clear durable appends that key's entries to the
     winner's history (no blob is ever reachable from two records) and
     frees its own; a restart releases the unstamped history a crash
     before that barrier leaves. In DRAM every barrier is a no-op, but
     the order, a new key's lookup then its publishing descent, stays. *)
  let install_chunk = 64

  let rec drop n = function _ :: rest when n > 0 -> drop (n - 1) rest | l -> l

  (* Flatten entries into the chunk's arrays from index [j], encoding
     each value; true once one is a blob. *)
  let rec fill t versions words ~word_of j blob = function
    | [] -> blob
    | (version, x) :: rest ->
        let word = word_of t.store x in
        versions.(j) <- version;
        words.(j) <- word;
        fill t versions words ~word_of (j + 1) (blob || P.is_blob word) rest

  let append_entries t h versions words slots lo hi =
    for j = lo to hi - 1 do
      slots.(j) <- P.append_entry t.store h ~version:versions.(j) words.(j)
    done

  (* Keys [lo, hi) of [keys] (ascending) with their [events] (oldest
     first), an existing key's less the first [cut.(i)], as [skip] of
     its history says. found.(i) is key i's history once step 1 has
     made a new key's; names.(i) the name a new key claimed, else None;
     key i's entries are [first.(i), first.(i + 1)) of the flat
     arrays. *)
  let install_chunk_at t ~skip ~word_of keys events lo hi =
    let k = hi - lo in
    let found = if k = 1 then [| None |] else Array.make k None and cut = ints k 0 in
    let first = ints (k + 1) 0 and names = if k = 1 then [| None |] else Array.make k None in
    for i = 0 to k - 1 do
      let h = Concurrent.Skiplist.find t.index keys.(lo + i) in
      found.(i) <- h;
      (match h with Some h -> cut.(i) <- skip h | None -> ());
      first.(i + 1) <- first.(i) + List.length (drop cut.(i) events.(lo + i))
    done;
    let m = first.(k) in
    let versions = ints m 0 and words = P.words m in
    let slots = ints m 0 and stamps = ints m 0 in
    let losers =
      P.with_batch (fun () ->
          let blob = ref false and fresh = ref false and losers = ref [] in
          for i = 0 to k - 1 do
            blob :=
              fill t versions words ~word_of first.(i) !blob (drop cut.(i) events.(lo + i))
          done;
          if !blob then P.barrier ();
          for i = 0 to k - 1 do
            if Option.is_none found.(i) then begin
              let name = P.claim t.store keys.(lo + i) in
              names.(i) <- Some name;
              found.(i) <- Some (P.create t.store name);
              fresh := true
            end;
            append_entries t (Option.get found.(i)) versions words slots first.(i)
              first.(i + 1)
          done;
          P.barrier ();
          if !fresh then begin
            for i = 0 to k - 1 do
              match names.(i) with
              | Some name -> P.commit t.store name (Option.get found.(i))
              | None -> ()
            done;
            P.barrier ();
            for i = 0 to k - 1 do
              match names.(i) with
              | None -> ()
              | Some name -> (
                  let h = Option.get found.(i) in
                  let make () = h in
                  match Concurrent.Skiplist.find_or_insert t.index keys.(lo + i) ~make with
                  | Concurrent.Skiplist.Added _ -> ()
                  | Found winner ->
                      losers := (i, h, P.clear t.store name) :: !losers;
                      found.(i) <- Some winner)
            done;
            if not (List.is_empty !losers) then begin
              P.barrier ();
              List.iter
                (fun (i, _, _) ->
                  append_entries t (Option.get found.(i)) versions words slots first.(i)
                    first.(i + 1))
                !losers;
              P.barrier ()
            end
          end;
          for i = 0 to k - 1 do
            let h = Option.get found.(i) in
            for j = first.(i) to first.(i + 1) - 1 do
              stamps.(j) <- P.finish_entry t.store h ~ctx:t.ctx ~slot:slots.(j)
            done
          done;
          P.barrier ();
          !losers)
    in
    if not (List.is_empty losers) then
      List.iter
        (fun (_, h, key) ->
          P.destroy t.store h;
          P.free t.store key)
        losers;
    for j = 0 to m - 1 do
      Completion.publish t.board stamps.(j)
    done

  let install t keys events ~skip ~word_of =
    let n = Array.length keys in
    let lo = ref 0 in
    while !lo < n do
      let hi = min n (!lo + install_chunk) in
      install_chunk_at t ~skip ~word_of keys events !lo hi;
      lo := hi
    done

  let no_skip _ = 0
  let marker_word _ () = P.marker

  let write t op key x ~word_of =
    let t0 = Obs.Instr.start () in
    gated t (fun () ->
        install t [| key |] [| [ (Version.stamp t.ctx, x) ] |] ~skip:no_skip ~word_of);
    Obs.Instr.finish op t0

  let insert t key value = write t m_insert key value ~word_of:P.encode
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
    match Dict_intf.canonical_pairs ~compare:P.compare pairs with
    | [] -> ()
    | items -> write_batch t m_insert_batch items ~word_of:P.encode

  let remove_batch t keys =
    match Dict_intf.canonical_keys ~compare:P.compare keys with
    | [] -> ()
    | keys ->
        write_batch t m_remove_batch (List.map (fun k -> (k, ())) keys) ~word_of:marker_word

  let tag t = Version.tag t.ctx
  let tag_at t version = Version.tag_at t.ctx version
  let current_version t = Version.current t.ctx

  let lookup_value t h version =
    let slot = P.find t.store h ~ctx:t.ctx ~version in
    if slot < 0 then None else P.decode t.store (P.value t.store h slot)

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

  (* A key's events above [since], oldest first; none allocates
     nothing. *)
  let chain_of t h ~since =
    match P.events t.store h ~ctx:t.ctx ~since with
    | [] -> []
    | events ->
        List.map
          (fun (version, word) ->
            (version, match P.decode t.store word with Some v -> Dict_intf.Put v | None -> Del))
          events

  let extract_history t key =
    let t0 = Obs.Instr.start () in
    let result =
      gated t (fun () ->
          match Concurrent.Skiplist.find t.index key with
          | None -> []
          | Some h -> chain_of t h ~since:0)
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
end
