(* On-media layout:
     header: { head_block : i64; block_slots : i64 }
     block:  { next : i64; slots : block_slots * (key : i64, hist : i64) }
   Slot validity: hist <> 0. The history word is the slot's commit
   word: it is written after the key word, and the key word is durable
   no later than it.

   Ephemeral state rebuilt on attach:
     claim  — global monotonic slot counter (fetch-add to claim),
     blocks — published block offsets (atomic cells so that spinning
              domains are guaranteed to observe publication),
     free   — the offsets of released/holed slots below the claim
              point, reused by [claim] before claiming fresh ones.
   A slot is named by its offset, which is also how a history names
   the slot that roots it. *)

type t = {
  heap : Pheap.t;
  media : Media.t;
  header_off : int;
  block_slots : int;
  claim : int Atomic.t;
  blocks : int Atomic.t array Atomic.t;
  table_lock : Mutex.t;
  mutable free : int list;
  free_lock : Mutex.t;
}

let header_size = 16
let block_size block_slots = 8 + (16 * block_slots)
let slot_off block_off slot = block_off + 8 + (16 * slot)

let alloc_block t =
  Alloc.alloc_zeroed (Pheap.allocator t.heap) (block_size t.block_slots)

let fresh_table n = Array.init n (fun _ -> Atomic.make Pptr.null)

let publish_block t index off =
  Mutex.lock t.table_lock;
  let table = Atomic.get t.blocks in
  let table =
    if index < Array.length table then table
    else begin
      let bigger = fresh_table (max (index + 1) (2 * Array.length table)) in
      Array.blit table 0 bigger 0 (Array.length table);
      Atomic.set t.blocks bigger;
      bigger
    end
  in
  Atomic.set table.(index) off;
  Mutex.unlock t.table_lock

let create heap ~block_slots =
  if block_slots <= 0 then invalid_arg "Pblockchain.create: block_slots";
  let media = Pheap.media heap in
  let header_off = Alloc.alloc (Pheap.allocator heap) header_size in
  let t =
    { heap; media; header_off; block_slots;
      claim = Atomic.make 0;
      blocks = Atomic.make (fresh_table 8);
      table_lock = Mutex.create ();
      free = [];
      free_lock = Mutex.create () }
  in
  let head = alloc_block t in
  Media.set_i64 media header_off head;
  Media.set_i64 media (header_off + 8) block_slots;
  Media.persist media header_off header_size;
  publish_block t 0 head;
  t

let attach heap header_off =
  if Pptr.is_null header_off then invalid_arg "Pblockchain.attach: null handle";
  let media = Pheap.media heap in
  let block_slots = Media.get_i64 media (header_off + 8) in
  if block_slots <= 0 then invalid_arg "Pblockchain.attach: corrupt header";
  let t =
    { heap; media; header_off; block_slots;
      claim = Atomic.make 0;
      blocks = Atomic.make (fresh_table 8);
      table_lock = Mutex.create ();
      free = [];
      free_lock = Mutex.create () }
  in
  (* Walk the chain; claimed = slots of full blocks + used prefix of the
     tail. Holes below the claim point (crashed appends that never became
     visible, or slots released by GC) are collected for reuse instead of
     being claimed again through the counter. *)
  let rec walk off index =
    publish_block t index off;
    let next = Media.get_i64 media off in
    if Pptr.is_null next then (off, index) else walk next (index + 1)
  in
  let tail_off, tail_index = walk (Media.get_i64 media header_off) 0 in
  let used_in_tail = ref 0 in
  for s = 0 to block_slots - 1 do
    if Media.get_i64 media (slot_off tail_off s + 8) <> Pptr.null then
      used_in_tail := s + 1
  done;
  let claimed = (tail_index * block_slots) + !used_in_tail in
  Atomic.set t.claim claimed;
  let holes = ref [] in
  for g = 0 to claimed - 1 do
    let block = Atomic.get (Atomic.get t.blocks).(g / block_slots) in
    let off = slot_off block (g mod block_slots) in
    if Media.get_i64 media (off + 8) = Pptr.null then holes := off :: !holes
  done;
  t.free <- !holes;
  t

let handle t = t.header_off
let block_slots t = t.block_slots
let claimed t = Atomic.get t.claim

let published t index =
  let table = Atomic.get t.blocks in
  if index < Array.length table then Atomic.get table.(index) else Pptr.null

(* Find (allocating and linking if we own slot 0) the block [index].
   A non-owner spins until the owner publishes block [index]; the owner
   spins until block [index - 1] is published. Owners allocate, persist
   and publish without waiting on any later block, so the chain of
   waits descends to block 0, which exists from creation. *)
let rec obtain_block t index ~owner =
  let off = published t index in
  if not (Pptr.is_null off) then off
  else if owner then begin
    let prev =
      let rec wait () =
        let p = published t (index - 1) in
        if Pptr.is_null p then begin Domain.cpu_relax (); wait () end else p
      in
      wait ()
    in
    let fresh = alloc_block t in
    (* Persisted at once even inside a batch scope: once published, the
       block can take another domain's slots, persisted at once. *)
    Media.set_i64 t.media prev fresh;
    Media.persist_now t.media prev 8;
    publish_block t index fresh;
    fresh
  end
  else begin
    Domain.cpu_relax ();
    obtain_block t index ~owner
  end

let take_free_slot t =
  Mutex.lock t.free_lock;
  let off =
    match t.free with
    | [] -> None
    | off :: rest ->
        t.free <- rest;
        Some off
  in
  Mutex.unlock t.free_lock;
  off

(* A fresh slot: the next one of the claim counter, in a block this
   claim may have to allocate and link. *)
let fresh_slot t =
  let g = Atomic.fetch_and_add t.claim 1 in
  let index = g / t.block_slots and slot = g mod t.block_slots in
  slot_off (obtain_block t index ~owner:(slot = 0 && index > 0)) slot

(* The key word needs a persist of its own only when it lies on an
   earlier line than the commit word; otherwise it becomes durable with
   the commit word's line. *)
let claim t ~key =
  let off = match take_free_slot t with Some off -> off | None -> fresh_slot t in
  Media.set_i64 t.media off key;
  Media.persist_before t.media off ~commit:(off + 8);
  off

let history_word slot = slot + 8

let set_hist t off hist =
  Media.set_i64 t.media (history_word off) hist;
  Media.persist t.media (history_word off) 8

let commit t off ~hist =
  if Pptr.is_null hist then invalid_arg "Pblockchain.commit: null history";
  set_hist t off hist

let free_slots t offs =
  Mutex.lock t.free_lock;
  t.free <- List.rev_append offs t.free;
  Mutex.unlock t.free_lock

(* Nulling the (persisted) history word turns the slot into an
   ordinary hole: a crash before the caller frees what the slot pointed
   at strands those blocks (freed by the next open's rebuild), never a
   dangling pointer. A hole's key word is left as it was: every reader
   tests the history word first, and [claim] rewrites the key word. *)
let clear t off =
  let key = Media.get_i64 t.media off in
  set_hist t off Pptr.null;
  free_slots t [ off ];
  key

(* The published cells form a prefix: an owner publishes block [i] only
   after block [i - 1]. After [attach] the prefix is every linked block,
   a tail whose slots are all holes included, so [mark] keeps it live. *)
let published_count table =
  let rec count n =
    if n < Array.length table && not (Pptr.is_null (Atomic.get table.(n))) then count (n + 1)
    else n
  in
  count 0

let block_count t = published_count (Atomic.get t.blocks)

let block_offsets t =
  let table = Atomic.get t.blocks in
  Array.init (published_count table) (fun i -> Atomic.get table.(i))

let mark t marks =
  Alloc.mark marks t.header_off header_size;
  Array.iter (fun b -> Alloc.mark marks b (block_size t.block_slots)) (block_offsets t)

let iter_block t block f =
  for s = 0 to t.block_slots - 1 do
    let slot = slot_off block s in
    let hist = Media.get_i64 t.media (history_word slot) in
    if not (Pptr.is_null hist) then f ~slot ~key:(Media.get_i64 t.media slot) ~hist
  done

let iter_slots t f =
  Array.iter
    (fun block -> iter_block t block (fun ~slot:_ ~key ~hist -> f ~key ~hist))
    (block_offsets t)

let free_slot_count t =
  Mutex.lock t.free_lock;
  let n = List.length t.free in
  Mutex.unlock t.free_lock;
  n
