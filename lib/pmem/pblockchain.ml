(* On-media layout:
     header: { head_block : i64; block_slots : i64 }
     block:  { next : i64; slots : block_slots * (key : i64, hist : i64) }
   Slot validity: hist <> 0. The history word is the slot's commit
   word: it is written after the key word, and the key word is durable
   no later than it.

   DRAM state, rebuilt on attach and guarded by [lock]:
     tail   — the last linked block,
     used   — how many of the tail's slots have been handed out,
     blocks — the number of linked blocks,
     free   — released or holed slots below the claim point, reused by
              [claim] before the tail's next slot.
   A slot is named by its offset, which is also how a history names
   the slot that roots it. *)

type t = {
  heap : Pheap.t;
  media : Media.t;
  header_off : int;
  block_slots : int;
  lock : Mutex.t;
  mutable tail : int;
  mutable used : int;
  mutable blocks : int;
  mutable free : int list;
}

let header_size = 16
let block_size block_slots = 8 + (16 * block_slots)
let slot_off block_off slot = block_off + 8 + (16 * slot)
let history_word slot = slot + 8

let alloc_block heap block_slots =
  Alloc.alloc_zeroed (Pheap.allocator heap) (block_size block_slots)

let make heap header_off block_slots head =
  { heap; media = Pheap.media heap; header_off; block_slots;
    lock = Mutex.create ();
    tail = head; used = 0; blocks = 1; free = [] }

(* [f t a] under the lock, which an exception (a crash-sim [Media.Crash]
   from a link's persist among them) releases too. Every [f] captures
   nothing, so a lock section builds no closure. Lock order: the chain,
   then the allocator, then the media's shadow lock. *)
let locked t f a =
  Mutex.lock t.lock;
  match f t a with
  | result ->
      Mutex.unlock t.lock;
      result
  | exception e ->
      Mutex.unlock t.lock;
      raise e

let create heap ~block_slots =
  if block_slots <= 0 then invalid_arg "Pblockchain.create: block_slots";
  let media = Pheap.media heap in
  let header_off = Alloc.alloc (Pheap.allocator heap) header_size in
  let head = alloc_block heap block_slots in
  Media.set_i64 media header_off head;
  Media.set_i64 media (header_off + 8) block_slots;
  Media.persist media header_off header_size;
  make heap header_off block_slots head

let is_hole t slot = Pptr.is_null (Media.get_i64 t.media (history_word slot))

(* One past the last valid slot of [block] below [n]. *)
let rec used_prefix t block n =
  if n = 0 || not (is_hole t (slot_off block (n - 1))) then n
  else used_prefix t block (n - 1)

(* Every block but the tail is claimed whole, the tail up to its last
   valid slot; a hole below that point (a crashed append that never
   became visible, or a slot a GC pass released) is reused before a
   fresh slot. *)
let rec walk t block =
  let next = Media.get_i64 t.media block in
  let n = if Pptr.is_null next then used_prefix t block t.block_slots else t.block_slots in
  for s = 0 to n - 1 do
    if is_hole t (slot_off block s) then t.free <- slot_off block s :: t.free
  done;
  if Pptr.is_null next then begin
    t.tail <- block;
    t.used <- n
  end
  else begin
    t.blocks <- t.blocks + 1;
    walk t next
  end

let attach heap header_off =
  if Pptr.is_null header_off then invalid_arg "Pblockchain.attach: null handle";
  let media = Pheap.media heap in
  let block_slots = Media.get_i64 media (header_off + 8) in
  if block_slots <= 0 then invalid_arg "Pblockchain.attach: corrupt header";
  let head = Media.get_i64 media header_off in
  let t = make heap header_off block_slots head in
  walk t head;
  t

let handle t = t.header_off
let block_slots t = t.block_slots

(* A hole first; else the tail's next slot, after linking a fresh tail
   when the tail is full. The link is persisted at once even inside a
   batch scope: once the lock drops, another domain may take the
   block's slots and persist them at once. Lock held. *)
let take_slot t () =
  match t.free with
  | off :: rest ->
      t.free <- rest;
      off
  | [] ->
      if t.used = t.block_slots then begin
        let fresh = alloc_block t.heap t.block_slots in
        Media.set_i64 t.media t.tail fresh;
        Media.persist_now t.media t.tail 8;
        t.tail <- fresh;
        t.used <- 0;
        t.blocks <- t.blocks + 1
      end;
      let off = slot_off t.tail t.used in
      t.used <- t.used + 1;
      off

(* The key word needs a persist of its own only when it lies on an
   earlier line than the commit word; otherwise it becomes durable with
   the commit word's line. *)
let claim t ~key =
  let off = locked t take_slot () in
  Media.set_i64 t.media off key;
  Media.persist_before t.media off ~commit:(history_word off);
  off

let set_hist t off hist =
  Media.set_i64 t.media (history_word off) hist;
  Media.persist t.media (history_word off) 8

let commit t off ~hist =
  if Pptr.is_null hist then invalid_arg "Pblockchain.commit: null history";
  set_hist t off hist

(* Nulling the (persisted) history word turns the slot into an
   ordinary hole: a crash before the caller frees what the slot pointed
   at strands those blocks (freed by the next open's rebuild), never a
   dangling pointer. A hole's key word is left as it was: every reader
   tests the history word first, and [claim] rewrites the key word. *)
let clear t off =
  let key = Media.get_i64 t.media off in
  set_hist t off Pptr.null;
  locked t (fun t off -> t.free <- off :: t.free) off;
  key

let claimed t = locked t (fun t () -> ((t.blocks - 1) * t.block_slots) + t.used) ()
let block_count t = locked t (fun t () -> t.blocks) ()
let free_slot_count t = locked t (fun t () -> List.length t.free) ()

(* The links list every linked block, a tail whose slots are all holes
   included, so [mark] keeps it live. *)
let block_offsets t =
  let rec follow block acc =
    if Pptr.is_null block then Array.of_list (List.rev acc)
    else follow (Media.get_i64 t.media block) (block :: acc)
  in
  follow (Media.get_i64 t.media t.header_off) []

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
