(* On-media layout at [base_off]:
     +0   bump pointer (next fresh block offset)
     +8   heap_end
     +16  free-list heads, one word per size class (intrusive lists: the
          first word of a free block holds the offset of the next one)
     +16 + 8*num_classes
          oversized free-list head (intrusive like the class lists, but
          each free block also records its own byte size in its second
          word, so first-fit can match on size)
   Every mutation is persisted before [alloc]/[free] returns, even
   inside a [Media.with_batch] scope ([Media.persist_now]): a block
   handed out in a scope can be written and flushed by another domain
   before the scope's barrier. So a crash can only leak the block being
   handed out, never double-allocate it, and memory at or above the
   persisted bump pointer has never been handed out. *)

let size_classes =
  [| 16; 24; 32; 48; 64; 96; 128; 192; 256; 384; 512; 1024; 2048; 4096 |]

let num_classes = Array.length size_classes
let max_class_size = size_classes.(num_classes - 1)
let header_size = 16 + (8 * num_classes) + 8

(* An oversized free block needs two words (next + size), so a split
   remainder below this cannot be kept on the oversized list. *)
let oversized_min_remainder = 16

type t = {
  media : Media.t;
  base_off : int;
  lock : Mutex.t;
}

let bump_off t = t.base_off
let end_off t = t.base_off + 8
let class_head_off t c = t.base_off + 16 + (8 * c)
let oversized_head_off t = t.base_off + 16 + (8 * num_classes)

let format media ~base_off ~heap_end =
  if base_off land 7 <> 0 then invalid_arg "Alloc.format: unaligned base";
  let start = base_off + header_size in
  if heap_end <= start then invalid_arg "Alloc.format: empty heap range";
  let t = { media; base_off; lock = Mutex.create () } in
  Media.set_i64 media (bump_off t) start;
  Media.set_i64 media (end_off t) heap_end;
  for c = 0 to num_classes - 1 do
    Media.set_i64 media (class_head_off t c) Pptr.null
  done;
  Media.set_i64 media (oversized_head_off t) Pptr.null;
  Media.persist media base_off header_size;
  t

let attach media ~base_off =
  let t = { media; base_off; lock = Mutex.create () } in
  let bump = Media.get_i64 media (bump_off t) in
  let heap_end = Media.get_i64 media (end_off t) in
  if bump < base_off + header_size || heap_end > Media.capacity media || bump > heap_end
  then invalid_arg "Alloc.attach: corrupt allocator header";
  t

(* Smallest class index serving [size], or None for oversized requests. *)
let class_of_size size =
  let rec scan c =
    if c >= num_classes then None
    else if size_classes.(c) >= size then Some c
    else scan (c + 1)
  in
  scan 0

(* Largest class fitting inside [size] bytes, for carving split
   remainders into recyclable pieces. *)
let class_within_size size =
  let rec scan c =
    if c < 0 then None else if size_classes.(c) <= size then Some c else scan (c - 1)
  in
  scan (num_classes - 1)

let rounded_size size =
  match class_of_size size with
  | Some c -> size_classes.(c)
  | None -> Pptr.align8 size

let with_lock t f =
  Mutex.lock t.lock;
  match f () with
  | result ->
      Mutex.unlock t.lock;
      result
  | exception e ->
      Mutex.unlock t.lock;
      raise e

let pop_free_list t c =
  let head_off = class_head_off t c in
  let head = Media.get_i64 t.media head_off in
  if Pptr.is_null head then Pptr.null
  else begin
    let next = Media.get_i64 t.media head in
    Media.set_i64 t.media head_off next;
    Media.persist_now t.media head_off 8;
    head
  end

(* Push a block of exactly [size_classes.(c)] bytes onto class [c]'s
   free list. Lock held by the caller. *)
let push_class t c ptr =
  let head_off = class_head_off t c in
  let head = Media.get_i64 t.media head_off in
  Media.set_i64 t.media ptr head;
  Media.persist_now t.media ptr 8;
  Media.set_i64 t.media head_off ptr;
  Media.persist_now t.media head_off 8

let push_oversized t ptr size =
  let head_off = oversized_head_off t in
  let head = Media.get_i64 t.media head_off in
  Media.set_i64 t.media ptr head;
  Media.set_i64 t.media (ptr + 8) size;
  Media.persist_now t.media ptr 16;
  Media.set_i64 t.media head_off ptr;
  Media.persist_now t.media head_off 8

(* Recycle the tail of a split oversized block. A remainder too big for
   any class stays on the oversized list whole; otherwise it is carved
   greedily into class blocks. The final sub-16-byte scrap (at most 8
   bytes — everything here is 8-aligned) cannot hold a free-list link
   and is the one genuinely unrecyclable loss, counted as leaked. *)
let recycle_remainder t ptr size =
  if size > max_class_size then push_oversized t ptr size
  else begin
    let rec carve ptr size =
      match class_within_size size with
      | Some c ->
          push_class t c ptr;
          carve (ptr + size_classes.(c)) (size - size_classes.(c))
      | None ->
          if size > 0 then Pstats.record_leak (Media.stats t.media) ~bytes:size
    in
    carve ptr size
  end

(* First fit over the oversized list: take a block whose recorded size
   matches exactly, or one big enough that the remainder is itself
   recyclable. Returns the block offset or null. Lock held. *)
let pop_oversized t size =
  let rec walk prev_link =
    let cur = Media.get_i64 t.media prev_link in
    if Pptr.is_null cur then Pptr.null
    else begin
      let cur_size = Media.get_i64 t.media (cur + 8) in
      if cur_size = size || cur_size >= size + oversized_min_remainder then begin
        (* Unlink, then recycle any split tail. *)
        Media.set_i64 t.media prev_link (Media.get_i64 t.media cur);
        Media.persist_now t.media prev_link 8;
        if cur_size > size then recycle_remainder t (cur + size) (cur_size - size);
        cur
      end
      else walk cur
    end
  in
  walk (oversized_head_off t)

let alloc_fresh t size =
  let bump = Media.get_i64 t.media (bump_off t) in
  let heap_end = Media.get_i64 t.media (end_off t) in
  if bump + size > heap_end then raise Out_of_memory;
  Media.set_i64 t.media (bump_off t) (bump + size);
  Media.persist_now t.media (bump_off t) 8;
  bump

(* A block of [rounded_size size] bytes, and whether it came off a
   free list (and so may hold stale bytes). *)
let take t size =
  if size <= 0 then invalid_arg "Alloc.alloc: size must be positive";
  let rounded = rounded_size size in
  let block =
    with_lock t (fun () ->
        let recycled =
          match class_of_size size with
          | Some c -> pop_free_list t c
          | None -> pop_oversized t rounded
        in
        if Pptr.is_null recycled then (alloc_fresh t rounded, false)
        else (recycled, true))
  in
  Pstats.record_alloc (Media.stats t.media) ~bytes:rounded;
  block

let alloc t size = fst (take t size)

(* Fresh blocks lie at or above the persisted bump pointer, which no
   block handed out so far has reached, so they are durable zero
   already (see [format]); only a recycled block is zeroed, and at once
   even inside a batch scope, since its caller may persist a link to it
   at once. *)
let alloc_zeroed t size =
  let off, recycled = take t size in
  if recycled then begin
    let n = rounded_size size in
    Media.fill t.media off n '\000';
    Media.persist_now t.media off n
  end;
  off

let free t ptr size =
  if Pptr.is_null ptr then invalid_arg "Alloc.free: null pointer";
  match class_of_size size with
  | None ->
      with_lock t (fun () ->
          let aligned = Pptr.align8 size in
          push_oversized t ptr aligned;
          Pstats.record_free (Media.stats t.media) ~bytes:aligned)
  | Some c ->
      with_lock t (fun () ->
          push_class t c ptr;
          Pstats.record_free (Media.stats t.media) ~bytes:size_classes.(c))

let used_bytes t =
  Media.get_i64 t.media (bump_off t) - (t.base_off + header_size)

let remaining_bytes t =
  Media.get_i64 t.media (end_off t) - Media.get_i64 t.media (bump_off t)
