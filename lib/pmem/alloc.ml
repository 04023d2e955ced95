(* On-media layout at [base_off]:
     +0   reservation R: no block at or above it has ever been handed
          out, so memory there is durable zero
     +8   heap_end
   Nothing else of the allocator is persisted. The cursor (the next
   fresh block, at most R) and the free lists live in DRAM. [attach]
   starts the cursor at R with empty lists; [rebuild] then returns to
   the lists every part of [start, R) that the caller's walk from its
   roots did not mark. A free therefore writes nothing to the media, and
   an allocation only when it cuts a block past R - 16, which moves R
   a chunk past the cursor with one persisted word first. *)

(* Beside the powers of two and their halfway points, a class for every
   history segment past the first ({!Pvector}): segment k >= 1 of a
   history of c = 2 takes 8 + 24 * 2^k bytes, 56 to 3080, so none
   rounds up. *)
let size_classes =
  [| 16; 24; 32; 48; 56; 64; 96; 104; 128; 192; 200; 256; 384; 392; 512; 776; 1024;
     1544; 2048; 3080; 4096 |]

let num_classes = Array.length size_classes
let max_class_size = size_classes.(num_classes - 1)
let header_size = 16
let reservation_chunk = 65536

(* Every block is at least this big, and a split never leaves a smaller
   remainder: no free range is ever too small to hand out again. *)
let min_block = 16

(* A growable stack of ints (a DRAM free list). *)
type stack = { mutable items : int array; mutable len : int }

let stack () = { items = Array.make 16 0; len = 0 }

let push s x =
  if s.len = Array.length s.items then begin
    let bigger = Array.make (2 * s.len) 0 in
    Array.blit s.items 0 bigger 0 s.len;
    s.items <- bigger
  end;
  s.items.(s.len) <- x;
  s.len <- s.len + 1

let pop s =
  if s.len = 0 then Pptr.null
  else begin
    s.len <- s.len - 1;
    s.items.(s.len)
  end

type t = {
  media : Media.t;
  base_off : int;
  start : int;
  heap_end : int;
  chunk : int;  (* how far an extension moves R past the cursor *)
  lock : Mutex.t;
  mutable cursor : int;
  mutable reserved : int;  (* the persisted reservation *)
  classes : stack array;
  (* Oversized free blocks, first fit: offsets and byte sizes, in
     parallel. *)
  big_offs : stack;
  big_sizes : stack;
  (* [start, swept_end) is the range [rebuild] sweeps: the reservation
     at attach, and [start] once rebuilt (or for a fresh format). *)
  mutable swept_end : int;
  mutable retired : bool;
}

(* A sixteenth of the heap range for heaps under 1 MiB, so that one
   reservation never takes a small heap whole. *)
let chunk_for ~start ~heap_end =
  max min_block (min reservation_chunk ((heap_end - start) / 16 land lnot 7))

let make media ~base_off ~heap_end ~reserved =
  let start = base_off + header_size in
  {
    media; base_off; start; heap_end;
    chunk = chunk_for ~start ~heap_end;
    lock = Mutex.create ();
    cursor = reserved;
    reserved;
    classes = Array.init num_classes (fun _ -> stack ());
    big_offs = stack ();
    big_sizes = stack ();
    swept_end = reserved;
    retired = false;
  }

let format media ~base_off ~heap_end =
  if base_off land 7 <> 0 then invalid_arg "Alloc.format: unaligned base";
  let start = base_off + header_size in
  if heap_end <= start then invalid_arg "Alloc.format: empty heap range";
  let reserved = min heap_end (start + chunk_for ~start ~heap_end) in
  Media.set_i64 media base_off reserved;
  Media.set_i64 media (base_off + 8) heap_end;
  Media.persist media base_off header_size;
  let t = make media ~base_off ~heap_end ~reserved in
  t.cursor <- start;
  t.swept_end <- start;
  t

let attach media ~base_off =
  let reserved = Media.get_i64 media base_off in
  let heap_end = Media.get_i64 media (base_off + 8) in
  if reserved < base_off + header_size || heap_end > Media.capacity media
     || reserved > heap_end
  then invalid_arg "Alloc.attach: corrupt allocator header";
  make media ~base_off ~heap_end ~reserved

let retire t = t.retired <- true

(* Smallest class index serving [size], or [num_classes] for oversized
   requests. *)
let class_of_size size =
  let c = ref 0 in
  while !c < num_classes && size_classes.(!c) < size do
    incr c
  done;
  !c

let rounded_size size =
  let c = class_of_size size in
  if c < num_classes then size_classes.(c) else Pptr.align8 size

(* [f t a b] under the lock. [take] and [free] pass toplevel functions,
   so their lock sections build no closure. *)
let locked t f a b =
  Mutex.lock t.lock;
  match f t a b with
  | result ->
      Mutex.unlock t.lock;
      result
  | exception e ->
      Mutex.unlock t.lock;
      raise e

(* Largest class that fits in [size] bytes and leaves a remainder of 0
   or at least [min_block] (so carving by it never strands a scrap), or
   -1 when none does. *)
let carve_class size =
  let c = ref (num_classes - 1) in
  while
    !c >= 0
    && (size_classes.(!c) > size
       || (size_classes.(!c) < size && size - size_classes.(!c) < min_block))
  do
    decr c
  done;
  !c

(* Put the free range [off, off + size) on the lists: whole on the
   oversized list past the largest class, else carved into class
   blocks. Ranges are multiples of 8 and at least [min_block], so the
   carving ends exactly; an 8-byte range cannot be handed out again and
   is counted as leaked. Lock held by the caller. *)
let rec release t off size =
  if size > max_class_size then begin
    push t.big_offs off;
    push t.big_sizes size
  end
  else if size > 0 then begin
    let c = carve_class size in
    if c < 0 then Pstats.record_leak (Media.stats t.media) ~bytes:size
    else begin
      push t.classes.(c) off;
      release t (off + size_classes.(c)) (size - size_classes.(c))
    end
  end

(* First fit over the oversized list: a block of exactly [size] bytes,
   or one whose split leaves a remainder of at least [min_block]. The
   block is served from its front; a remainder still past the largest
   class keeps the block's place in the list, a smaller one is carved
   into class blocks. Returns null when none fits. Lock held. *)
let take_big t size =
  let n = t.big_offs.len in
  let rec scan i =
    if i >= n then Pptr.null
    else
      let off = t.big_offs.items.(i) and have = t.big_sizes.items.(i) in
      if have - size > max_class_size then begin
        t.big_offs.items.(i) <- off + size;
        t.big_sizes.items.(i) <- have - size;
        off
      end
      else if have = size || have >= size + min_block then begin
        t.big_offs.items.(i) <- t.big_offs.items.(n - 1);
        t.big_sizes.items.(i) <- t.big_sizes.items.(n - 1);
        t.big_offs.len <- n - 1;
        t.big_sizes.len <- n - 1;
        if have > size then release t (off + size) (have - size);
        off
      end
      else scan (i + 1)
  in
  scan 0

(* Cut [size] bytes at the cursor. The reservation is extended (and the
   new one persisted at once, even inside a batch scope) before the
   block reaches it, and always keeps [min_block] bytes beyond the
   cursor when the heap has them, so a rebuild never meets a tail too
   small to hand out. Lock held. *)
let cut t size =
  let off = t.cursor in
  let next = off + size in
  if next > t.heap_end then raise Out_of_memory;
  if next + min_block > t.reserved && t.reserved < t.heap_end then begin
    let r = Int.min t.heap_end (next + t.chunk) in
    Media.set_i64 t.media t.base_off r;
    Media.persist_now t.media t.base_off 8;
    t.reserved <- r
  end;
  t.cursor <- next;
  off

let check_live t fn =
  if t.retired then invalid_arg ("Alloc." ^ fn ^ ": allocator retired by a reopen")

(* A block of [rounded] bytes, and whether it came off a free list (and
   so may hold stale bytes). A class request whose list is empty splits
   an oversized free block before it cuts fresh memory. Lock held. *)
let take_locked t size rounded =
  check_live t "alloc";
  let recycled =
    let c = class_of_size size in
    if c = num_classes then take_big t rounded
    else
      let off = pop t.classes.(c) in
      if Pptr.is_null off then take_big t rounded else off
  in
  if Pptr.is_null recycled then (cut t rounded, false) else (recycled, true)

let take t size =
  if size <= 0 then invalid_arg "Alloc.alloc: size must be positive";
  let rounded = rounded_size size in
  let block = locked t take_locked size rounded in
  Pstats.record_alloc (Media.stats t.media) ~bytes:rounded;
  block

let alloc t size = fst (take t size)

(* Fresh blocks lie at or above the cursor, which no block handed out
   so far has passed, and below the persisted reservation; so they are
   durable zero already. Only a recycled block is zeroed, and at once
   even inside a batch scope, since its caller may persist a link to it
   at once. *)
let alloc_zeroed t size =
  let off, recycled = take t size in
  if recycled then begin
    let n = rounded_size size in
    Media.zero t.media off n;
    Media.persist_now t.media off n
  end;
  off

let free_locked t ptr rounded =
  check_live t "free";
  release t ptr rounded

let free t ptr size =
  if Pptr.is_null ptr then invalid_arg "Alloc.free: null pointer";
  let rounded = rounded_size size in
  locked t free_locked ptr rounded;
  Pstats.record_free (Media.stats t.media) ~bytes:rounded

(* ---- rebuild at open ---- *)

type marks = { bits : Bytes.t; lo : int; hi : int; since : int }

let marks t =
  let words = (t.swept_end - t.start) / 8 in
  { bits = Bytes.make ((words + 7) / 8) '\000'; lo = t.start; hi = t.swept_end;
    since = Obs.Clock.now_ns () }

let or_byte bits i mask =
  Bytes.unsafe_set bits i (Char.unsafe_chr (Char.code (Bytes.unsafe_get bits i) lor mask))

(* Marks words [a, b) of the bitmap, a < b: the partial bytes at either
   end by one mask each, the whole bytes between by one fill. *)
let set_bits bits a b =
  let first = a lsr 3 and last = (b - 1) lsr 3 in
  let lo = (0xff lsl (a land 7)) land 0xff and hi = 0xff lsr (7 - ((b - 1) land 7)) in
  if first = last then or_byte bits first (lo land hi)
  else begin
    or_byte bits first lo;
    if last > first + 1 then Bytes.fill bits (first + 1) (last - first - 1) '\xff';
    or_byte bits last hi
  end

(* Blocks outside the swept range were cut after the attach, so the
   sweep could not free them anyway. *)
let mark m ptr size =
  let hi = Int.min m.hi (ptr + rounded_size size) in
  if ptr >= m.lo && ptr < hi then set_bits m.bits ((ptr - m.lo) lsr 3) ((hi - m.lo) lsr 3)

let h_rebuild = Obs.Registry.histogram "pmem.rebuild.ns"
let c_rebuild_free = Obs.Registry.counter "pmem.rebuild.free_bytes"

let marked bits w = Char.code (Bytes.unsafe_get bits (w lsr 3)) land (1 lsl (w land 7)) <> 0

(* Sweep the bitmap for maximal runs of unmarked words and release
   each as one range, so neighbouring dead blocks coalesce. Whole
   bytes that are all marked, or all unmarked inside a run, are
   skipped at once. Returns the bytes released. *)
let sweep t m =
  let words = (m.hi - m.lo) / 8 in
  let freed = ref 0 in
  let emit a b =
    let off = m.lo + (8 * a) and size = 8 * (b - a) in
    release t off size;
    freed := !freed + size
  in
  let run = ref (-1) and w = ref 0 in
  while !w < words do
    let byte = if !w land 7 = 0 && !w + 8 <= words then Bytes.get m.bits (!w lsr 3) else ' ' in
    if byte = '\xff' && !run < 0 then w := !w + 8
    else if byte = '\000' && !run >= 0 then w := !w + 8
    else begin
      (if marked m.bits !w then begin
         if !run >= 0 then begin
           emit !run !w;
           run := -1
         end
       end
       else if !run < 0 then run := !w);
      incr w
    end
  done;
  if !run >= 0 then emit !run words;
  !freed

let rebuild t m =
  Mutex.protect t.lock (fun () ->
      check_live t "rebuild";
      if m.lo = t.start && m.hi = t.swept_end && m.hi > m.lo then begin
        let freed = sweep t m in
        t.swept_end <- t.start;
        Obs.Metric.add c_rebuild_free freed;
        Obs.Histogram.record h_rebuild (Obs.Clock.now_ns () - m.since)
      end)

let free_blocks t =
  Mutex.protect t.lock (fun () ->
      let acc = ref [] in
      Array.iteri
        (fun c s ->
          for i = 0 to s.len - 1 do
            acc := (s.items.(i), size_classes.(c)) :: !acc
          done)
        t.classes;
      for i = 0 to t.big_offs.len - 1 do
        acc := (t.big_offs.items.(i), t.big_sizes.items.(i)) :: !acc
      done;
      List.sort compare !acc)

let start t = t.start
let reservation t = t.reserved
let used_bytes t = t.cursor - t.start
