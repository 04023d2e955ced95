(* Header: { first : i64; record_words : i64 }
   First segment: { link : i64; capacity c : i64; records [c]... }
   Segment k >= 1: { link : i64; records [c * 2^(k-1)]... }
   Segment k >= 1 holds records [c * 2^(k-1), c * 2^k), so a vector of
   n segments holds c * 2^(n-1) records. A link word reads 0 until the
   next segment is linked. The header word is the only word a rewrite
   swaps; growth writes only the last link word. *)

type t = {
  heap : Pheap.t;
  header_off : int;
  record_words : int;
  (* [| c; segment 0; segment 1; ... |]: the first segment's capacity,
     then every segment's offset. Never modified in place: growth and
     rewrites publish a new array, so a reader holding an old one still
     finds every record it covers where it was. *)
  segs : int array Atomic.t;
}

let header_size = 16
let first_words = 2

let segment_bytes t ~k ~records =
  (8 * if k = 0 then first_words else 1) + (t.record_words * 8 * records)

let segments_capacity s = s.(0) lsl (Array.length s - 2)

(* Segment 0 holds records [0, c); segment k >= 1 holds [start, 2 * start)
   with start = c * 2^(k-1). Raises [Invalid_argument] past the last
   segment. *)
let rec seek s rw8 record k start =
  if record < 2 * start then s.(k + 1) + 8 + (rw8 * (record - start))
  else seek s rw8 record (k + 1) (2 * start)

let record_off t record =
  let s = Atomic.get t.segs in
  let c = s.(0) in
  let rw8 = t.record_words * 8 in
  if record < c then s.(1) + (8 * first_words) + (rw8 * record)
  else seek s rw8 record 1 c

(* A first segment of [capacity] records with its capacity word set.
   The block comes from [Alloc.alloc_zeroed], which makes it durable
   zero, so the caller persists only the capacity word and the records
   it writes after it. *)
let alloc_first t ~capacity =
  let off =
    Alloc.alloc_zeroed (Pheap.allocator t.heap)
      (segment_bytes t ~k:0 ~records:capacity)
  in
  Media.set_i64 (Pheap.media t.heap) (off + 8) capacity;
  off

let create heap ~record_words ~initial_capacity =
  if record_words <= 0 then invalid_arg "Pvector.create: record_words";
  if initial_capacity <= 0 then invalid_arg "Pvector.create: initial_capacity";
  let media = Pheap.media heap in
  let header_off = Alloc.alloc (Pheap.allocator heap) header_size in
  let t = { heap; header_off; record_words; segs = Atomic.make [||] } in
  let first = alloc_first t ~capacity:initial_capacity in
  Media.persist media (first + 8) 8;
  Media.set_i64 media header_off first;
  Media.set_i64 media (header_off + 8) record_words;
  Media.persist media header_off header_size;
  Atomic.set t.segs [| initial_capacity; first |];
  t

let attach heap header_off =
  if Pptr.is_null header_off then invalid_arg "Pvector.attach: null handle";
  let media = Pheap.media heap in
  let record_words = Media.get_i64 media (header_off + 8) in
  if record_words <= 0 then invalid_arg "Pvector.attach: corrupt header";
  let first = Media.get_i64 media header_off in
  let rec chain seg acc =
    let next = Media.get_i64 media seg in
    if Pptr.is_null next then List.rev acc else chain next (next :: acc)
  in
  let segs =
    Array.of_list (Media.get_i64 media (first + 8) :: chain first [ first ])
  in
  { heap; header_off; record_words; segs = Atomic.make segs }

let handle t = t.header_off
let record_words t = t.record_words
let capacity t = segments_capacity (Atomic.get t.segs)

(* Link one segment as large as the current capacity, doubling it: the
   segment comes durably zero from [Alloc.alloc_zeroed], the link word
   is persisted at once (even inside a batch scope), and only then is
   the new array published, so no record is written into a segment a
   crash could unlink. *)
let rec grow t wanted =
  let s = Atomic.get t.segs in
  let cap = segments_capacity s in
  if wanted > cap then begin
    let media = Pheap.media t.heap in
    let n = Array.length s - 1 in
    let seg =
      Alloc.alloc_zeroed (Pheap.allocator t.heap)
        (segment_bytes t ~k:n ~records:cap)
    in
    Media.set_i64 media s.(n) seg;
    Media.persist_now media s.(n) 8;
    let s' = Array.make (n + 2) seg in
    Array.blit s 0 s' 0 (n + 1);
    Atomic.set t.segs s';
    grow t wanted
  end

let free_segments t s =
  let alloc = Pheap.allocator t.heap in
  let c = s.(0) in
  for k = 0 to Array.length s - 2 do
    let records = if k = 0 then c else c lsl (k - 1) in
    Alloc.free alloc s.(k + 1) (segment_bytes t ~k ~records)
  done

let shrink_offline t ~capacity:c ~first ~keep =
  if c < 1 || first < 0 || keep < 0 || keep > c || first + keep > capacity t then
    invalid_arg "Pvector.shrink_offline";
  let media = Pheap.media t.heap in
  let old = Atomic.get t.segs in
  let rw8 = t.record_words * 8 in
  let seg = alloc_first t ~capacity:c in
  for i = 0 to keep - 1 do
    Media.write_bytes media
      (seg + (8 * first_words) + (rw8 * i))
      (Media.read_bytes media (record_off t (first + i)) rw8)
  done;
  Media.persist media (seg + 8) (8 + (rw8 * keep));
  Media.set_i64 media t.header_off seg;
  Media.persist media t.header_off 8;
  Atomic.set t.segs [| c; seg |];
  free_segments t old

let get_word t ~record ~word =
  Media.get_i64 (Pheap.media t.heap) (record_off t record + (8 * word))

let set_word t ~record ~word v =
  Media.set_i64 (Pheap.media t.heap) (record_off t record + (8 * word)) v

let get_record3 t ~record =
  let media = Pheap.media t.heap in
  let base = record_off t record in
  (Media.get_i64 media base, Media.get_i64 media (base + 8), Media.get_i64 media (base + 16))

let persist_record t ~record =
  Media.persist (Pheap.media t.heap) (record_off t record) (t.record_words * 8)

let persist_word t ~record ~word =
  Media.persist (Pheap.media t.heap) (record_off t record + (8 * word)) 8

let persist_before_word t ~record ~word =
  let off = record_off t record in
  Media.persist_before (Pheap.media t.heap) off ~commit:(off + (8 * word))

let free heap t =
  free_segments t (Atomic.get t.segs);
  Alloc.free (Pheap.allocator heap) t.header_off header_size
