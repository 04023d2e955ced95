(* First segment: { link : i64; capacity c : i64; records [c]... }
   Segment k >= 1: { link : i64; records [c * 2^(k-1)]... }
   Segment k >= 1 holds records [c * 2^(k-1), c * 2^k), so a vector of
   n segments holds c * 2^(n-1) records. A link word reads 0 until the
   next segment is linked. The vector's root is its first segment's
   offset, held in a word of its owner's (a key-chain slot's history
   word): the only word a rewrite swaps; growth writes only the last
   link word. *)

(* [| c; segment 0; segment 1; ... |]: the first segment's capacity,
   then every segment's offset. Never modified in place: growth and
   rewrites return a new array, so a reader holding an old one still
   finds every record it covers where it was. *)
type t = int array

let record_words = 3
let record_bytes = 8 * record_words
let first_words = 2

let segment_bytes ~k ~records =
  (8 * if k = 0 then first_words else 1) + (record_bytes * records)

let capacity s = s.(0) lsl (Array.length s - 2)
let root s = s.(1)

(* Records of segment [k] of a segment array. *)
let segment_records s k = if k = 0 then s.(0) else s.(0) lsl (k - 1)

(* Segment 0 holds records [0, c); segment k >= 1 holds [start, 2 * start)
   with start = c * 2^(k-1). Raises [Invalid_argument] past the last
   segment. *)
let rec seek s record k start =
  if record < 2 * start then s.(k + 1) + 8 + (record_bytes * (record - start))
  else seek s record (k + 1) (2 * start)

let record_off s record =
  let c = s.(0) in
  if record < c then s.(1) + (8 * first_words) + (record_bytes * record)
  else seek s record 1 c

(* The first segment comes durably zero from [Alloc.alloc_zeroed], so
   only its capacity word is written and persisted: nothing can reach
   the vector before its owner persists the root word, which the fence
   orders after it. *)
let create heap ~initial_capacity =
  if initial_capacity <= 0 then invalid_arg "Pvector.create: initial_capacity";
  let media = Pheap.media heap in
  let first =
    Alloc.alloc_zeroed (Pheap.allocator heap) (segment_bytes ~k:0 ~records:initial_capacity)
  in
  Media.set_i64 media (first + 8) initial_capacity;
  Media.persist media (first + 8) 8;
  [| initial_capacity; first |]

let attach heap first =
  if Pptr.is_null first then invalid_arg "Pvector.attach: null root";
  let media = Pheap.media heap in
  let c = Media.get_i64 media (first + 8) in
  if c <= 0 then invalid_arg "Pvector.attach: corrupt first segment";
  let rec chain seg acc =
    let next = Media.get_i64 media seg in
    if Pptr.is_null next then List.rev acc else chain next (next :: acc)
  in
  Array.of_list (c :: chain first [ first ])

(* Link one segment as large as the current capacity, doubling it: the
   segment comes durably zero from [Alloc.alloc_zeroed] and the link
   word is persisted at once (even inside a batch scope), before the
   caller can publish the new array, so no record is written into a
   segment a crash could unlink. *)
let rec grow heap s wanted =
  let cap = capacity s in
  if wanted <= cap then s
  else begin
    let media = Pheap.media heap in
    let n = Array.length s - 1 in
    let seg =
      Alloc.alloc_zeroed (Pheap.allocator heap) (segment_bytes ~k:n ~records:cap)
    in
    Media.set_i64 media s.(n) seg;
    Media.persist_now media s.(n) 8;
    let s' = Array.make (n + 2) seg in
    Array.blit s 0 s' 0 (n + 1);
    grow heap s' wanted
  end

let free heap s =
  let alloc = Pheap.allocator heap in
  for k = 0 to Array.length s - 2 do
    Alloc.free alloc s.(k + 1) (segment_bytes ~k ~records:(segment_records s k))
  done

(* The new segment is written whole, each kept record copied as its
   three words, before one persist: a fresh block is durable zero, so
   only its capacity word and the kept records need it; a recycled one
   also gets its link word and the slots past the kept records zeroed,
   and is persisted whole. The old chain stays allocated, so the caller
   can still read it after the swap. *)
let shrink_offline heap ~root_word s ~capacity:c ~first ~keep =
  if c < 1 || first < 0 || keep < 0 || keep > c || first + keep > capacity s then
    invalid_arg "Pvector.shrink_offline";
  let media = Pheap.media heap in
  let bytes = segment_bytes ~k:0 ~records:c in
  let seg, recycled = Alloc.take (Pheap.allocator heap) bytes in
  let records = seg + (8 * first_words) in
  Media.set_i64 media (seg + 8) c;
  for i = 0 to keep - 1 do
    let src = record_off s (first + i) and dst = records + (record_bytes * i) in
    for w = 0 to record_words - 1 do
      Media.set_i64 media (dst + (8 * w)) (Media.get_i64 media (src + (8 * w)))
    done
  done;
  if recycled then begin
    Media.set_i64 media seg Pptr.null;
    Media.zero media (records + (record_bytes * keep)) (record_bytes * (c - keep));
    Media.persist media seg bytes
  end
  else Media.persist media (seg + 8) (8 + (record_bytes * keep));
  Media.set_i64 media root_word seg;
  Media.persist media root_word 8;
  [| c; seg |]

let get_word heap s ~record ~word =
  Media.get_i64 (Pheap.media heap) (record_off s record + (8 * word))

let set_word heap s ~record ~word v =
  Media.set_i64 (Pheap.media heap) (record_off s record + (8 * word)) v

let persist_record heap s ~record =
  Media.persist (Pheap.media heap) (record_off s record) record_bytes

let persist_word heap s ~record ~word =
  Media.persist (Pheap.media heap) (record_off s record + (8 * word)) 8

let persist_before_word heap s ~record ~word =
  let off = record_off s record in
  Media.persist_before (Pheap.media heap) off ~commit:(off + (8 * word))

let mark s marks =
  for k = 0 to Array.length s - 2 do
    Alloc.mark marks s.(k + 1) (segment_bytes ~k ~records:(segment_records s k))
  done

let iter_records s f =
  for k = 0 to Array.length s - 2 do
    let base = s.(k + 1) + (8 * if k = 0 then first_words else 1) in
    for i = 0 to segment_records s k - 1 do
      f (base + (record_bytes * i))
    done
  done
