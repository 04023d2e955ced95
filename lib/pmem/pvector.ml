(* Segment k: { link : i64; records [segment_records k]... }
   Segment 0 holds records [0, 2) and segment k >= 1 holds
   [2^k, 2^(k+1)), so a vector of n segments holds 2^n records. A link
   word reads 0 until the next segment is linked. The vector's root is
   its first segment's offset, held in a word of its owner's (a
   key-chain slot's history word): the only word a rewrite swaps;
   growth writes only the last link word. *)

(* [| segment 0; segment 1; ... |]: every segment's offset. Never
   modified in place: growth and rewrites return a new array, so a
   reader holding an old one still finds every record it covers where
   it was. *)
type t = int array

let record_words = 3
let record_bytes = 8 * record_words

(* Segment k holds records [first_record k, 2^(k+1)): 2, 2, 4, 8, ... *)
let first_record k = (1 lsl k) land lnot 1
let segment_records k = (2 lsl k) - first_record k
let segment_bytes k = 8 + (record_bytes * segment_records k)

let capacity s = 1 lsl Array.length s
let root s = s.(0)

(* Raises [Invalid_argument] past the last segment. *)
let rec seek s record k =
  if record < 2 lsl k then s.(k) + 8 + (record_bytes * (record - first_record k))
  else seek s record (k + 1)

let record_off s record = seek s record 0

(* The first segment comes durably zero from [Alloc.alloc_zeroed], and
   an empty vector is all zero, so nothing is written: nothing can reach
   the vector before its owner persists the root word. *)
let create heap = [| Alloc.alloc_zeroed (Pheap.allocator heap) (segment_bytes 0) |]

(* [n] plus the segments linked after [seg]. *)
let rec count media seg n =
  let next = Media.get_i64 media seg in
  if Pptr.is_null next then n else count media next (n + 1)

(* One walk counts the segments, a second fills the array. *)
let attach heap first =
  if Pptr.is_null first then invalid_arg "Pvector.attach: null root";
  let media = Pheap.media heap in
  let s = Array.make (count media first 1) first in
  for k = 1 to Array.length s - 1 do
    s.(k) <- Media.get_i64 media s.(k - 1)
  done;
  s

(* Link one segment as large as the current capacity, doubling it: the
   segment comes durably zero from [Alloc.alloc_zeroed] and the link
   word is persisted at once (even inside a batch scope), before the
   caller can publish the new array, so no record is written into a
   segment a crash could unlink. *)
let rec grow heap s wanted =
  if wanted <= capacity s then s
  else begin
    let media = Pheap.media heap in
    let n = Array.length s in
    let seg = Alloc.alloc_zeroed (Pheap.allocator heap) (segment_bytes n) in
    Media.set_i64 media s.(n - 1) seg;
    Media.persist_now media s.(n - 1) 8;
    let s' = Array.make (n + 1) seg in
    Array.blit s 0 s' 0 n;
    grow heap s' wanted
  end

let free heap s =
  let alloc = Pheap.allocator heap in
  for k = 0 to Array.length s - 1 do
    Alloc.free alloc s.(k) (segment_bytes k)
  done

(* Segments [0, k] of the new chain [s'], last first, so that each
   links the one after it ([next]) when it is written: each is written
   whole, its kept records copied as their three words from [s], and
   persisted once. A fresh block is durable zero, so only its link
   word and kept records; a recycled one also gets its slots past the
   kept records zeroed, and is persisted whole. *)
let rec write_segments heap s s' ~first ~keep k next =
  if k >= 0 then begin
    let media = Pheap.media heap in
    let bytes = segment_bytes k in
    let block = Alloc.take (Pheap.allocator heap) bytes in
    let seg = Alloc.block block and lo = first_record k in
    let kept = Int.max 0 (Int.min keep (2 lsl k) - lo) in
    Media.set_i64 media seg next;
    for i = 0 to kept - 1 do
      let src = record_off s (first + lo + i) and dst = seg + 8 + (record_bytes * i) in
      for w = 0 to record_words - 1 do
        Media.set_i64 media (dst + (8 * w)) (Media.get_i64 media (src + (8 * w)))
      done
    done;
    if Alloc.recycled block then begin
      Media.zero media (seg + 8 + (record_bytes * kept)) (bytes - 8 - (record_bytes * kept));
      Media.persist media seg bytes
    end
    else Media.persist media seg (8 + (record_bytes * kept));
    s'.(k) <- seg;
    write_segments heap s s' ~first ~keep (k - 1) seg
  end

let rec segments_for c = if c <= 2 then 1 else 1 + segments_for (c lsr 1)

(* Every new segment is durable before the root swap, and the old
   chain stays allocated, so the caller can still read it after the
   swap. *)
let shrink_offline heap ~root_word s ~capacity:c ~first ~keep =
  if c < 2 || c land (c - 1) <> 0 || first < 0 || keep < 0 || keep > c
     || first + keep > capacity s
  then invalid_arg "Pvector.shrink_offline";
  let s' = Array.make (segments_for c) Pptr.null in
  write_segments heap s s' ~first ~keep (Array.length s' - 1) Pptr.null;
  let media = Pheap.media heap in
  Media.set_i64 media root_word s'.(0);
  Media.persist media root_word 8;
  s'

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
  for k = 0 to Array.length s - 1 do
    Alloc.mark marks s.(k) (segment_bytes k)
  done

let iter_records s f =
  for k = 0 to Array.length s - 1 do
    for i = 0 to segment_records k - 1 do
      f (s.(k) + 8 + (record_bytes * i))
    done
  done
