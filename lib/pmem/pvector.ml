(* Header: { buf : i64; record_words : i64 }
   Buffer: { capacity_records : i64; records... }
   The buffer pointer is the only mutable header word; swapping it
   publishes the new capacity and contents together. *)

type t = {
  heap : Pheap.t;
  media : Media.t;
  header_off : int;
  record_words : int;
}

let header_size = 16
let buffer_bytes ~record_words ~capacity = 8 + (record_words * 8 * capacity)

(* A durable buffer of [capacity] records whose first [keep] are copied
   from [src] and the rest are zero. The block comes from
   [Alloc.alloc_zeroed], which makes it durable zero, so only the
   capacity word and the copied records are persisted here. *)
let alloc_buffer t ~capacity ~src ~keep =
  let off =
    Alloc.alloc_zeroed (Pheap.allocator t.heap)
      (buffer_bytes ~record_words:t.record_words ~capacity)
  in
  Media.set_i64 t.media off capacity;
  let payload = t.record_words * 8 * keep in
  if payload > 0 then
    Media.write_bytes t.media (off + 8) (Media.read_bytes t.media (src + 8) payload);
  Media.persist t.media off (8 + payload);
  off

let create heap ~record_words ~initial_capacity =
  if record_words <= 0 then invalid_arg "Pvector.create: record_words";
  if initial_capacity <= 0 then invalid_arg "Pvector.create: initial_capacity";
  let media = Pheap.media heap in
  let header_off = Alloc.alloc (Pheap.allocator heap) header_size in
  let t = { heap; media; header_off; record_words } in
  let buf = alloc_buffer t ~capacity:initial_capacity ~src:Pptr.null ~keep:0 in
  Media.set_i64 media header_off buf;
  Media.set_i64 media (header_off + 8) record_words;
  Media.persist media header_off header_size;
  t

let attach heap header_off =
  if Pptr.is_null header_off then invalid_arg "Pvector.attach: null handle";
  let media = Pheap.media heap in
  let record_words = Media.get_i64 media (header_off + 8) in
  if record_words <= 0 then invalid_arg "Pvector.attach: corrupt header";
  { heap; media; header_off; record_words }

let handle t = t.header_off
let record_words t = t.record_words
let buf_off t = Media.get_i64 t.media t.header_off
let capacity t = Media.get_i64 t.media (buf_off t)

let grow t wanted =
  let old_buf = buf_off t in
  let old_capacity = Media.get_i64 t.media old_buf in
  if wanted > old_capacity then begin
    let new_capacity =
      let rec double c = if c >= wanted then c else double (c * 2) in
      double (max 1 old_capacity)
    in
    let new_buf =
      alloc_buffer t ~capacity:new_capacity ~src:old_buf ~keep:old_capacity
    in
    Media.set_i64 t.media t.header_off new_buf;
    Media.persist t.media t.header_off 8;
    (* The old buffer is quarantined, not freed, so concurrent readers
       that already loaded it stay valid; the heap's quiesced GC drains
       the quarantine once no reader can hold the pointer. *)
    Pheap.quarantine_block t.heap ~off:old_buf
      ~size:(buffer_bytes ~record_words:t.record_words ~capacity:old_capacity)
  end

let shrink_offline t ~capacity ~keep =
  if capacity <= 0 then invalid_arg "Pvector.shrink_offline: capacity";
  if keep < 0 || keep > capacity then invalid_arg "Pvector.shrink_offline: keep";
  let old_buf = buf_off t in
  let old_capacity = Media.get_i64 t.media old_buf in
  if capacity < old_capacity then begin
    let new_buf = alloc_buffer t ~capacity ~src:old_buf ~keep in
    (* Same publication point as growth: the header swap. A crash in
       between orphans the new buffer; after it, the old one — either
       way a bounded leak, never a torn vector. *)
    Media.set_i64 t.media t.header_off new_buf;
    Media.persist t.media t.header_off 8;
    Alloc.free (Pheap.allocator t.heap) old_buf
      (buffer_bytes ~record_words:t.record_words ~capacity:old_capacity)
  end

let record_off t record =
  buf_off t + 8 + (t.record_words * 8 * record)

let get_word t ~record ~word =
  Media.get_i64 t.media (record_off t record + (8 * word))

let set_word t ~record ~word v =
  Media.set_i64 t.media (record_off t record + (8 * word)) v

let get_record3 t ~record =
  (* One buf_off read -> all three words come from the same buffer. *)
  let base = buf_off t + 8 + (t.record_words * 8 * record) in
  ( Media.get_i64 t.media base,
    Media.get_i64 t.media (base + 8),
    Media.get_i64 t.media (base + 16) )

let persist_record t ~record =
  Media.persist t.media (record_off t record) (t.record_words * 8)

let persist_word t ~record ~word =
  Media.persist t.media (record_off t record + (8 * word)) 8

let persist_before_word t ~record ~word =
  let off = record_off t record in
  Media.persist_before t.media off ~commit:(off + (8 * word))

let free heap t =
  let buf = buf_off t in
  let cap = Media.get_i64 t.media buf in
  Alloc.free (Pheap.allocator heap) buf
    (buffer_bytes ~record_words:t.record_words ~capacity:cap);
  Alloc.free (Pheap.allocator heap) t.header_off header_size
