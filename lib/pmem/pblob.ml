(* Layout: { len : i64; bytes } — the length word is persisted after the
   payload so a torn write can never expose a partially written blob with
   a plausible length. *)

let footprint len = 8 + Pptr.align8 len

let write heap data =
  let len = Bytes.length data in
  let off = Alloc.alloc (Pheap.allocator heap) (footprint len) in
  let m = Pheap.media heap in
  Media.write_bytes m (off + 8) data;
  Media.persist m (off + 8) (max len 1);
  Media.set_i64 m off len;
  Media.persist m off 8;
  off

let length media off =
  if Pptr.is_null off then invalid_arg "Pblob.length: null pointer";
  Media.get_i64 media off

let read media off =
  let len = length media off in
  Media.read_bytes media (off + 8) len

let mark media marks off = Alloc.mark marks off (footprint (length media off))

let free heap off =
  let len = length (Pheap.media heap) off in
  Alloc.free (Pheap.allocator heap) off (footprint len)
