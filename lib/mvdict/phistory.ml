let initial_capacity = 2

module Backend = struct
  type store = Pmem.Pheap.t
  type handle = Pmem.Pptr.t
  type segs = Pmem.Pvector.t
  type value = int

  let capacity = Pmem.Pvector.capacity
  let grow = Pmem.Pvector.grow

  (* The stamp (word 2) is the record's commit word: version and an
     inline value are persisted only where they lie on an earlier line
     than the stamp, and otherwise become durable with the stamp's line.
     A blob pointer is persisted before the stamp wherever it lies, so
     recovery can free the blob of a record that a crash left unstamped. *)
  let write_entry heap s slot ~version word =
    Pmem.Pvector.set_word heap s ~record:slot ~word:0 version;
    Pmem.Pvector.set_word heap s ~record:slot ~word:1 word;
    if Codec.is_blob word then Pmem.Pvector.persist_record heap s ~record:slot
    else Pmem.Pvector.persist_before_word heap s ~record:slot ~word:2

  let read_version heap s slot = Pmem.Pvector.get_word heap s ~record:slot ~word:0
  let read_value heap s slot = Pmem.Pvector.get_word heap s ~record:slot ~word:1
  let read_stamp heap s slot = Pmem.Pvector.get_word heap s ~record:slot ~word:2

  let set_finished heap s slot stamp =
    Pmem.Pvector.set_word heap s ~record:slot ~word:2 stamp;
    Pmem.Pvector.persist_word heap s ~record:slot ~word:2
end

module H = Lazy_tail.Make (Backend)

type t = H.t

let create heap ~chain_slot =
  H.wrap chain_slot (Pmem.Pvector.create heap ~initial_capacity) ~length:0

let chain_slot = H.handle
let root t = Pmem.Pvector.root (H.segs t)
let destroy heap t = Pmem.Pvector.free heap (H.segs t)

let mark_persisted heap root marks ~stamp =
  let media = Pmem.Pheap.media heap in
  let s = Pmem.Pvector.attach heap root in
  Pmem.Pvector.mark s marks;
  Pmem.Pvector.iter_records s (fun off ->
      let st = Pmem.Media.get_i64 media (off + 16) in
      if st <> 0 then stamp st;
      Codec.mark_word heap marks (Pmem.Media.get_i64 media (off + 8)))

(* The capacity growth reaches for [n] records: doubling from [c], the
   initial capacity. Top-level, so that a pass asks it of every key
   without allocating a closure. *)
let rec right_size n c = if c >= n then c else right_size n (c * 2)

(* The value blobs of records [0, n) of a segment array, read in
   place. *)
let free_blobs heap s n =
  for slot = 0 to n - 1 do
    Codec.free_word heap (Pmem.Pvector.get_word heap s ~record:slot ~word:1)
  done

let drop_prefix heap t ~first =
  let s = H.segs t in
  let keep = H.pending_length t - first in
  let capacity = right_size keep initial_capacity in
  if first > 0 || capacity < Pmem.Pvector.capacity s then begin
    H.reset_offline t
      (Pmem.Pvector.shrink_offline heap
         ~root_word:(Pmem.Pblockchain.history_word (H.handle t))
         s ~capacity ~first ~keep)
      ~length:keep;
    free_blobs heap s first;
    Pmem.Pvector.free heap s
  end

let release heap chain t =
  Codec.free_word heap (Pmem.Pblockchain.clear chain (H.handle t));
  free_blobs heap (H.segs t) (H.pending_length t);
  destroy heap t

let attach_pruned heap ~chain_slot root ~fc =
  let s = Pmem.Pvector.attach heap root in
  let word slot w = Pmem.Pvector.get_word heap s ~record:slot ~word:w in
  let cap = Pmem.Pvector.capacity s in
  (* Keep the longest prefix of slots whose stamps are contiguous,
     non-zero and <= fc; zero out everything beyond it so the slots can
     be reclaimed by future appends. *)
  let rec prefix slot =
    if slot >= cap then slot
    else begin
      let stamp = word slot 2 in
      if stamp = 0 || stamp > fc then slot else prefix (slot + 1)
    end
  in
  let keep = prefix 0 in
  let max_version = ref 0 in
  for slot = 0 to keep - 1 do
    max_version := max !max_version (word slot 0)
  done;
  for slot = keep to cap - 1 do
    let value = word slot 1 in
    if word slot 0 <> 0 || word slot 2 <> 0 || value <> 0 then begin
      (* Pruned entry: release a blob it may have allocated, then clear. *)
      Codec.free_word heap value;
      for w = 0 to 2 do
        Pmem.Pvector.set_word heap s ~record:slot ~word:w 0
      done;
      Pmem.Pvector.persist_record heap s ~record:slot
    end
  done;
  (H.wrap chain_slot s ~length:keep, !max_version)
