let record_words = 3
let initial_capacity = 2

module Backend = struct
  type t = Pmem.Pvector.t
  type value = int

  let marker = Codec.marker_word
  let is_marker = Codec.is_marker
  let capacity = Pmem.Pvector.capacity
  let ensure v n = Pmem.Pvector.grow v n

  (* The stamp (word 2) is the record's commit word: version and an
     inline value are persisted only where they lie on an earlier line
     than the stamp, and otherwise become durable with the stamp's line.
     A blob pointer is persisted before the stamp wherever it lies, so
     recovery can free the blob of a record that a crash left unstamped. *)
  let write_entry v slot ~version word =
    Pmem.Pvector.set_word v ~record:slot ~word:0 version;
    Pmem.Pvector.set_word v ~record:slot ~word:1 word;
    if Codec.is_blob word then Pmem.Pvector.persist_record v ~record:slot
    else Pmem.Pvector.persist_before_word v ~record:slot ~word:2

  let read_version v slot = Pmem.Pvector.get_word v ~record:slot ~word:0

  let set_finished v slot stamp =
    Pmem.Pvector.set_word v ~record:slot ~word:2 stamp;
    Pmem.Pvector.persist_word v ~record:slot ~word:2

  let read_entry v slot = Pmem.Pvector.get_record3 v ~record:slot
end

module H = Lazy_tail.Make (Backend)

type t = H.t

let create heap =
  H.wrap (Pmem.Pvector.create heap ~record_words ~initial_capacity) ~length:0

let handle t = Pmem.Pvector.handle (H.backend t)
let destroy heap t = Pmem.Pvector.free heap (H.backend t)

let scan_persisted heap hist_handle =
  let v = Pmem.Pvector.attach heap hist_handle in
  let cap = Pmem.Pvector.capacity v in
  let rec collect slot acc =
    if slot >= cap then List.rev acc
    else begin
      let version, word, stamp = Pmem.Pvector.get_record3 v ~record:slot in
      if stamp = 0 then List.rev acc
      else collect (slot + 1) ((version, word, stamp) :: acc)
    end
  in
  Array.of_list (collect 0 [])

let mark_persisted heap hist_handle marks ~stamp =
  let media = Pmem.Pheap.media heap in
  let v = Pmem.Pvector.attach heap hist_handle in
  Pmem.Pvector.mark v marks;
  let prefix = ref true in
  Pmem.Pvector.iter_records v (fun off ->
      let s = Pmem.Media.get_i64 media (off + 16) in
      if s = 0 then prefix := false else if !prefix then stamp s;
      Codec.mark_word heap marks (Pmem.Media.get_i64 media (off + 8)))

(* The capacity growth reaches for [n] records: doubling from the
   initial capacity. *)
let right_size n =
  let rec fit c = if c >= n then c else fit (c * 2) in
  fit initial_capacity

let drop_prefix t ~first =
  let v = H.backend t in
  let keep = H.pending_length t - first in
  let capacity = right_size keep in
  if first > 0 || capacity < Pmem.Pvector.capacity v then begin
    Pmem.Pvector.shrink_offline v ~capacity ~first ~keep;
    H.reset_offline t ~length:keep
  end

let attach_pruned heap hist_handle ~fc =
  let v = Pmem.Pvector.attach heap hist_handle in
  let cap = Pmem.Pvector.capacity v in
  (* Keep the longest prefix of slots whose stamps are contiguous,
     non-zero and <= fc; zero out everything beyond it so the slots can
     be reclaimed by future appends. *)
  let rec prefix slot =
    if slot >= cap then slot
    else begin
      let _, _, stamp = Pmem.Pvector.get_record3 v ~record:slot in
      if stamp = 0 || stamp > fc then slot else prefix (slot + 1)
    end
  in
  let keep = prefix 0 in
  let max_version = ref 0 in
  for slot = 0 to keep - 1 do
    let version, _, _ = Pmem.Pvector.get_record3 v ~record:slot in
    if version > !max_version then max_version := version
  done;
  for slot = keep to cap - 1 do
    let version, word, stamp = Pmem.Pvector.get_record3 v ~record:slot in
    if version <> 0 || stamp <> 0 || word <> 0 then begin
      (* Pruned entry: release a blob it may have allocated, then clear. *)
      Codec.free_word heap word;
      Pmem.Pvector.set_word v ~record:slot ~word:0 0;
      Pmem.Pvector.set_word v ~record:slot ~word:1 0;
      Pmem.Pvector.set_word v ~record:slot ~word:2 0;
      Pmem.Pvector.persist_record v ~record:slot
    end
  done;
  (H.wrap v ~length:keep, !max_version)
