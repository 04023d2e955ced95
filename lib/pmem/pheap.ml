(* Layout:
     +0    magic
     +8    layout version
     +16   capacity at format time
     +24   root slots (16 words)
     +192  allocator header, then the allocatable range. *)

let magic = 0x4d564b565f504d00 land max_int (* "MVKV_PM" *)

(* Version 2 widened the allocator header with the oversized free-list
   head word; version-1 pools place the first allocated block where the
   new head word lives, so they are not readable under version 2.
   Version 3 stores a history as a chain of segments ({!Pvector}), whose
   first segment leads with a link word where a version-2 buffer kept
   its capacity. Version 4 persists no free lists ({!Alloc}): its
   allocator header is a reservation and the heap's end, and a pool's
   free space is rebuilt from its roots at open; a version-3 pool keeps
   a bump pointer and persisted free-list heads there. Version 5 roots a
   history at its key-chain slot, whose history word points at the first
   segment; a version-4 slot points at a header that points at it.
   Version 6 pools always hold the compaction horizon beside the stamp
   floor (root slots 1 and 2, written together); a version-5 pool may
   hold a floor alone, which a build that recorded no horizon left. *)
let layout_version = 6
let root_slots = 16
let roots_off = 24
let alloc_base = 192

type t = { media : Media.t; alloc : Alloc.t }

let create media =
  let capacity = Media.capacity media in
  if capacity < alloc_base + Alloc.header_size + 64 then
    invalid_arg "Pheap.create: media too small";
  Media.set_i64 media 8 layout_version;
  Media.set_i64 media 16 capacity;
  for i = 0 to root_slots - 1 do
    Media.set_i64 media (roots_off + (8 * i)) Pptr.null
  done;
  let alloc = Alloc.format media ~base_off:alloc_base ~heap_end:capacity in
  Media.persist media 8 (alloc_base - 8);
  (* The magic is persisted last: a heap is valid only once fully formatted. *)
  Media.set_i64 media 0 magic;
  Media.persist media 0 8;
  { media; alloc }

let open_existing media =
  if Media.get_i64 media 0 <> magic then
    invalid_arg "Pheap.open_existing: bad magic (not a formatted heap)";
  if Media.get_i64 media 8 <> layout_version then
    invalid_arg "Pheap.open_existing: unsupported layout version";
  let alloc = Alloc.attach media ~base_off:alloc_base in
  { media; alloc }

let create_ram ?crash_sim ~capacity () =
  create (Media.create_ram ?crash_sim ~capacity ())

let create_file ~path ~capacity = create (Media.create_file ~path ~capacity)
let open_file ~path = open_existing (Media.open_file ~path)
let reopen t =
  let t' = open_existing t.media in
  Alloc.retire t.alloc;
  t'
let media t = t.media
let allocator t = t.alloc
let stats t = Media.stats t.media

let check_slot i =
  if i < 0 || i >= root_slots then invalid_arg "Pheap: root slot out of range"

let root_get t i =
  check_slot i;
  Media.get_i64 t.media (roots_off + (8 * i))

let roots_set t i ptrs =
  List.iteri
    (fun j ptr ->
      check_slot (i + j);
      Media.set_i64 t.media (roots_off + (8 * (i + j))) ptr)
    ptrs;
  Media.persist t.media (roots_off + (8 * i)) (8 * List.length ptrs)

let root_set t i ptr = roots_set t i [ ptr ]

let close t = Media.close t.media
