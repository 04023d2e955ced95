(** Persistent block allocator.

    Sits directly above {!Media.t} and hands out 8-byte-aligned blocks.
    Only one allocator word is persisted: a {e reservation} R. Every
    block handed out lies below R, so memory at or above R is durable
    zero. The rest of the state lives in DRAM, as in Makalu and Ralloc:

    - a cursor below R cuts fresh blocks; when a block would come
      within 16 bytes of R, R moves {!reservation_chunk} bytes past it,
      persisted at once ({!Media.persist_now}) before the block is
      handed out, even inside a {!Media.with_batch} scope;
    - freed blocks go to per-size-class free lists, and oversized ones
      (beyond the largest class) to a first-fit list keyed by their
      8-byte-aligned size; a split remainder goes back on the lists, and
      a class request whose list is empty splits an oversized block
      before it cuts fresh memory.

    So [alloc]/[free] pairs persist nothing, and a crash cannot corrupt
    a free list: there is none on the media. After a restart {!attach}
    starts the cursor at R with empty lists, which leaks [\[start, R)]
    until {!rebuild} returns to the lists every part of it that a walk
    from the caller's roots did not {!mark}: free blocks, blocks a crash
    cut but never linked, and the unused tail below R.

    Thread-safe: a single internal mutex serialises allocation. The hot
    paths of the store above avoid the allocator (inline values,
    block-chain slot claims), exactly as the paper's design intends. *)

type t

val size_classes : int array
(** Block sizes served from free lists; larger requests are rounded up to
    a multiple of 8 and served from the oversized first-fit list. *)

val header_size : int
(** Bytes reserved at [base_off] for allocator state (R and the end of
    the heap range). *)

val reservation_chunk : int
(** How far past the cursor an extension moves R: 64 KiB, or a sixteenth
    of the heap range in heaps under 1 MiB. At most one persisted word
    per chunk of fresh blocks. *)

val format : Media.t -> base_off:int -> heap_end:int -> t
(** Initialise allocator state on a fresh media. Blocks are served from
    [\[base_off + header_size, heap_end)], which must read zero, durably:
    {!alloc_zeroed} relies on memory at or above the cursor, and so at
    or above R, being durable zero. Fresh media are ({!Media.create_ram}
    zero-fills, and {!Media.create_file} makes a sparse, zero-filled
    file). *)

val attach : Media.t -> base_off:int -> t
(** Recover an allocator formatted by {!format} (after restart or crash):
    the cursor starts at the persisted R, and the free lists are empty
    until {!rebuild}. *)

val retire : t -> unit
(** Any later {!alloc}, {!free} or {!rebuild} on this handle raises
    [Invalid_argument]. {!Pheap.reopen} retires the handle it replaces:
    two live allocators on one media would hand out the same block. *)

val alloc : t -> int -> Pptr.t
(** [alloc t size] returns a block of at least [size] bytes. The block
    contents are NOT zeroed (recycled blocks carry stale bytes).
    @raise Out_of_memory when the heap range is exhausted. *)

val alloc_zeroed : t -> int -> Pptr.t
(** Like {!alloc} but the block reads zero, durably. A fresh block (cut
    at the cursor) is durable zero already and costs no write or flush;
    only a block recycled from a free list is zero-filled and persisted,
    at once even inside a {!Media.with_batch} scope
    ({!Media.persist_now}), so the caller may persist a link to the
    block at once too. *)

val take : t -> int -> Pptr.t * bool
(** Like {!alloc}, and whether the block was recycled: [false] for a
    fresh block, which reads durable zero; [true] for one off a free
    list, which may hold stale bytes. For a caller that writes most of
    the block anyway and zeroes only the rest. *)

val free : t -> Pptr.t -> int -> unit
(** [free t ptr size] recycles a block previously returned by [alloc t
    size]: a DRAM push, with nothing written to the media. *)

(** {1 Rebuild at open} *)

type marks
(** A bitmap of one bit per 8-byte word over the range a {!rebuild}
    sweeps: [\[start, R)] as read at {!attach}. *)

val marks : t -> marks
(** An empty bitmap over the range this handle has not swept yet (an
    empty one after {!rebuild} or {!format}). *)

val mark : marks -> Pptr.t -> int -> unit
(** [mark m ptr size] records the block that [alloc t size] returned at
    [ptr] as live. Idempotent; blocks outside the bitmap's range are
    ignored. One domain marks a bitmap: neighbouring blocks share its
    bytes. *)

val rebuild : t -> marks -> unit
(** Return every maximal unmarked run of the bitmap's range to the free
    lists, so neighbouring dead blocks coalesce; runs past the largest
    class go to the oversized list whole. Records no free in {!Pstats}
    (the bytes were never counted live in this process), but adds the
    bytes to the [pmem.rebuild.free_bytes] registry counter and the
    time since {!marks} to the [pmem.rebuild.ns] histogram. Only blocks
    the caller marked may be freed between {!marks} and [rebuild]. Once
    per handle: a later call, or one with a bitmap from before an
    earlier rebuild, does nothing. *)

val free_blocks : t -> (Pptr.t * int) list
(** Every block on a free list with its size in bytes, by offset (test
    hook). *)

(** {1 Geometry} *)

val start : t -> int
(** First byte of the heap range. *)

val reservation : t -> int
(** The persisted reservation R. *)

val used_bytes : t -> int
(** Bytes between the start of the heap range and the cursor. *)
