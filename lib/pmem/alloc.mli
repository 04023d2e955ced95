(** Persistent block allocator.

    Sits directly above {!Media.t} and hands out 8-byte-aligned blocks.
    The design follows PMDK's allocator in spirit but is simplified:

    - a persisted bump pointer serves fresh blocks;
    - freed blocks go to per-size-class free lists (persisted, intrusive:
      the first word of a free block links to the next);
    - oversized blocks (beyond the largest size class) go to a persisted
      first-fit free list keyed by their 8-byte-aligned size; splitting a
      larger block recycles the remainder through the class lists;
    - allocation metadata is persisted before a block is handed out,
      even inside a {!Media.with_batch} scope ({!Media.persist_now}),
      so a crash can at worst {e leak} blocks, never double-allocate
      them (leaks are reclaimable offline; PMDK makes the same trade
      under [POBJ_XALLOC_NO_FLUSH]).

    Thread-safe: a single internal mutex serialises allocation, mirroring
    the internal locking of real persistent allocators. The hot paths of
    the store above avoid the allocator (inline values, block-chain slot
    claims), exactly as the paper's design intends. *)

type t

val size_classes : int array
(** Block sizes served from free lists; larger requests are rounded up to
    a multiple of 8 and served from the oversized first-fit list. *)

val header_size : int
(** Bytes reserved at [base_off] for allocator state. *)

val format : Media.t -> base_off:int -> heap_end:int -> t
(** Initialise allocator state on a fresh media. Blocks are served from
    [\[base_off + header_size, heap_end)], which must read zero, durably:
    {!alloc_zeroed} relies on memory at or above the bump pointer being
    durable zero. Fresh media are ({!Media.create_ram} zero-fills, and
    {!Media.create_file} makes a sparse, zero-filled file). The bump
    pointer is persisted before the block it cuts is handed out, so no
    write to a handed-out block can land at or above it. *)

val attach : Media.t -> base_off:int -> t
(** Recover allocator state persisted by {!format} from an existing
    media (after restart or crash). *)

val alloc : t -> int -> Pptr.t
(** [alloc t size] returns a block of at least [size] bytes. The block
    contents are NOT zeroed (recycled blocks carry stale bytes).
    @raise Out_of_memory when the heap range is exhausted. *)

val alloc_zeroed : t -> int -> Pptr.t
(** Like {!alloc} but the block reads zero, durably. A fresh block (cut
    at the bump pointer) is durable zero already and costs no write or
    flush; only a block recycled from a free list is zero-filled and
    persisted, at once even inside a {!Media.with_batch} scope
    ({!Media.persist_now}), so the caller may persist a link to the
    block at once too. *)

val free : t -> Pptr.t -> int -> unit
(** [free t ptr size] recycles a block previously returned by [alloc t
    size]. Size-class requests go back on their class list; oversized
    blocks go on the oversized first-fit list and are reused by later
    oversized allocations (exact match, or split with the remainder
    recycled). Only sub-16-byte scraps left over from splitting are
    genuinely unrecyclable; those are counted in [Pstats.leaked_bytes] /
    the [pmem.leaked_bytes] registry counter. *)

val used_bytes : t -> int
(** Bytes between the start of the heap range and the bump pointer. *)

val remaining_bytes : t -> int
