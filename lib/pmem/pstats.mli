(** Persistence-cost accounting for a {!Media.t}.

    Real persistent memory makes writes durable only after an explicit
    cache-line flush ([clwb]/[clflushopt]) followed by a store fence. The
    number of flushed lines and fences is the dominant cost of persistence,
    so the substrate counts them; the machine model in [lib/sim] converts
    counts into simulated time. All counters are updated with atomics and
    may be read concurrently. *)

type t

val create : unit -> t

val record_flush : t -> lines:int -> unit
val record_fence : t -> unit

val record_flush_saved : t -> lines:int -> unit
(** Cache-line flushes a batch scope deduplicated away (several records
    sharing a line, flushed once at the batch barrier instead of per
    record). Mirrored as [pmem.flushes_saved]. No-op for [lines <= 0]. *)

val record_fence_saved : t -> count:int -> unit
(** Store fences coalesced into a single batch-epilogue fence. Mirrored
    as [pmem.fences_saved]. No-op for [count <= 0]. *)

val record_alloc : t -> bytes:int -> unit
val record_free : t -> bytes:int -> unit

val record_leak : t -> bytes:int -> unit
(** Bytes the allocator cannot recycle: a free range under its 16-byte
    minimum block, which only the last bytes of a full heap can leave.
    Mirrored into the registry as [pmem.leaked_bytes] so the leak shows
    up in [mvkv stats] and Prometheus exposition. *)

val flushed_lines : t -> int
val fences : t -> int
val flushes_saved : t -> int
val fences_saved : t -> int
val allocs : t -> int
val alloc_bytes : t -> int
val frees : t -> int
val live_bytes : t -> int
(** Allocated minus freed bytes. *)

val leaked_bytes : t -> int

val reset : t -> unit
val pp : Format.formatter -> t -> unit
