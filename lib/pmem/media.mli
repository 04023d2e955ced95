(** Byte-addressable persistent-memory device emulation.

    This is the bottom of the substrate that replaces Intel PMDK's mapped
    persistent memory. A media is one word-addressed buffer of bytes
    addressed by offsets: RAM (volatile, optionally with crash
    simulation) or a memory-mapped file (survives process restart, like
    the paper's [/dev/shm] PMDK pool). Both kinds share every access and
    durability path.

    Durability model: a store becomes durable only once the cache lines
    covering it have been {!persist}ed — a flush of those lines followed
    by a store fence, exactly the [clwb + sfence] discipline of real
    persistent memory. The line ({!cache_line}) is the unit: a flush
    makes a whole line durable at once, and stores by one domain to one
    line reach it in program order. In [crash_sim:true] mode the media
    keeps a shadow "durable image": {!simulate_crash} discards every
    write that was not flushed, which is how the test suite proves crash
    consistency of the layouts above. Flushes copy whole lines into the
    shadow, a word at a time, under one lock per media, so domains
    flushing neighbouring words of a line never drop each other's.

    Concurrency: distinct byte ranges may be written by different domains
    concurrently. Same-word racing accesses must be coordinated by the
    caller (the structures above use ephemeral atomics for that, as the
    paper does). *)

type t

val cache_line : int
(** Durability granularity in bytes (64, as on Optane). *)

val create_ram : ?crash_sim:bool -> capacity:int -> unit -> t
(** Volatile backing of [capacity] bytes, zero-initialised. With
    [crash_sim] a durable shadow image is maintained by every flush. *)

val create_file : path:string -> capacity:int -> t
(** Create (truncating) a file-backed media of [capacity] bytes. Takes
    an exclusive lock on the file first, as {!open_file} does.
    @raise Sys_error ["locked by another process"] if another process
    holds the file open as a media; the file is then left as it was. *)

val open_file : path:string -> t
(** Map an existing file-backed media; capacity is the file size. Takes
    an exclusive lock on the file ([Unix.lockf]): one process per pool,
    because the allocator's free lists live in that process's DRAM
    ({!Alloc}). {!close} drops the lock, and so does the kernel when the
    process exits, killed or not. The lock is per process: the same
    process may open a file twice, and closing either drops it.
    @raise Sys_error ["locked by another process"] if another process
    holds it. *)

val close : t -> unit
(** Drop a file-backed media's lock and close its file. RAM media:
    no-op. *)

val capacity : t -> int
val stats : t -> Pstats.t

(** {1 Typed accessors} — offsets are byte offsets; int64 accessors require
    8-byte alignment (checked by assertion). *)

val get_i64 : t -> int -> int
val set_i64 : t -> int -> int -> unit
(** Values are OCaml ints stored as little-endian 64-bit words (the top
    bit is never used by the layouts above). *)

val read_bytes : t -> int -> int -> Bytes.t
val write_bytes : t -> int -> Bytes.t -> unit

val zero : t -> int -> int -> unit
(** [zero t off len] stores zero words over [\[off, off+len)]; [off] and
    [len] must be multiples of 8 (checked by assertion). *)

(** {1 Durability} *)

val persist : t -> int -> int -> unit
(** [persist t off len] flushes the cache lines covering [off, off+len)
    (updating the shadow image in crash-sim mode) and issues a fence.
    Counts the lines in [flushed_lines] and one fence ({!Pstats}). *)

val persist_now : t -> int -> int -> unit
(** {!persist} that takes effect at once, even inside a {!with_batch}
    scope. For metadata that must be durable before anything it hands
    out can be written: a block allocated inside a scope may be written
    and flushed by another domain before the scope's barrier. *)

val persist_before : t -> int -> commit:int -> unit
(** [persist_before t off ~commit] persists the cache lines covering
    [\[off, commit)] that lie strictly before [commit]'s line, and does
    nothing when [off] shares that line. It orders a record's payload
    before its commit word (the word whose write makes the record
    valid): payload words on the commit word's line need no persist of
    their own, because a line is the unit of durability and stores to
    one line reach it in program order, so persisting the commit word's
    line makes them durable with it. *)

(** {1 Batch scopes}

    A batch scope coalesces the persistence epilogues of a multi-record
    install: inside {!with_batch} the calling domain's flushes are
    deferred and deduplicated per cache line and its fences are merely
    counted; each {!batch_barrier} (and scope exit) then issues one
    flush pass over the distinct dirty lines and one fence, crediting
    the eliminated work to {!Pstats} as [flushes_saved]/[fences_saved].
    The crash-sim shadow is only updated at the barrier, so a simulated
    crash mid-batch loses the whole unfenced suffix — callers must not
    expose batch effects before the closing barrier. A scope defers the
    persists of one media at a time: a persist to another media drains
    the scope first (a barrier), so every persist stays ordered after
    the ones before it. Scopes are per-domain; other domains flush and
    fence eagerly as usual, and {!persist_now} bypasses the scope. *)

val with_batch : (unit -> 'a) -> 'a
(** Run [f] with deferred persistence on this domain, draining the
    scope (barrier) on exit — including exceptional exit. Nested calls
    are transparent: the outermost scope's barriers cover them. *)

val batch_barrier : unit -> unit
(** Drain the current domain's batch scope now: flush distinct dirty
    lines, issue one fence, credit savings. Needed
    mid-batch when a later write phase must be ordered after an earlier
    one (e.g. stamping entries only after their payloads are durable).
    No-op outside {!with_batch}. *)

val simulate_crash : t -> unit
(** Crash-sim RAM media only: revert every non-durable write, as a power
    failure would, and disarm {!crash_after}. Raises [Invalid_argument]
    otherwise. *)

exception Crash
(** Raised by the flush that an armed {!crash_after} stops. *)

val crash_after : t -> flushes:int -> unit
(** Crash-sim RAM media only: the [flushes]-th flush from now (counting
    each run of lines a flush or batch barrier writes to the shadow
    image) raises {!Crash} instead of reaching the shadow image, so the
    durable image stays as it was after the flush before it. Later
    flushes are dropped as well, as after a power cut, until
    {!simulate_crash}. Other media never check it. Raises
    [Invalid_argument] on other media or for [flushes < 1]. *)
