(** Persistent growable array of fixed-width records.

    Backs the per-key version histories. A small header holds a word
    pointing at the first of a chain of segments, whose capacities are
    c, c, 2c, 4c, ...: only the first segment records c, and each
    segment's first word links the next (0 until one is linked). A
    record never moves while the vector grows. {!grow} takes one fresh,
    durably zero segment from {!Alloc.alloc_zeroed} and persists one
    link word in the last segment, so a growth copies nothing, retires
    nothing, and costs the link: 1 line and 1 fence while the
    allocator's reservation covers the segment. A crash before the link
    is durable leaves the new segment unreachable, and the next open's
    {!Alloc.rebuild} frees it. {!shrink_offline} is the one routine that
    rewrites records: it copies them into a single new first segment and
    swaps the header word.

    Readers and writers find a record's segment through a DRAM array of
    segment offsets. The array is never modified in place: {!grow}
    publishes a new one with one [Atomic.set] after the link is durable,
    and the old one, which still locates every record it covers, is left
    to the OCaml GC. Readers are therefore never tracked.

    Concurrency contract (matching Algorithm 1 of the paper): many threads
    may read and write {e distinct} records below {!capacity}
    concurrently, also while one thread grows the vector; growth must be
    performed by exactly one thread at a time (in the store above, the
    thread whose claimed slot equals the current capacity). Record
    accessors raise [Invalid_argument] at or beyond the capacity. *)

type t

val create : Pheap.t -> record_words:int -> initial_capacity:int -> t
(** Allocate an empty vector; all record words are zero. Flushes the
    first segment's capacity word and the header under one fence: the
    caller persists a link to {!handle} after it, and nothing reaches
    the vector before that link. *)

val attach : Pheap.t -> Pptr.t -> t
(** Re-attach to a vector from its header offset (after restart). *)

val handle : t -> Pptr.t
(** Header offset, suitable for storing in other structures. *)

val record_words : t -> int

val capacity : t -> int
(** Current capacity in records, read from the DRAM segment array.
    {!grow} raises it; {!shrink_offline} may lower it. *)

val grow : t -> int -> unit
(** [grow t n] ensures capacity >= [n], linking one segment per
    doubling. Single-grower contract; see above. *)

val shrink_offline : t -> capacity:int -> first:int -> keep:int -> unit
(** [shrink_offline t ~capacity ~first ~keep] is the one routine that
    rewrites a vector's records: it replaces the segment chain with one
    first segment of exactly [capacity] records whose first [keep]
    records are copies of records [\[first, first + keep)] (the rest
    zero). The new segment is written whole and persisted with one flush
    range and one fence (a fresh block is durable zero, so only its
    capacity word and kept records; a recycled one whole, its link word
    and the slots past the kept records zeroed), then the header swap is
    persisted, and only then is the old chain freed, so a crash leaves
    either the old records or the new ones, and the next open's
    {!Alloc.rebuild} frees whichever segment is unreachable. Offline
    only: safe solely while no concurrent reader or writer can use the
    vector.
    @raise Invalid_argument unless [1 <= capacity], [0 <= keep <=
    capacity] and [\[first, first + keep)] lies within the current
    capacity. *)

val get_word : t -> record:int -> word:int -> int
val set_word : t -> record:int -> word:int -> int -> unit

val get_record3 : t -> record:int -> int * int * int
(** First three words of a record (requires [record_words >= 3]). *)

val persist_record : t -> record:int -> unit
(** Flush + fence the cache lines of one record. *)

val persist_word : t -> record:int -> word:int -> unit
(** Flush + fence the cache line holding one word of a record. *)

val persist_before_word : t -> record:int -> word:int -> unit
(** Flush + fence the lines holding words [\[0, word)] of a record that
    lie before [word]'s line ({!Media.persist_before}): the payload a
    commit word at [word] covers. Nothing when they share its line. *)

val mark : t -> Alloc.marks -> unit
(** Mark the header and every segment as live, for {!Alloc.rebuild}. *)

val iter_records : t -> (int -> unit) -> unit
(** [iter_records t f] calls [f] on the media offset of every record
    below the capacity, in record order: one walk of the segment array
    for a pass over every record (recovery's). *)

val free : Pheap.t -> t -> unit
(** Recycle every segment and the header. Unsafe under concurrency. *)
