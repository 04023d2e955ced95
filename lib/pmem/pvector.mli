(** Persistent growable array of fixed-width records.

    Backs the per-key version histories: a small header holds a single
    word pointing at the current buffer, and the buffer itself carries its
    capacity. Both ways of replacing the buffer, {!grow} and
    {!shrink_offline}, allocate a new buffer, copy records into it,
    persist it, and then swap the header word — a single atomic
    publication, so readers always see either the old or the new
    complete buffer, and a crash before the swap merely leaks the new
    buffer. Buffers come from {!Alloc.alloc_zeroed}, so a new buffer is
    durable zero before it is written: {!create}, {!grow} and
    {!shrink_offline} persist only the capacity word and the records
    they copied, not the zeros behind them.

    Concurrency contract (matching Algorithm 1 of the paper): many threads
    may read and write {e distinct} records concurrently; growth must be
    performed by exactly one thread at a time (in the store above, the
    thread whose claimed slot equals the current capacity), while other
    writers spin until [capacity] covers their slot. The old buffer is
    quarantined, not recycled, so stale readers are always safe. *)

type t

val create : Pheap.t -> record_words:int -> initial_capacity:int -> t
(** Allocate an empty vector; all record words are zero. *)

val attach : Pheap.t -> Pptr.t -> t
(** Re-attach to a vector from its header offset (after restart). *)

val handle : t -> Pptr.t
(** Header offset, suitable for storing in other structures. *)

val record_words : t -> int

val capacity : t -> int
(** Current capacity in records. {!grow} raises it; {!shrink_offline}
    may lower it. *)

val grow : t -> int -> unit
(** [grow t n] ensures capacity >= [n] (doubling). Single-grower
    contract; see above. The replaced buffer goes to the heap's
    quarantine ({!Pheap.quarantine_block}) for reclamation at the next
    quiesced point. *)

val shrink_offline : t -> capacity:int -> first:int -> keep:int -> unit
(** [shrink_offline t ~capacity ~first ~keep] is the one routine that
    rewrites a vector's records: it replaces the buffer with a new one
    of exactly [capacity] records whose first [keep] records are copies
    of records [\[first, first + keep)] of the current buffer (the rest
    zero). The new buffer is persisted, then the header swap is
    persisted, and only then is the old buffer freed, so a crash leaves
    either the old records or the new ones and, at worst, leaks a
    buffer. Offline only: safe solely while no concurrent reader can
    hold the current buffer pointer.
    @raise Invalid_argument unless [1 <= capacity], [0 <= keep <=
    capacity] and [\[first, first + keep)] lies within the current
    capacity. *)

val get_word : t -> record:int -> word:int -> int
val set_word : t -> record:int -> word:int -> int -> unit

val get_record3 : t -> record:int -> int * int * int
(** First three words of a record, all read from one buffer snapshot —
    the read side of the growth protocol (requires [record_words >= 3]). *)

val persist_record : t -> record:int -> unit
(** Flush + fence the cache lines of one record. *)

val persist_word : t -> record:int -> word:int -> unit
(** Flush + fence the cache line holding one word of a record. *)

val persist_before_word : t -> record:int -> word:int -> unit
(** Flush + fence the lines holding words [\[0, word)] of a record that
    lie before [word]'s line ({!Media.persist_before}): the payload a
    commit word at [word] covers. Nothing when they share its line. *)

val free : Pheap.t -> t -> unit
(** Recycle the current buffer and header. Unsafe under concurrency. *)
