(** Persistent growable array of three-word records: the layout of a
    per-key version history, as functions over a heap and a DRAM
    segment array.

    A vector is a chain of segments of 2, 2, 4, 8, ... records, each
    [{link; records}]: its first word links the next segment (0 until
    one is linked), and every segment has that one shape, so a vector
    of n segments holds 2^n records and no word records a capacity.
    The vector has no header: its {e root} is its first segment's
    offset, held in a word its owner persists (in the store above, the
    history word of the key's chain slot). A record never moves while
    the vector grows. {!grow} takes one fresh, durably zero segment
    from {!Alloc.alloc_zeroed} and persists one link word in the last
    segment, so a growth copies nothing, retires nothing, and costs the
    link: 1 line and 1 fence while the allocator's reservation covers
    the segment. A crash before the link is durable leaves the new
    segment unreachable, and the next open's {!Alloc.rebuild} frees it.
    {!shrink_offline} is the one routine that rewrites records: it
    copies them into a new chain of the same shape and swaps the root
    word.

    Segments take 56, 56, 104, 200, ... bytes (a link word and 24 per
    record), each an {!Alloc.size_classes} entry, so none rounds up.

    Readers and writers find a record's segment through a value of
    type {!t}, an immutable DRAM array of segment offsets. The owner
    holds it and replaces it by the array {!grow} or {!shrink_offline}
    returns: after a growth, once the link is durable. The old array
    still locates every record it covers, so readers are never tracked
    and an owner may publish the new one with a plain assignment (OCaml
    5 publishes an initialised block safely).

    Concurrency contract (matching Algorithm 1 of the paper): many threads
    may read and write {e distinct} records below {!capacity}
    concurrently, also while one thread grows the vector; growth must be
    performed by exactly one thread at a time (in the store above, the
    thread whose claimed slot equals the current capacity). Record
    accessors raise [Invalid_argument] at or beyond the capacity. *)

type t
(** The segment array: [\[| segment 0; segment 1; ... |\]]. *)

val create : Pheap.t -> t
(** Allocate an empty vector of capacity 2, one durably zero segment
    ({!Alloc.alloc_zeroed}), and return its segment array. Writes and
    persists nothing: the caller persists its root word, and nothing
    reaches the vector before that. *)

val root : t -> Pptr.t
(** The first segment's offset: what the owner's root word holds. *)

val attach : Pheap.t -> Pptr.t -> t
(** Re-read the segment array from a root (after restart) by walking
    the links.
    @raise Invalid_argument on a null root. *)

val capacity : t -> int
(** Capacity in records. *)

val grow : Pheap.t -> t -> int -> t
(** [grow heap s n] ensures capacity >= [n], linking and persisting one
    segment per doubling, and returns the array that covers them ([s]
    itself when it already does). Single-grower contract; see above. *)

val shrink_offline :
  Pheap.t -> root_word:Pptr.t -> t -> capacity:int -> first:int -> keep:int -> t
(** [shrink_offline heap ~root_word s ~capacity ~first ~keep] is the one
    routine that rewrites a vector's records: it replaces the segment
    chain with a new chain of [capacity] records, the segments a vector
    grown to [capacity] has, whose first [keep] records are copies of
    records [\[first, first + keep)] (the rest zero), and returns its
    array. Each new segment is written whole and persisted with one
    flush range and one fence (a fresh block is durable zero, so only
    its link word and kept records; a recycled one whole, the slots past
    its kept records zeroed), then the root swap: [root_word], the
    offset of the word holding the vector's root, is set to the new
    first segment and persisted. The old chain [s] is left allocated
    and readable: the caller frees it ({!free}) once this returns, so a
    crash leaves either the old records or the new ones, and the next
    open's {!Alloc.rebuild} frees whichever segments are unreachable.
    Offline only: safe solely while no concurrent reader or writer can
    use the vector.
    @raise Invalid_argument unless [capacity] is a power of two [>= 2],
    [0 <= keep <= capacity] and [\[first, first + keep)] lies within
    the current capacity. *)

val get_word : Pheap.t -> t -> record:int -> word:int -> int
val set_word : Pheap.t -> t -> record:int -> word:int -> int -> unit

val persist_record : Pheap.t -> t -> record:int -> unit
(** Flush + fence the cache lines of one record. *)

val persist_word : Pheap.t -> t -> record:int -> word:int -> unit
(** Flush + fence the cache line holding one word of a record. *)

val persist_before_word : Pheap.t -> t -> record:int -> word:int -> unit
(** Flush + fence the lines holding words [\[0, word)] of a record that
    lie before [word]'s line ({!Media.persist_before}): the payload a
    commit word at [word] covers. Nothing when they share its line. *)

val mark : t -> Alloc.marks -> unit
(** Mark every segment as live, for {!Alloc.rebuild}. *)

val iter_records : t -> (int -> unit) -> unit
(** [iter_records s f] calls [f] on the media offset of every record
    below the capacity, in record order: one walk of the segment array
    for a pass over every record (recovery's). *)

val free : Pheap.t -> t -> unit
(** Recycle every segment. Unsafe under concurrency. *)
