(** Persistent-memory history backend: {!Lazy_tail.BACKEND} over a
    {!Pmem.Pvector} of [(version, value-word, finished)] records.

    Values are {!Codec} words (inline payloads or blob pointers; 0 is the
    removal marker), so a history entry costs 24 bytes of persistent
    memory and — for inline values — zero allocations on the append path.

    Persist ordering per entry: the stamp is the record's commit word
    and persists last and alone. For an inline value or a removal
    marker, [write_entry] persists only the lines of version and value
    that lie before the stamp's line (none for 6 of every 8 slots,
    whose 24 bytes sit in one 64-byte line); [set_finished] writes the
    stamp and persists its line, so an append costs one line and one
    fence when the record fits a line and two of each when it straddles
    two. A line is the unit of durability ({!Pmem.Media.cache_line})
    and stores to one line reach it in program order, so the stamp
    never becomes durable without the version and value it covers. A
    blob pointer is persisted with the version before the stamp
    wherever it lies, so recovery ({!attach_pruned}) can free the blob
    of an entry a crash left unstamped. Recovery treats a slot as
    present iff its stamp is non-zero and at most the recovered
    finished counter ({!Recovery.recover_fc}). *)

module Backend : Lazy_tail.BACKEND with type value = int

module H : module type of Lazy_tail.Make (Backend)

type t = H.t

val record_words : int

val create : Pmem.Pheap.t -> t
(** Fresh empty history (initial capacity 2 records). *)

val handle : t -> Pmem.Pptr.t
(** Persistent handle for the key block chain. *)

val destroy : Pmem.Pheap.t -> t -> unit
(** Recycle an unregistered history (the loser of an index insert race).
    Must never be called on a history reachable from the key chain. *)

val scan_persisted : Pmem.Pheap.t -> Pmem.Pptr.t -> (int * int * int) array
(** [scan_persisted heap handle] returns the raw [(version, word, stamp)]
    records of the contiguous finished prefix as persisted — the input to
    recovery ({!Recovery.recover_fc}). *)

val mark_persisted :
  Pmem.Pheap.t -> Pmem.Pptr.t -> Pmem.Alloc.marks -> stamp:(int -> unit) -> unit
(** [mark_persisted heap handle marks ~stamp] is recovery's first pass
    over one history: it marks the history's header and segments and
    the blob behind every non-zero value word in them, kept or about to
    be pruned ({!attach_pruned} frees the pruned ones), and calls
    [stamp] on each stamp of the contiguous finished prefix, in order. *)

val drop_prefix : t -> first:int -> unit
(** [drop_prefix t ~first] drops the first [first] records and keeps
    the rest, stamps untouched, in one segment of the capacity growth
    would give them, published by one header swap
    ({!Pmem.Pvector.shrink_offline}); then it resets the ephemeral
    cursors. Nothing is written unless [first > 0] or the history's
    capacity is larger than that. The dropped records' value blobs are
    the caller's to free, once this returns and the swap is durable.
    Offline only (compaction); [first] must leave at least one
    record. *)

val attach_pruned : Pmem.Pheap.t -> Pmem.Pptr.t -> fc:int -> t * int
(** Re-attach after restart: truncate the persisted history to the
    longest prefix whose stamps are all [<= fc] (zeroing any entries
    beyond it, as the paper prescribes), and return the wrapped history
    plus the highest retained version (for clock recovery). *)
