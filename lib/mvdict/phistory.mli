(** Persistent-memory history backend: {!Lazy_tail.BACKEND} over a
    {!Pmem.Pvector} of [(version, value-word, finished)] records.

    Values are {!Codec} words (inline payloads or blob pointers; 0 is the
    removal marker), so a history entry costs 24 bytes of persistent
    memory and — for inline values — zero allocations on the append path.
    The vector has no header: the history word of the key's chain slot
    ({!Pmem.Pblockchain}) points straight at its first segment. In DRAM
    a history is one {!Lazy_tail} record holding that chain slot's
    offset, its segment array and the two cursors; the heap is the
    store's, passed to every operation.

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
    present iff it lies in the history's stamped prefix and its stamp
    is at most the recovered finished counter
    ({!Recovery.recover_fc}).

    Appends to one key may finish out of slot order: a later slot can
    be stamped, and its stamp made visible through [fc], while an
    earlier slot of the same history is still unstamped. A crash then
    leaves a stamp behind an unstamped slot. {!mark_persisted} reports
    it, so recovery does not set [fc] below it and prune writes that
    were visible; {!attach_pruned} still prunes that record, which was
    never visible (the lazy tail stops at the unstamped slot). Its
    stamp is gone after the prune, so the store persists its stamp
    floor at [fc] before it prunes, and a pool's floor becomes non-zero
    at its first reopen. *)

module Backend :
  Lazy_tail.BACKEND
    with type store = Pmem.Pheap.t
     and type handle = Pmem.Pptr.t
     and type segs = Pmem.Pvector.t
     and type value = int

module H : module type of Lazy_tail.Make (Backend)

type t = H.t

val create : Pmem.Pheap.t -> chain_slot:Pmem.Pptr.t -> t
(** [create heap ~chain_slot] is a fresh empty history (capacity 2
    records, one durably zero segment) rooted at a claimed chain slot.
    It writes and persists nothing; the history is reachable once the
    slot is committed with {!root}. *)

val chain_slot : t -> Pmem.Pptr.t
(** The chain slot that roots the history: its DRAM handle. *)

val root : t -> Pmem.Pptr.t
(** The first segment's offset: what the slot's history word holds. *)

val destroy : Pmem.Pheap.t -> t -> unit
(** Recycle an unregistered history's storage, not its value blobs (the
    loser of an index insert race, whose blobs its winner now holds).
    Must never be called on a history reachable from the key chain. *)

val mark_persisted :
  Pmem.Pheap.t -> Pmem.Pptr.t -> Pmem.Alloc.marks -> stamp:(int -> unit) -> unit
(** [mark_persisted heap root marks ~stamp] is recovery's first pass
    over one history, from the root its chain slot holds: it marks the
    history's segments and the blob behind every non-zero value word in
    them, kept or about to be pruned ({!attach_pruned} frees the pruned
    ones), and calls [stamp] on every non-zero stamp, in slot order:
    those of the stamped prefix and those behind an unstamped slot
    alike (the input to {!Recovery.recover_fc}). *)

val drop_prefix : Pmem.Pheap.t -> t -> first:int -> unit
(** [drop_prefix heap t ~first] drops the first [first] records and
    keeps the rest, stamps untouched, in a new chain of the segments
    growth would give them (2, 2, 4, ... records up to the capacity
    that covers them), published by one root swap of the history word
    of its chain slot ({!Pmem.Pvector.shrink_offline}); then it
    resets the ephemeral cursors, and only once the swap is durable
    frees the dropped records' value blobs, read in place from the old
    segments, and those segments. Nothing is written or freed unless
    [first > 0] or the history's capacity is larger than that. Offline
    only (compaction): every claimed record is stamped, and [first]
    must leave at least one. *)

val release : Pmem.Pheap.t -> Pmem.Pblockchain.t -> t -> unit
(** [release heap chain t] releases a whole key, the one routine for a
    compaction's emptied keys, a range drop's keys and recovery's keys
    with nothing visible: it clears the chain slot that roots [t]
    ({!Pmem.Pblockchain.clear}, persisted), and only then frees the
    key blob, the value blobs of every claimed record, read in place,
    and the history's storage. Unlinking the key from an index is the
    caller's. Offline only: a GC pass quiesces the store, and recovery
    calls it before the key is indexed. *)

val attach_pruned :
  Pmem.Pheap.t -> chain_slot:Pmem.Pptr.t -> Pmem.Pptr.t -> fc:int -> t * int
(** [attach_pruned heap ~chain_slot root ~fc] re-attaches, after a
    restart, the history a chain slot roots at [root]: it truncates
    the persisted history to the longest prefix whose stamps are all
    non-zero and [<= fc] (zeroing any entries beyond it, as the paper
    prescribes, a stamp behind an unstamped slot included), and returns
    the wrapped history plus the highest retained version (for clock
    recovery). *)
