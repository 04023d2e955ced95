(** Persistent key block chain (Sec. IV-A of the paper).

    A linked list of fixed-size blocks of [(key, history)] slots, designed
    so that (1) registering a new key is a rare-allocation append, and (2)
    on restart the blocks can be dealt round-robin to reconstruction
    threads: thread [tid] of [T] claims every block [i] with
    [i mod T = tid] and bulk-inserts its slots into the ephemeral index.

    Registering a key takes two steps, so that a store can order other
    persists between them: {!claim} takes a slot (a released one
    first, else the tail block's next one) and writes its key word,
    persisted only when it lies on an earlier line than the history
    word ({!Media.persist_before}); {!commit} writes and
    persists the history pointer, the slot's commit word. One line and
    one fence when both words share a cache line, two of each when the
    slot straddles two. A slot is valid if and only if its history
    word is non-null, so a crash before the commit leaves a hole that
    iteration skips. One mutex guards the chain's DRAM state (the tail
    block, how many of its slots are handed out, the block count and
    the released slots): a claim takes it once, and a claim that finds
    the tail full allocates, links and persists a fresh tail under it.

    A slot is named by its media offset. The history word roots the
    key's history: it points straight at the history's first segment
    ({!Pvector.root}), and the store names a history by its slot, so a
    compaction swaps the slot's {!history_word} and a GC pass releases
    an emptied key's slot by name.

    The [key] word of a slot is either an inline integer key or a
    {!Pblob} pointer — the store above decides; the chain does not
    interpret it. *)

type t

val create : Pheap.t -> block_slots:int -> t
(** Allocate an empty chain (one zeroed block). *)

val attach : Pheap.t -> Pptr.t -> t
(** Reconnect after restart/crash: one walk of the chain finds the
    tail and how far it is claimed (up to its last valid slot), and
    collects every hole below that point for reuse. *)

val handle : t -> Pptr.t
val block_slots : t -> int

val claim : t -> key:int -> Pptr.t
(** [claim t ~key] takes a slot, reusing a released one when one is
    available, writes [key] into it and returns the slot's offset. The
    slot stays a hole until {!commit}. Takes the chain's lock once;
    the key word is written and persisted after it drops. *)

val commit : t -> Pptr.t -> hist:Pptr.t -> unit
(** [commit t slot ~hist] writes and persists the history word of a
    claimed slot, which makes it valid. [hist] must be non-null. *)

val history_word : Pptr.t -> Pptr.t
(** The offset of a slot's history word, its commit word. *)

val clear : t -> Pptr.t -> int
(** [clear t slot] nulls and persists a slot's history word, making it
    a hole again, frees the slot for reuse and returns its key word,
    left as it was: no reader looks past a hole's null history word.
    What the slot pointed at may be freed once the clear is durable.
    Releasing a key whose history readers may hold is the caller's to
    quiesce. *)

val claimed : t -> int
(** Number of slots claimed so far (upper bound on live slots). Slot
    reuse after {!clear} does not grow this. *)

val free_slot_count : t -> int
(** Released/holed slots currently available for reuse (test hook). *)

val block_count : t -> int
(** Number of linked blocks ({!block_offsets}). *)

val block_offsets : t -> Pptr.t array
(** The linked block offsets in chain order, read by following the
    links — the unit of distribution for parallel reconstruction. It
    lists every linked block, a tail whose slots are all holes
    included. A walk of the chain: for open and tests, not a hot path. *)

val mark : t -> Alloc.marks -> unit
(** Mark the header and every block as live, for {!Alloc.rebuild}. *)

val iter_block : t -> Pptr.t -> (slot:Pptr.t -> key:int -> hist:Pptr.t -> unit) -> unit
(** [iter_block t block f] calls [f] on every valid slot of one block,
    in slot order, skipping holes and never-claimed slots. *)

val iter_slots : t -> (key:int -> hist:Pptr.t -> unit) -> unit
(** Sequential iteration over all valid slots, chain order. *)
