(** Persistent key block chain (Sec. IV-A of the paper).

    A linked list of fixed-size blocks of [(key, history)] slots, designed
    so that (1) registering a new key is a rare-allocation append, and (2)
    on restart the blocks can be dealt round-robin to reconstruction
    threads: thread [tid] of [T] claims every block [i] with
    [i mod T = tid] and bulk-inserts its slots into the ephemeral index.

    Append protocol: a global slot is claimed with an atomic fetch-add;
    the key word is written first, then the history pointer, the slot's
    commit word, which persists last and alone
    ({!Media.persist_before}): one line and one fence when both words
    share a cache line, two of each when the slot straddles two. A slot
    is valid if and only if its history word is non-null, so a
    crash mid-append leaves a hole that iteration skips (the insert that
    died was not yet visible anyway, matching the paper's recovery
    argument). The thread that claims the first slot of a fresh block
    allocates and links it; peers spin briefly until it is published.

    The [key] word of a slot is either an inline integer key or a
    {!Pblob} pointer — the store above decides; the chain does not
    interpret it. *)

type t

val create : Pheap.t -> block_slots:int -> t
(** Allocate an empty chain (one zeroed block). *)

val attach : Pheap.t -> Pptr.t -> t
(** Reconnect after restart/crash: walks the chain, rebuilds the
    ephemeral block table and the claim counter. *)

val handle : t -> Pptr.t
val block_slots : t -> int

val append : t -> key:int -> hist:Pptr.t -> unit
(** Register a key. [hist] must be non-null. Reuses a released slot when
    one is available, otherwise claims a fresh one; lock-free except for
    the free-list pop and when a new block must be allocated. *)

val claimed : t -> int
(** Number of slots claimed so far (upper bound on live slots). Slot
    reuse via {!release_slots} does not grow this. *)

val release_slots :
  t -> dead:(hist:Pptr.t -> bool) -> on_release:(key:int -> hist:Pptr.t -> unit) -> int
(** [release_slots t ~dead ~on_release] clears every valid slot whose
    history pointer satisfies [dead], calling [on_release] (e.g. to free
    a key blob) after the slot's history word has been persisted null.
    Cleared slots become holes that later {!append}s reuse. Returns the
    number of slots released. NOT safe concurrently with appends or
    readers — the caller must quiesce the store first. *)

val free_slot_count : t -> int
(** Released/holed slots currently available for reuse (test hook). *)

val block_count : t -> int

val block_offsets : t -> Pptr.t array
(** Snapshot of the published block offsets, in chain order — the unit of
    distribution for parallel reconstruction. *)

val mark : t -> Alloc.marks -> unit
(** Mark the header and every block as live, for {!Alloc.rebuild}. *)

val read_slot : t -> Pptr.t -> int -> (int * Pptr.t) option
(** [read_slot t block slot] is [Some (key, hist)] if the slot is valid,
    [None] for a hole or a never-claimed slot. *)

val iter_slots : t -> (key:int -> hist:Pptr.t -> unit) -> unit
(** Sequential iteration over all valid slots, chain order. *)
