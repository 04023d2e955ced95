(** Persistent heap: a formatted {!Media.t} with an allocator and a small
    directory of named roots.

    This plays the role of a PMDK pool ([pmemobj_create]/[pmemobj_open]):
    a store persists the offset of its top-level object in a root slot and
    finds it again after restart. The allocator's free lists are not
    persisted: after an open they are empty until the heap's owner walks
    its roots and calls {!Alloc.rebuild}, and every block that walk does
    not mark becomes free. So one owner walks the whole heap: the store
    ([Mvdict.Pskiplist.open_existing]) marks what it reaches from root
    slot 0 and frees the rest. *)

type t

val layout_version : int
(** The heap layout this build reads and writes ({!open_existing}). *)

val create : Media.t -> t
(** Format a fresh media as a heap (magic, roots, allocator). The media
    must read zero, as fresh media do ({!Alloc.format}). *)

val open_existing : Media.t -> t
(** Attach to a previously formatted media. The allocator starts with
    empty free lists ({!Alloc.attach}).
    @raise Invalid_argument if the magic or layout version mismatch.
    The layout version is 7: every history segment is a link word and
    its records ({!Pvector}). Older pools are refused: version-6 pools,
    whose first segments hold a capacity word; version-5 pools, which
    may hold a stamp floor without a compaction horizon; version-4
    pools, whose key-chain slots point at a history header rather than
    at its first segment; version-3 pools, whose allocator persisted
    its free lists; and version-2 pools, whose histories are single
    buffers rather than segment chains. *)

val create_ram : ?crash_sim:bool -> capacity:int -> unit -> t
(** Convenience: fresh RAM media + {!create}. *)

val create_file : path:string -> capacity:int -> t
val open_file : path:string -> t

val reopen : t -> t
(** Re-attach to the same media as if after a restart: allocator and
    roots are re-read from the media. Used by the crash tests together
    with {!Media.simulate_crash}. The handle it replaces is retired
    ({!Alloc.retire}): an allocation through it raises, since its DRAM
    free lists and cursor would hand out blocks the new handle owns. *)

val media : t -> Media.t
val allocator : t -> Alloc.t
val stats : t -> Pstats.t

val root_get : t -> int -> Pptr.t
(** Read root slot [i] (0 <= i < 16); {!Pptr.null} if unset. *)

val root_set : t -> int -> Pptr.t -> unit
(** Atomically persist root slot [i]. *)

val roots_set : t -> int -> Pptr.t list -> unit
(** [roots_set t i ptrs] persists the slots from [i] on to [ptrs] with
    one flush of the lines they span and one fence. Each word is
    atomic; a crash before the fence may persist any subset. *)

val close : t -> unit
