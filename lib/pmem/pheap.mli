(** Persistent heap: a formatted {!Media.t} with an allocator and a small
    directory of named roots.

    This plays the role of a PMDK pool ([pmemobj_create]/[pmemobj_open]):
    a store persists the offset of its top-level object in a root slot and
    finds it again after restart. *)

type t

val root_slots : int
(** Number of root slots (16). *)

val create : Media.t -> t
(** Format a fresh media as a heap (magic, roots, allocator). The media
    must read zero, as fresh media do ({!Alloc.format}). *)

val open_existing : Media.t -> t
(** Attach to a previously formatted media.
    @raise Invalid_argument if the magic or layout version mismatch.
    The layout version is 3: version-2 pools, whose histories are single
    buffers rather than segment chains ({!Pvector}), are refused. *)

val create_ram : ?crash_sim:bool -> capacity:int -> unit -> t
(** Convenience: fresh RAM media + {!create}. *)

val create_file : path:string -> capacity:int -> t
val open_file : path:string -> t

val reopen : t -> t
(** Re-attach to the same media as if after a restart: allocator and
    roots are re-read from the media. Used by the crash tests together
    with {!Media.simulate_crash}. *)

val media : t -> Media.t
val allocator : t -> Alloc.t
val stats : t -> Pstats.t

val root_get : t -> int -> Pptr.t
(** Read root slot [i] (0 <= i < {!root_slots}); {!Pptr.null} if unset. *)

val root_set : t -> int -> Pptr.t -> unit
(** Atomically persist root slot [i]. *)

val close : t -> unit
