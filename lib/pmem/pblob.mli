(** Length-prefixed byte blobs in persistent memory.

    Variable-size keys and values are stored as blobs and referenced by
    persistent pointer from history entries and key-chain slots. A blob is
    immutable once published, so readers never race with writers. *)

val write : Pheap.t -> Bytes.t -> Pptr.t
(** Allocate and persist a blob; returns its offset. *)

val read : Media.t -> Pptr.t -> Bytes.t
val length : Media.t -> Pptr.t -> int

val free : Pheap.t -> Pptr.t -> unit
(** Recycle a blob's block. Only safe once no reader can hold the
    pointer. *)

val mark : Media.t -> Alloc.marks -> Pptr.t -> unit
(** Mark a blob's block as live, for {!Alloc.rebuild}. *)

val footprint : int -> int
(** [footprint len] is the allocated size of a blob of [len] bytes. *)
