(** Backing store of a minidb database: a growable array of pages (the
    "database file").

    RAM-backed; the distinction that matters for the baselines is not the
    medium but the access pattern, which is measured: every page read and
    write is counted, and the write path of the Reg mode goes through the
    {!Wal}. Thread-safe (internal mutex). *)

type t

val create : unit -> t

val allocate : t -> int
(** Append a zeroed page; returns its id. *)

val read : t -> int -> Page.t -> unit
(** Copy page [id] into the caller's buffer. *)

val write : t -> int -> Page.t -> unit
(** Overwrite page [id] with the caller's buffer. *)

val reads : t -> int
val writes : t -> int
