(** Page-based B+tree with a composite integer key.

    The multi-column index of the baselines: entries are keyed by
    [(a, b, seq)] — for the key-value workload, [(key, version,
    insertion sequence)] — and carry one integer payload (the row id).
    Matches the paper's "multi-column indexing over both version number
    and key" best practice for the SQLite baselines.

    Leaves are linked left-to-right, so ordered scans (snapshot
    extraction) walk the leaf level like a real engine. No deletion: the
    multi-version schema only ever inserts rows.

    Not internally synchronised: the {!Db} layer wraps accesses in its
    locking model, as the real engine does. All page traffic goes through
    a {!Pagecache}, so index descent cost shows up as page reads. *)

type key = { a : int; b : int; seq : int }

type t

val create : Pagecache.t -> t
(** Allocate an empty tree (fresh root leaf) through the cache. *)

val attach : Pagecache.t -> root:int -> t
(** Re-attach to an existing tree (after "reopen"). *)

val root : t -> int
(** Current root page id (persist it in the db header). *)

val insert : t -> key -> int -> unit
(** Insert an entry. Keys must be unique ([seq] disambiguates). *)

val find_floor : t -> a:int -> b_max:int -> (key * int) option
(** Largest entry with the given [a] and [b <= b_max] (the find query:
    latest row of [key] at or below a version). *)

val iter_prefix : t -> a:int -> (key -> int -> unit) -> unit
(** All entries with the given [a], ascending (the history query). *)

val iter_all : t -> (key -> int -> unit) -> unit
(** Full ascending scan over the leaf level (the snapshot query). *)

val iter_from : t -> key -> (key -> int -> bool) -> unit
(** Ascending scan from the smallest entry >= the given key; the
    callback returns [false] to stop (range selects). *)

val entry_count : t -> int
(** Total entries (leaf-level walk; test hook). *)

val depth : t -> int
(** Tree height (test hook). *)
