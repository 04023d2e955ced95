(** The minidb engine: modes, connections, and prepared-statement-style
    operations over the [(version, key, value)] row schema.

    Two modes mirror the paper's SQLite baselines (Sec. V-B):

    - {!Reg} — "file"-backed with a write-ahead log: one writer at a
      time, concurrent readers (a writer-preferring RW lock), and a
      {e private page cache per connection} invalidated by commits.
    - {!Mem} — in-memory with a {e shared page cache}: no WAL, no
      durability, and a single global lock serialising every statement
      (shared-cache access competition, which is precisely the bottleneck
      the paper observes for SQLiteMem under concurrency).

    The schema is one table [(version, key, value)] with a multi-column
    B+tree index on [(key, version)] — the paper's indexing best
    practice. Removals are rows whose value is a caller-chosen marker
    outside the valid value range. *)

type mode = Mem | Reg

type t
type conn

val create : mode -> t
val mode : t -> mode

val connect : t -> conn
(** A connection. One per thread; a connection must not be shared. *)

val reopen : t -> t
(** Simulate a process restart over the same storage: drop all caches
    (Reg keeps its storage+WAL, as SQLite persists table and indices;
    Mem loses nothing because its cache is the database and stays). *)

(** {1 Statements} *)

val insert_row : conn -> version:int -> key:int -> value:int -> unit

val find_row : conn -> key:int -> version:int -> (int * int) option
(** Latest [(version, value)] of [key] at or below [version]. *)

val history_rows : conn -> key:int -> (int * int) list
(** All [(version, value)] rows of [key], ascending version. *)

val iter_snapshot_rows : conn -> version:int -> (int -> int -> int -> unit) -> unit
(** [f key row_version value] for the latest row [<= version] of every
    key, ascending key order. *)

val iter_range_rows :
  conn -> lo:int -> hi:int -> version:int -> (int -> int -> int -> unit) -> unit
(** Like {!iter_snapshot_rows} restricted to keys in [lo, hi) (an
    index range select). *)

val distinct_keys : conn -> int
(** Number of distinct keys in the index (full scan). *)

val max_version : conn -> int
(** Highest version in the table (0 if empty; used to recover the tag
    clock after {!reopen}). *)
