(** Write-ahead log for the Reg (persistent) mode.

    Committed page images accumulate in the log; readers consult the log
    before the main store (latest committed image wins); a checkpoint
    applies the log to the main store and resets it. Mirrors SQLite's WAL
    journal mode, which the paper enables for SQLiteReg as a concurrency
    best practice. Thread-safe. *)

type t

val create : ?checkpoint_frames:int -> Storage.t -> t
(** Auto-checkpoint once the log holds [checkpoint_frames] frames
    (default 1000, SQLite's default). *)

val commit : t -> (int * Page.t) list -> unit
(** Append the dirty pages of a transaction followed by a commit record,
    auto-checkpointing if the log grew past the threshold. *)

val lookup : t -> int -> Page.t option
(** Latest committed image of a page, if the log holds one. *)

val commits : t -> int
val checkpoints : t -> int

val checkpoint : t -> unit
(** Apply every logged page to the main store and reset. *)
