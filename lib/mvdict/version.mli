(** Global version/visibility state shared by all keys of one store.

    Three counters (Sec. IV-B, Algorithm 1):

    - [clock] — the tag counter. {!tag} commits a snapshot and returns
      its version number; operations are stamped with [current clock + 1]
      (they belong to the {e next} snapshot).
    - [pc] — the global completion sequence: every finished append takes
      the next value as its [finished] stamp.
    - [fc] — the global finished counter: the largest [G] such that every
      append stamped [1..G] has completed and is durable. An entry is
      visible to queries iff its stamp is [<= fc]; only the completion
      board ({!Completion}) advances it.

    All three are ephemeral: after a restart they are recovered by
    scanning the persisted histories ({!Recovery}). *)

type t

val create : unit -> t

val restore : clock:int -> fc:int -> t
(** Recovered state: completion sequence resumes after [fc]. *)

val stamp : t -> int
(** Version for a new operation ([current clock + 1], >= 1). *)

val tag : t -> int
(** Commit a snapshot; returns its version number (1, 2, ...). *)

val tag_at : t -> int -> int
(** [tag_at t version] commits every snapshot up to [version] at once:
    one compare-and-set loop raises the clock to [max clock version],
    and the clock it leaves is returned. A clock already at or past
    [version] is only read, never lowered. *)

val current : t -> int
(** Latest committed version (0 before the first {!tag}). *)

val next_completion : t -> int
(** Claim the next completion stamp (atomic increment of [pc]). *)

val fc : t -> int

val try_advance_fc : t -> expected:int -> bool
(** CAS [fc] from [expected] to [expected + 1]; true on success. The
    completion board's one move, over the next globally contiguous
    published stamp. *)
