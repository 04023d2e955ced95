(** Ephemeral completion board: drives the global finished counter.

    Algorithm 1 stamps every completed append with the next value of a
    global completion sequence ([pc]) and exposes an entry to queries only
    once {e all} lower-stamped appends have completed ([fc], the global
    finished counter) — that is what makes every answer crash-consistent
    (a visible entry can never be lost by a crash, because recovery keeps
    exactly the contiguously-stamped prefix).

    [fc] can only advance from [s] to [s+1] once the append stamped [s+1]
    is known to be complete, and that append may live in {e any} key's
    history. The board is the ephemeral rendezvous making that knowledge
    global: a ring where the appender of stamp [s] publishes [s] at slot
    [s mod ring]; anyone can then advance [fc] over contiguous published
    stamps. Appenders publish-and-advance (so [fc] keeps up even when no
    queries run) and readers help advance (the lazy tail). The board is
    volatile — after a restart, [fc] is recovered from the persisted
    stamps instead ({!Recovery}). *)

type t

val create : Version.t -> t
(** The ring holds 1 lsl 16 cells, which bounds how far completions may
    run ahead of [fc]: plenty for any realistic thread count. *)

val publish : t -> int -> unit
(** Announce that the append stamped [s] has fully persisted, then
    advance [fc] over every contiguous published stamp. Blocks (spins)
    in the pathological case where [s] is a full ring ahead of [fc]. *)

val help_advance : t -> unit
(** Advance [fc] over contiguous published stamps, if any (reader-side
    helping). *)
