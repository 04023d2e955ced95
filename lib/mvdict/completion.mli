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
    [s mod ring]; a publisher then advances [fc] over contiguous
    published stamps. The board is [fc]'s one writer, and an appender
    publishes a stamp only once the barrier that makes it durable has
    passed: a reader, which may see a stamp before that barrier, never
    moves [fc]. The board is volatile — after a restart, [fc] is
    recovered from the persisted stamps instead ({!Recovery}). *)

type t

val create : Version.t -> t
(** The ring is one int array of 4,096 cells (4,097 words of DRAM, no
    box per cell), which bounds how far published stamps may run ahead
    of [fc], i.e. how many stamps may be taken but not yet published. A
    domain holds at most one 64-key install chunk of those, and at
    40,000 writes a second 4,096 stamps are about 100 ms of writes. *)

val publish : t -> int -> unit
(** Announce that the append stamped [s] is durable, then
    advance [fc] over every contiguous published stamp. Blocks (spins)
    while [s] is a full ring ahead of [fc], i.e. until the stamps it
    would lap are published. *)

val help_advance : t -> unit
(** Advance [fc] over contiguous published stamps, if any (compaction
    settles [fc] with it once it has drained the store). *)
