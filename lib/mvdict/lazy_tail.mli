(** Per-key version history with a lazy tail (Algorithm 1 of the paper),
    generic over the storage backend (persistent memory or RAM).

    A history is an append-only array of [(version, value, finished)]
    entries. Appends claim slots with an atomic fetch-add on an ephemeral
    [pending] counter and then write their entry {e in parallel} — no
    transaction, no lock. An entry becomes visible once

    - its [finished] stamp (taken from the global completion sequence at
      the end of the append) is covered by the global finished counter
      [fc], i.e. all globally earlier appends also completed; and
    - a query actually needs to walk past it — the ephemeral [tail]
      cursor is advanced lazily {e by queries}, never by appends, and
      only as far as the requested version requires.

    Version monotonicity: the paper leaves the order of two concurrent
    appends to the {e same} key unspecified; we strengthen it so the
    entries of one history are always non-decreasing in version (an
    appender waits for its predecessor slot's version word and takes the
    max), which keeps the binary search of queries correct under every
    interleaving.

    Growth: the appender whose slot equals the current capacity becomes
    the designated grower and doubles the capacity by linking one more
    segment; appenders with later slots wait until the capacity covers
    them. Growth never moves an entry, so nothing else waits for it:
    writers of covered slots write on, and readers walk the claimed
    slots only up to the capacity they read first, since a slot past it
    may belong to an appender still growing. Entries are write-once. *)

module type BACKEND = sig
  type t
  type value

  val marker : value
  (** The removal marker. *)

  val is_marker : value -> bool
  val capacity : t -> int

  val ensure : t -> int -> unit
  (** Grow to at least the given capacity. Called only by the designated
      grower, one at a time, while other domains read and write slots
      below the current capacity: it never moves an entry, and a slot
      below the old capacity reads and writes the same storage before
      and after. *)

  val write_entry : t -> int -> version:int -> value -> unit
  (** Publish version then value of a claimed slot, then persist
      whatever of them the stamp's persist in {!set_finished} will not
      cover, plus what recovery needs without a stamp: a persistent
      backend persists the lines before the stamp's line, and a blob
      pointer wherever it lies, so an unstamped slot's blob can be
      freed (persistence is a no-op for RAM backends). *)

  val read_version : t -> int -> int
  (** Version word of a slot; 0 if not yet written. *)

  val set_finished : t -> int -> int -> unit
  (** Write the completion stamp of a slot (written last) and persist
      its line, which makes the slot's version and value durable too
      where they share it. *)

  val read_entry : t -> int -> int * value * int
  (** [(version, value, finished)] of a slot below the capacity. *)
end

module Make (B : BACKEND) : sig
  type t

  val wrap : B.t -> length:int -> t
  (** Attach ephemeral state to a backend; [length] is the number of
      already-visible entries (0 for a fresh history, the recovered
      prefix length after a restart). *)

  val backend : t -> B.t

  val append : t -> ctx:Version.t -> board:Completion.t -> version:int -> B.value -> unit
  (** The full Algorithm-1 insert: claim, order, write, persist, stamp,
      publish completion. [remove] is an append of {!B.marker}. *)

  val append_entry : t -> version:int -> B.value -> int
  (** First half of a two-phase (batch) append: claim a slot, order the
      version, write the entry payload — but do not stamp it, so it
      stays invisible. Returns the slot for {!finish_entry}. Used with
      {!Media.with_batch} so the payload persists at a shared barrier
      rather than per key. *)

  val finish_entry : t -> ctx:Version.t -> slot:int -> int
  (** Second half: take the next completion stamp and persist it into
      the slot. Returns the stamp; the caller must
      [Completion.publish] it only after the stamps' persistence
      barrier, so an entry can never be visible before it is durable. *)

  type lookup =
    | Absent  (** No visible entry at or below the requested version. *)
    | Entry of int * B.value
        (** Version and value of the latest visible entry; the value may
            be the removal marker. *)

  val find : t -> ctx:Version.t -> version:int -> lookup
  (** Algorithm-1 find: lazily extend the tail no further than the
      requested version requires, then binary-search the visible
      prefix. *)

  val events : t -> ctx:Version.t -> (int * B.value) list
  (** The visible history, oldest first (extract_history). *)

  val reset_offline : t -> length:int -> unit
  (** Reset the ephemeral cursors after an offline rewrite of the
      backend (compaction). Must not race with any other operation. *)

  val visible_length : t -> int
  (** Current tail position (entries known visible; diagnostics). *)

  val pending_length : t -> int
  (** Slots claimed so far (>= visible_length). *)
end
