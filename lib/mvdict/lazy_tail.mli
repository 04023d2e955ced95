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

    A history is one 5-word DRAM record: the backend's handle, its
    segment array (an immutable value locating every slot below its
    capacity), and the [pending] and [tail] counters as plain int
    fields, read with plain loads and moved only by fetch-and-add and
    CAS on the field itself ({!Concurrent.Atomic_field}), so no
    [Atomic] box sits behind either. Every operation that reads or
    writes entries takes the backend's [store] (the persistent heap,
    shared by every history of a store) as its first argument, so no
    history holds it.

    Growth: the appender whose slot equals the current capacity becomes
    the designated grower; it has the backend link one more segment and
    then replaces the record's segment array by assignment. Appenders
    with later slots wait until the array covers them. Growth never
    moves an entry, so nothing else waits for it: writers of covered
    slots write on, and readers walk the claimed slots only up to the
    capacity of the array they read, since a slot past it may belong to
    an appender still growing. Entries are write-once. *)

module type BACKEND = sig
  type store
  (** What reading and writing entries needs and no history holds (the
      heap; [unit] for RAM backends). *)

  type handle
  (** A history's persistent name ([unit] for RAM backends). *)

  type segs
  (** An immutable segment array: where each slot below its capacity
      lives. *)

  type value

  val capacity : segs -> int

  val grow : store -> segs -> int -> segs
  (** Return an array covering at least the given capacity. Called only
      by the designated grower, one at a time, while other domains read
      and write slots through older arrays: it never moves an entry, and
      a slot below the old capacity reads and writes the same storage
      through either array. A persistent backend makes the new segments
      reachable durably before it returns. *)

  val write_entry : store -> segs -> int -> version:int -> value -> unit
  (** Publish version then value of a claimed slot, then persist
      whatever of them the stamp's persist in {!set_finished} will not
      cover, plus what recovery needs without a stamp: a persistent
      backend persists the lines before the stamp's line, and a blob
      pointer wherever it lies, so an unstamped slot's blob can be
      freed (persistence is a no-op for RAM backends). *)

  val read_version : store -> segs -> int -> int
  (** Version word of a slot; 0 if not yet written. *)

  val read_value : store -> segs -> int -> value
  (** Value of a written slot. *)

  val read_stamp : store -> segs -> int -> int
  (** Completion stamp of a slot; 0 if not yet stamped. *)

  val set_finished : store -> segs -> int -> int -> unit
  (** Write the completion stamp of a slot (written last) and persist
      its line, which makes the slot's version and value durable too
      where they share it. *)
end

module Make (B : BACKEND) : sig
  type t

  val wrap : B.handle -> B.segs -> length:int -> t
  (** A history over a backend's handle and segment array; [length] is
      the number of already-visible entries (0 for a fresh history, the
      recovered prefix length after a restart). *)

  val handle : t -> B.handle

  val segs : t -> B.segs
  (** The segment array as last published. *)

  val grow : B.store -> t -> int -> unit
  (** Grow to at least the given capacity and publish the new array.
      Appenders call it themselves (the designated grower); callers must
      keep to the same single-grower contract. *)

  val append :
    B.store -> t -> ctx:Version.t -> board:Completion.t -> version:int -> B.value -> unit
  (** The full Algorithm-1 insert: {!append_entry} (claim, order,
      write), {!finish_entry} (stamp, persist), then
      [Completion.publish]. A removal is an append of the backend's
      removal marker. *)

  val append_entry : B.store -> t -> version:int -> B.value -> int
  (** First half of a two-phase (batch) append: claim a slot, order the
      version, write the entry payload — but do not stamp it, so it
      stays invisible. Returns the slot for {!finish_entry}. Used with
      {!Media.with_batch} so the payload persists at a shared barrier
      rather than per key. *)

  val finish_entry : B.store -> t -> ctx:Version.t -> slot:int -> int
  (** Second half: take the next completion stamp and persist it into
      the slot. Returns the stamp; the caller must
      [Completion.publish] it only after the stamps' persistence
      barrier, so an entry can never be visible before it is durable. *)

  val find : B.store -> t -> ctx:Version.t -> version:int -> int
  (** Algorithm-1 find: lazily extend the tail no further than the
      requested version requires, then binary-search the visible prefix.
      Returns the slot of the latest visible entry at or below
      [version] (its value may be the removal marker), or -1 when there
      is none. Reads the version and stamp words in place and allocates
      nothing. *)

  val value : B.store -> t -> int -> B.value
  (** The value of a slot {!find} returned. *)

  val events : B.store -> t -> ctx:Version.t -> since:int -> (int * B.value) list
  (** The visible entries whose version is above [since], oldest first
      ([since = 0]: the whole visible history). A binary search, as in
      {!find}, skips the entries at or below [since], so a history with
      nothing above it allocates nothing. *)

  val floor_offline : B.store -> t -> version:int -> int
  (** The slot of the newest claimed entry at or below [version], or -1
      when there is none: one binary search over the version words of
      every claimed slot, reading no stamp. Offline only (compaction):
      with no operation in flight every claimed slot is written and
      stamped. *)

  val reset_offline : t -> B.segs -> length:int -> unit
  (** Install the segment array of an offline rewrite of the backend
      (compaction) and reset the ephemeral cursors. Must not race with
      any other operation. *)

  val visible_length : t -> int
  (** Current tail position (entries known visible; diagnostics). *)

  val pending_length : t -> int
  (** Slots claimed so far (>= visible_length). *)
end
