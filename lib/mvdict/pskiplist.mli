(** PSkipList — the paper's proposal (Sec. IV).

    A hybrid multi-version ordered key-value store:

    - the {e compact representation} — per-key version histories and the
      key block chain — lives in persistent memory ({!Pmem}) and survives
      crashes and restarts;
    - the {e ordered index} — a lock-free skip list mapping keys to their
      histories — is ephemeral and is reconstructed in parallel on
      restart by dealing the chain's blocks round-robin to threads;
    - appends use the lazy-tail protocol (claim a slot with a fetch-add,
      write in parallel, publish a completion stamp), never a transaction
      or a lock.

    Keys and values go through {!Codec}: integers are stored inline (no
    allocation on the hot path); arbitrary data becomes blobs.

    The index, the store gate, the write path and the reads are
    {!Vstore}'s, shared with ESkipList; this module is their persistent
    history policy, plus recovery, compaction and migration. *)

module Make (K : Codec.KEY) (V : Codec.VALUE) : sig
  include Dict_intf.S with type key = K.t and type value = V.t

  val create : ?block_slots:int -> Pmem.Pheap.t -> t
  (** Format a store in a fresh heap (root slot 0; {!compact} and
      {!open_existing} write the stamp floor and the {!horizon} in root
      slots 1 and 2). [block_slots] is the key-chain block size (default
      63: a block is [8 + 16 * slots] bytes, and 63 slots fill the
      1024-byte size class). *)

  val open_existing : ?threads:int -> Pmem.Pheap.t -> t
  (** Restart path: recover the global finished counter from every
      non-zero persisted stamp above the stamp floor
      ({!Recovery.recover_fc}), persist the floor at it, prune entries
      beyond it and behind an unstamped slot, and rebuild the skip-list
      index with [threads] reconstruction threads (default 1). The first pass also marks every block reachable from
      heap root 0 (the key chain, key blobs, histories and the blobs
      their records point to) and hands the rest of the heap back to
      the allocator ({!Pmem.Alloc.rebuild}): the store owns its heap. *)

  val heap : t -> Pmem.Pheap.t

  val tag_at : t -> int -> int
  (** [tag_at t version] raises the version clock to at least
      [version] in one step ({!Version.tag_at}) and returns the clock it
      then reads: a clock already past [version] is only reported. The
      wire's [Tag_at]. *)

  val compact : t -> before:int -> int
  (** Garbage-collect history entries no retained snapshot can observe
      (the aging/GC extension the paper leaves as future work): for each
      key, entries superseded by a later entry with version <= [before]
      are dropped and their value blobs recycled; a floor entry that is
      a removal marker is dropped too. Snapshots at or after [before]
      are preserved exactly; older snapshots become unfaithful (a key
      whose last pre-[before] change came after the queried version now
      reads as absent — the usual contract of version GC). Keys whose
      history empties out entirely are scrubbed: unlinked from the index,
      their chain slot cleared for reuse and their key blob and history
      storage recycled. Kept entries keep their completion stamps: the
      pass first persists a stamp floor (root slot 1) that recovery
      counts as present, and a crash at any point of the pass leaves
      every read at or after [before] as it was (blocks may leak, none
      is freed twice).

      Safe against a live store: concurrent operations are quiesced at a
      gate while the pass runs (a bounded stop-the-world pause, recorded
      in the [gc.pause_ns] histogram); concurrent [compact]/[retain]
      calls serialise on an internal lock. Returns the number of entries
      dropped. *)

  val drop_range : t -> lo:key -> hi:key -> horizon:int -> int
  (** Release every key in [[lo, hi)] whole, as {!compact} releases an
      emptied key, after raising the {!horizon} to at least [horizon].
      Runs quiesced like a pass and persists the stamp floor and the
      horizon first, so a crash leaves each key of the range whole or
      gone, none gone under a lower horizon. Returns the entries
      dropped. (The wire's [Range_drop], sent by a copy from 0.) *)

  val retain : t -> keep:int -> int * int
  (** [retain t ~keep] compacts so that (at least) the last [keep]
      versions stay fully observable: runs [compact ~before:(current -
      keep)] clamped at 0. Returns [(before, dropped)]. *)

  type gc
  (** A background GC domain started by {!gc_start}. *)

  val gc_start : t -> ?interval_ms:int -> keep:int -> unit -> gc
  (** Spawn a domain that calls {!retain} [~keep] every [interval_ms]
      (default 50) milliseconds until {!gc_stop}. *)

  val gc_stop : gc -> unit
  (** Signal the GC domain to stop and join it. *)

  val horizon : t -> int
  (** The compaction horizon: the highest [before] any {!compact} of
      this pool used (0 if none), persisted before the pass drops
      anything. No event above it was ever dropped; one at or below it
      may have been. *)

  val pull_chains :
    t ->
    lo:key ->
    hi:key ->
    since:int ->
    limit:int ->
    (key * (int * value Dict_intf.event) list) list
  (** One page of version chains for keys in [lo, hi) (ascending):
      per key, every event with version > [since], oldest first — Put
      and Del (tombstone) events alike, with exact version stamps.
      Keys with nothing above [since] are skipped. [limit] bounds the
      page in {e events} (0 = unbounded); a key's chain is never split
      across pages and the first key always ships, so a non-empty page
      always makes progress: stream a range by re-issuing with
      [lo = last key + 1] until the page comes back empty. One gated
      pass — concurrent writers are not blocked. *)

  val install_chains : t -> since:int -> (key * (int * value Dict_intf.event) list) list -> unit
  (** Install chains pulled from another store, preserving version
      stamps exactly. Idempotent {e under the migration invariant}:
      this store's chain for each key is a prefix of the source's and
      the incoming chain is all of the source's events above [since]
      for that key — already-present events (this store's own events
      above [since]) are counted and skipped, the rest appended in
      order. Safe to replay after a crash mid-install. *)

  val history_words : t -> key -> (int * int * int) array
  (** Raw [(version, word, stamp)] records of a key's claimed slots, as
      persisted (test/diagnostic hook; an append in flight reads stamp
      0). *)

  val recovered_fc : t -> int
  (** The finished-counter value recovered at [open_existing] time (0
      for a freshly created store); test hook. *)

  val chain_claimed : t -> int
  (** Claimed key-chain slots (test hook: scrubbed slots are reused, so
      churn on a bounded key set does not grow this). *)

  val chain_free_slots : t -> int
  (** Key-chain slots currently free for reuse (test hook). *)
end
