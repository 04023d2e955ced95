(** Lock-free insert-only ordered skip list (Algorithm 2 of the paper).

    The multi-version store never deletes index nodes — a key removal
    appends a marker to the key's version history instead — so the skip
    list omits the deletion protocol entirely and inserts with plain
    compare-and-swap on next pointers, exactly the simplification the
    paper exploits ("since there is no need to support removal from the
    skip list itself, the implementation can be simplified to use raw
    pointers in compare-and-exchange operations"). A node is one heap
    block holding its key, its value and one next pointer per level, so
    a level hop loads one block; a next pointer is CASed in place
    ({!Atomic_field}) and read with a plain load, and a key costs about
    5 words of index (3 plus a 2-level tower).

    Values are immutable once inserted (the store mutates the history the
    value points at, not the index entry). Iteration over level 0 yields
    keys in ascending order and may run concurrently with inserts: it
    observes every key inserted before it started and possibly some
    inserted during. *)

type ('k, 'v) t

val max_level : int
(** Tower height bound (24: comfortable for hundreds of millions of
    keys at p = 1/2). It bounds height, not allocation: a node's block
    has one next pointer per level the node drew (2 expected), only the
    head has [max_level], and every search starts at the highest level
    in use. *)

val create : compare:('k -> 'k -> int) -> unit -> ('k, 'v) t

type 'v insert_outcome =
  | Added of 'v
      (** The key was absent; our freshly made value is now indexed. *)
  | Found of 'v
      (** The key is indexed with this value: it was present, or a
          concurrent insert of it won the CAS. A value [make] returned
          for a lost race is the caller's to clean up (the paper: "the
          slower thread needs to detect this situation and clean up
          accordingly"). *)

val find_or_insert : ('k, 'v) t -> 'k -> make:(unit -> 'v) -> 'v insert_outcome
(** Look the key up; if absent, call [make] at most once (across CAS
    retries) and try to link the result. *)

val find : ('k, 'v) t -> 'k -> 'v option
(** Allocates nothing on a miss and only the [Some] on a hit. *)

val iter : ('k, 'v) t -> ('k -> 'v -> unit) -> unit
(** In-order traversal of level 0. *)

val iter_range : ('k, 'v) t -> lo:'k -> hi:'k -> ('k -> 'v -> unit) -> unit
(** In-order traversal of keys in [lo, hi). Like {!iter}, allocates
    nothing besides what [f] does. *)

val scrub : ?range:'k * 'k -> ('k, 'v) t -> dead:('k -> 'v -> bool) -> int
(** [scrub t ~dead] physically unlinks every node whose key/value
    satisfies [dead] from all levels and returns how many were removed.
    With [~range:(lo, hi)] only keys in [lo, hi) are asked about and
    unlinked, and the sweep costs one descent plus a walk over that
    range, not the whole index. This is the one bulk-removal escape
    hatch for garbage collection; it is NOT safe concurrently with
    inserts or traversals — callers must hold exclusive access (the
    store quiesces writers first). *)

val cardinal : ('k, 'v) t -> int
(** Number of keys (maintained with an atomic counter). *)

val height : ('k, 'v) t -> int
(** Current highest occupied level (for tests/diagnostics). *)
