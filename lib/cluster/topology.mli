(** Cluster topology: which replica set owns which key range, where each
    replica listens, and the topology's epoch.

    A topology is [key_bits] (the key space is [0, 2^key_bits)) plus an
    ordered list of replica sets — one per key range, each a primary
    followed by zero or more backups — and an {e epoch} number bumped by
    every promotion or resharding rewrite. Each shard owns an explicit
    key range [[lo, hi)]; the ranges are ascending, contiguous, and
    cover the whole key space, so {e shard order is key order}. When no
    [range] directives are given, ownership defaults to an equal-width
    split: each range holds [ceil(2^key_bits / K)] keys and the last
    ends at [2^key_bits]. Requests stamped with an old epoch are
    rejected by servers that have seen a newer one (typed [Bad_epoch]
    error), which is how a router discovers its map is stale.

    The on-disk spec is a small line-oriented text file, one directive
    per line, with [#] comments:

    {v
    # 3-range cluster, range 0 replicated twice, uneven split
    key_bits 20
    epoch 4
    shard 0 unix:///tmp/mvkv-s0.sock unix:///tmp/mvkv-s0b.sock
    shard 1 tcp://127.0.0.1:7801
    shard 2 tcp://127.0.0.1:7802
    replica 2 tcp://127.0.0.1:7902
    range 0 0 100000
    range 1 100000 200000
    range 2 200000 1048576
    v}

    A [shard I EP...] line lists range [I]'s replica set, primary first;
    [replica I EP] appends one more backup to range [I] (either spelling
    works, and [to_string] always renders the one-line form). [epoch] is
    optional and defaults to 0, so pre-replication topology files still
    parse. [range I LO HI] sets shard [I]'s key range explicitly —
    all-or-nothing: give every shard one or none at all ([to_string]
    only emits them when placement differs from the default split).
    Shard ids must be dense 0..K-1 (any order in the file); repeating
    the same endpoint anywhere in the topology is rejected. *)

type t

val create : key_bits:int -> Net.Sockaddr.t array -> t
(** [create ~key_bits endpoints] — the unreplicated form: endpoint at
    index [i] is the sole replica of range [i], epoch 0. Raises
    [Invalid_argument] on an empty endpoint list, a duplicate endpoint,
    or a [key_bits] outside [1, 61]. *)

val create_replicated :
  key_bits:int -> ?epoch:int -> ?ranges:(int * int) array -> Net.Sockaddr.t array array -> t
(** [create_replicated ~key_bits ~epoch ~ranges sets] — [sets.(i)] is
    range [i]'s replica set, primary first; [ranges.(i)] its key range
    (default: equal-width split). Raises [Invalid_argument] on an empty
    set list, an empty replica set, a duplicate endpoint, a negative
    epoch, a bad [key_bits], or ranges that are not an ascending
    contiguous cover of the key space. *)

val of_string : string -> (t, string) result
(** Parse a topology spec; the error names the offending line. *)

val of_file : string -> (t, string) result

val to_string : t -> string
(** Render back to the spec syntax ([of_string] round-trips it). *)

val save : t -> string -> (unit, string) result
(** Write atomically {e and durably}: the temp file is fsynced before
    the rename and the directory after it, so a promotion or migration
    cutover neither leaves a torn file for concurrent readers nor rolls
    back to a pre-cutover epoch if the machine dies right after the
    rename. *)

val key_bits : t -> int
val shards : t -> int

val epoch : t -> int
(** Topology generation. Routers stamp every request with it; servers
    reject stamps older than the newest epoch they have seen. *)

val endpoint : t -> int -> Net.Sockaddr.t
(** Range [i]'s primary (alias {!primary}; kept for pre-replication
    callers). *)

val primary : t -> int -> Net.Sockaddr.t

val replicas : t -> int -> Net.Sockaddr.t array
(** Range [i]'s full replica set, primary first. *)

val backups : t -> int -> Net.Sockaddr.t array

val replica : t -> int -> int -> Net.Sockaddr.t
(** [replica t i j] — slot [j] of range [i]'s set (0 = primary). *)

val replica_count : t -> int -> int

val range : t -> int -> int * int
(** [range t i] — the key range [[lo, hi)] shard [i] owns. *)

val with_epoch : t -> int -> t

val promote : t -> shard:int -> replica:int -> t
(** [promote t ~shard ~replica] — backup slot [replica] (>= 1) of
    [shard]'s set becomes the primary, the old primary slides into the
    backups (it rejoins and catches up if its process ever restarts),
    and the epoch is bumped. Raises [Invalid_argument] if [replica] is
    not a backup slot. *)

val with_set : t -> shard:int -> Net.Sockaddr.t array -> t
(** [with_set t ~shard set] — shard [shard]'s whole range is now served
    by [set] (primary first); the outgoing replica set leaves the
    topology. Epoch-bumped. The migration coordinator calls this after
    shipping the range's histories to [set]'s primary. *)

val split_range : t -> shard:int -> at:int -> Net.Sockaddr.t array -> t
(** [split_range t ~shard ~at set] — shard [shard] keeps [[lo, at)]; a
    new shard owning [[at, hi)], served by [set], is inserted right
    after it (later shard ids shift up by one, preserving
    shard-order-is-key-order). Epoch-bumped. Raises [Invalid_argument]
    unless [lo < at < hi], or if [set] is empty or repeats an existing
    endpoint. *)

val merge_range : t -> shard:int -> t
(** [merge_range t ~shard] — shard [shard] absorbs its right
    neighbour's range; the neighbour's replica set leaves the topology
    and later shard ids shift down by one. Epoch-bumped. Raises
    [Invalid_argument] if [shard] is the last shard. *)

val owner : t -> int -> int
(** Shard owning [key] (binary search over the ranges). Raises
    [Invalid_argument] for keys outside [0, 2^key_bits) — callers
    wanting a typed error test with {!in_key_space} first. *)

val in_key_space : t -> int -> bool
