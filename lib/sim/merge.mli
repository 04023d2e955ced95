(** Merge machinery for distributed extract-snapshot (Sec. IV-A), run
    for real by Fig. 8 to calibrate its NaiveMerge / OptMerge model.

    Four real algorithms, all operating on arrays of [(key, value)]
    pairs sorted by key with distinct keys across inputs (range
    partitioning guarantees disjointness):

    - {!two_way}: sequential merge of two sorted arrays;
    - {!multi_threaded}: the paper's parallel two-array merge — split A
      evenly among threads, binary-search each boundary in B, merge the
      aligned chunks independently (all output offsets known up front);
    - {!k_way}: heap-based K-way merge (the NaiveMerge comparator);
    - {!recursive_doubling}: the OptMerge schedule — log2 K rounds, odd
      survivors send to even survivors who merge and survive. Each
      round is spanned ([distrib.merge.round]) and counted
      ([distrib.merge.rounds], [distrib.merge.bytes_moved]). *)

val two_way : (int * int) array -> (int * int) array -> (int * int) array

val multi_threaded :
  threads:int -> (int * int) array -> (int * int) array -> (int * int) array
(** [threads] is clamped to [Array.length a] so partitions are never
    empty — asking for more threads than A elements used to read
    [a.(-1)] and raise. *)

val k_way : (int * int) array array -> (int * int) array
(** Exact integer key comparisons (safe for keys >= 2^53, which the
    former float-keyed heap collapsed); duplicate keys across inputs
    come out in input-index order, so the merge is deterministic and
    stable even when the disjointness precondition is violated. *)

val recursive_doubling : ?threads:int -> (int * int) array array -> (int * int) array
(** [threads] selects the per-rank merge implementation (default 1 =
    sequential {!two_way}). *)

val is_sorted : (int * int) array -> bool
