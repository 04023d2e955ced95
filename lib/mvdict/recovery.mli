(** Restart/crash recovery logic (Sec. IV-B).

    On restart the ephemeral counters of Algorithm 1 are rebuilt from the
    persisted completion stamps: "it is enough to count the length of all
    contiguous non-zero finished sequences of all keys to recover fc,
    then prune all finished entries larger than fc and adjust tail and
    pending accordingly for each key". Compaction drops records and
    the records it keeps keep their stamps, so the contiguous run
    starts above a persisted stamp floor rather than at 1.

    The pure core is {!recover_fc}; the store drives the scanning and
    pruning around it. *)

val recover_fc : ?floor:int -> int array -> int
(** [recover_fc ~floor stamps] is the largest [G >= floor] such that
    every stamp in [floor+1..G] occurs in [stamps] (the stamps gathered
    from the contiguous finished prefixes of all histories). Stamps
    [1..floor] count as present whether or not they occur: [floor]
    (default 0) is the stamp floor compaction persists before it drops
    records, all of which were visible, and so complete, when it was
    persisted. Entries stamped above [G] completed out of order with a
    crashed earlier append and must be pruned for snapshot
    consistency. *)

val plan_blocks : blocks:int -> threads:int -> tid:int -> int list
(** Round-robin block distribution for parallel index reconstruction:
    the block indices thread [tid] of [threads] claims ([i mod threads =
    tid]), ascending. *)
