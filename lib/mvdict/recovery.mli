(** Restart/crash recovery logic (Sec. IV-B).

    On restart the ephemeral counters of Algorithm 1 are rebuilt from the
    persisted completion stamps: "it is enough to count the length of all
    contiguous non-zero finished sequences of all keys to recover fc,
    then prune all finished entries larger than fc and adjust tail and
    pending accordingly for each key". Compaction drops records and
    the records it keeps keep their stamps, so the contiguous run
    starts above a persisted stamp floor rather than at 1.

    The pure core is a set of stamps and {!recover_fc}; the store drives
    the scanning and pruning around it. *)

type stamps
(** The stamps gathered so far from every history, one bit per stamp
    above the floor up to the highest added: [n] dense stamps cost
    under [n / 4] bytes of DRAM at open, where an array of them cost
    [8n]. *)

val stamps : ?floor:int -> bound:int -> unit -> stamps
(** An empty set above [floor] (default 0), the stamp floor compaction
    persists before it drops records, all of which were visible, and so
    complete, when it was persisted. [bound] is at least the number of
    stamps that will be added: the run {!recover_fc} looks for holds at
    most that many, so a stamp above [floor + bound] cannot belong to
    it, and the set keeps no bit for it (a pool of [w] words holds at
    most [w] stamps). *)

val add : stamps -> int -> unit
(** Add a non-zero stamp gathered from a history. Stamps at or below
    the floor, and 0, count for nothing. Duplicates are tolerated. *)

val recover_fc : stamps -> int
(** The largest [G >= floor] such that every stamp in [floor+1..G] was
    added: stamps [1..floor] count as present whether or not they
    occur. Entries stamped above [G] completed out of order with a
    crashed earlier append and must be pruned for snapshot
    consistency. Allocates nothing. *)

val plan_blocks : blocks:int -> threads:int -> tid:int -> int list
(** Round-robin block distribution for parallel index reconstruction:
    the block indices thread [tid] of [threads] claims ([i mod threads =
    tid]), ascending. *)
