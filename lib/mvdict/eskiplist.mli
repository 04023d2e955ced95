(** ESkipList — the ephemeral upper-bound baseline (Sec. V-B), the
    ceiling PSkipList is measured against: PSkipList's store body
    ({!Vstore}) over DRAM histories ({!Ehistory}), every persist,
    barrier and durable key name a no-op. It keeps PSkipList's
    publish-after-commit order (a new key's second descent), so the gap
    between the two is persistence's cost less that order. *)

include Dict_intf.S with type key = int and type value = int

val create : unit -> t
