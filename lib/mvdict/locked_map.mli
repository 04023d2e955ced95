(** LockedMap — the lock-based baseline (Sec. V-B).

    A red-black tree (the typical [std::map] implementation) maps each
    key to a lock-free version history; every index access — insert
    lookup, find, ordered iteration — takes a global mutex. The paper
    includes it to show what a straightforward extension of a standard
    ordered map costs under concurrency: fastest single-threaded, heavy
    degradation as threads are added. *)

include Dict_intf.S with type key = int and type value = int

val create : unit -> t
