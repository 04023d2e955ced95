(** Atomic counters and gauges.

    Both are single [int Atomic.t] cells: increments are one
    fetch-and-add, reads are one load, no allocation anywhere on the
    update path, safe under concurrent [Domain]s. Counters are
    monotonic sums; gauges are last-write-wins levels. Create them
    through {!Registry} so they show up in reports. *)

type counter
type gauge

val make_counter : unit -> counter
val incr : counter -> unit
val add : counter -> int -> unit
val value : counter -> int
val reset_counter : counter -> unit

val make_gauge : unit -> gauge
val set : gauge -> int -> unit
val gauge_value : gauge -> int
val reset_gauge : gauge -> unit
