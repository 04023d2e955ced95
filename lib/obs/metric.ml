(* Counters and gauges: single atomic cells, safe under concurrent
   domains, never gated on Control (a fetch-and-add is cheap enough to
   pay unconditionally, and it keeps op counts trustworthy even when
   latency tracking is off). *)

type counter = int Atomic.t
type gauge = int Atomic.t

let make_counter () = Atomic.make 0
let incr c = ignore (Atomic.fetch_and_add c 1)
let add c n = ignore (Atomic.fetch_and_add c n)
let value c = Atomic.get c
let reset_counter c = Atomic.set c 0

let make_gauge () = Atomic.make 0
let set g v = Atomic.set g v
let gauge_value g = Atomic.get g
let reset_gauge g = Atomic.set g 0
