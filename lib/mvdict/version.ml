type t = { clock : int Atomic.t; pc : int Atomic.t; fc : int Atomic.t }

let create () = { clock = Atomic.make 0; pc = Atomic.make 0; fc = Atomic.make 0 }

let restore ~clock ~fc =
  { clock = Atomic.make clock; pc = Atomic.make fc; fc = Atomic.make fc }

let stamp t = Atomic.get t.clock + 1
let tag t = Atomic.fetch_and_add t.clock 1 + 1
let current t = Atomic.get t.clock
let next_completion t = Atomic.fetch_and_add t.pc 1 + 1
let fc t = Atomic.get t.fc
let try_advance_fc t ~expected = Atomic.compare_and_set t.fc expected (expected + 1)
