module type BACKEND = sig
  type store
  type handle
  type segs
  type value

  val capacity : segs -> int
  val grow : store -> segs -> int -> segs
  val write_entry : store -> segs -> int -> version:int -> value -> unit
  val read_version : store -> segs -> int -> int
  val read_value : store -> segs -> int -> value
  val read_stamp : store -> segs -> int -> int
  val set_finished : store -> segs -> int -> int -> unit
end

module Make (B : BACKEND) = struct
  (* The one DRAM record of a history, 5 words. [segs] is replaced,
     never modified in place, so a plain field publishes it: a reader
     holding an older array still finds every slot that array covers.
     [pending] and [tail] are plain int fields, read with plain loads and
     changed only by fetch-and-add and CAS on their positions
     ([Atomic_field]): keep [pending_field] and [tail_field] equal to
     their declaration order. *)
  type t = {
    handle : B.handle;
    mutable segs : B.segs;
    mutable pending : int;
    mutable tail : int;
  }

  let pending_field = 2
  let tail_field = 3
  let wrap handle segs ~length = { handle; segs; pending = length; tail = length }

  let handle t = t.handle
  let segs t = t.segs
  let grow store t n = t.segs <- B.grow store t.segs n

  (* The segment array once it covers [n] slots. A slot becomes visible
     only after a segment array covering it was published, so this
     returns at once unless this domain has yet to see that array: the
     spin waits on memory visibility of a store already made, not on
     any other domain's progress. *)
  let rec covering t n =
    let segs = t.segs in
    if B.capacity segs >= n then segs
    else begin
      Domain.cpu_relax ();
      covering t n
    end

  (* The appender whose slot equals the capacity grows; later slots wait
     for the capacity to cover them (a chain of growths may be needed if
     many slots are claimed at once). The capacity changes only when a
     growth ends, so the next grower starts after it: growths never
     overlap. They move no entry, so writers of covered slots never wait
     for one. A waiter's spin lasts one growth (allocate and link one
     durably zero segment) per doubling between the capacity and its
     slot; a grower waits on no slot above its own. *)
  let rec ensure_capacity store t slot =
    let cap = B.capacity t.segs in
    if slot >= cap then begin
      if slot = cap then grow store t (slot + 1) else Domain.cpu_relax ();
      ensure_capacity store t slot
    end

  (* Non-decreasing versions per history: wait for the predecessor's
     version word and take the max (see interface). Slot [slot - 1]'s
     appender writes that word right after its own capacity and
     predecessor waits, which look only at lower slots, so the chain of
     waits descends to slot 0, which waits on nothing. *)
  let rec prev_version store t slot =
    let v = B.read_version store t.segs (slot - 1) in
    if v = 0 then begin
      Domain.cpu_relax ();
      prev_version store t slot
    end
    else v

  (* Two-phase append for batch installs: [append_entry] claims a slot
     and writes (version, value) but no stamp, so the entry stays
     invisible; [finish_entry] later stamps it. Splitting the phases
     lets a batch write every payload, run one persistence barrier,
     stamp every entry, and run one more barrier — two fences for the
     whole batch instead of two per key. Completion publishing is the
     caller's job (after the final barrier, so visible implies
     durable). *)
  let append_entry store t ~version value =
    if version < 1 then invalid_arg "Lazy_tail.append_entry: version must be >= 1";
    let slot = Concurrent.Atomic_field.fetch_and_add_field t pending_field 1 in
    ensure_capacity store t slot;
    let version = if slot = 0 then version else max version (prev_version store t slot) in
    B.write_entry store t.segs slot ~version value;
    slot

  let finish_entry store t ~ctx ~slot =
    let stamp = Version.next_completion ctx in
    B.set_finished store t.segs slot stamp;
    stamp

  (* A single append is both phases back to back: [set_finished]
     persists the stamp's line before the stamp is published. *)
  let append store t ~ctx ~board ~version value =
    let slot = append_entry store t ~version value in
    Completion.publish board (finish_entry store t ~ctx ~slot)

  (* Algorithm 1, find: walk the tail forward while the next entry is
     finished, globally acknowledged, and its version is still below
     the requested one. The stamp is read first: it is written last.
     The walk never moves fc: a stamp is written before its barrier,
     and only [Completion.publish], after the barrier, may count it. *)
  let rec walk store segs ctx version limit cursor =
    if cursor >= limit then cursor
    else begin
      let stamp = B.read_stamp store segs cursor in
      if stamp = 0 || stamp > Version.fc ctx then cursor
      else if B.read_version store segs cursor <= version then
        walk store segs ctx version limit (cursor + 1)
      else cursor
    end

  let rec publish t cursor =
    let seen = t.tail in
    if
      cursor > seen
      && not (Concurrent.Atomic_field.compare_and_set_field t tail_field seen cursor)
    then publish t cursor

  (* Claimed slots past the capacity may belong to an appender still
     growing the history, so the walk stops at the capacity of the array
     it reads; every slot below it stays readable, since growth never
     moves one. Returns the new tail. *)
  let extend_tail store t ~ctx ~version =
    let start = t.tail in
    let segs = t.segs in
    let limit = min t.pending (B.capacity segs) in
    let cursor = walk store segs ctx version limit start in
    publish t cursor;
    cursor

  (* Rightmost slot in [lo, hi] whose version is <= [version], else
     [best]. *)
  let rec search store segs version lo hi best =
    if lo > hi then best
    else begin
      let mid = (lo + hi) / 2 in
      if B.read_version store segs mid <= version then
        search store segs version (mid + 1) hi mid
      else search store segs version lo (mid - 1) best
    end

  let find store t ~ctx ~version =
    let visible = extend_tail store t ~ctx ~version in
    search store (covering t visible) version 0 (visible - 1) (-1)

  let value store t slot = B.read_value store (covering t (slot + 1)) slot

  (* Slots [first, i], oldest first, onto [acc]. *)
  let rec collect store segs first i acc =
    if i < first then acc
    else
      collect store segs first (i - 1)
        ((B.read_version store segs i, B.read_value store segs i) :: acc)

  (* The entries above [since] follow the last one at or below it, so
     a history with nothing above [since] allocates nothing. *)
  let events store t ~ctx ~since =
    let visible = extend_tail store t ~ctx ~version:max_int in
    let segs = covering t visible in
    collect store segs (search store segs since 0 (visible - 1) (-1) + 1) (visible - 1) []

  let floor_offline store t ~version = search store t.segs version 0 (t.pending - 1) (-1)

  let reset_offline t segs ~length =
    t.segs <- segs;
    t.pending <- length;
    t.tail <- length

  let visible_length t = t.tail
  let pending_length t = t.pending
end
