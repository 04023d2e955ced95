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
  (* The one DRAM record of a history. [segs] is replaced, never
     modified in place, so a plain field publishes it: a reader holding
     an older array still finds every slot that array covers. *)
  type t = {
    handle : B.handle;
    mutable segs : B.segs;
    pending : int Atomic.t;
    tail : int Atomic.t;
  }

  let wrap handle segs ~length =
    { handle; segs; pending = Atomic.make length; tail = Atomic.make length }

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
    let slot = Atomic.fetch_and_add t.pending 1 in
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
     finished, globally acknowledged (helping fc along), and its version
     is still below the requested one. The stamp is read first: it is
     written last. *)
  let rec walk store segs ctx version limit cursor =
    if cursor >= limit then cursor
    else begin
      let stamp = B.read_stamp store segs cursor in
      if stamp = 0 then cursor
      else begin
        let fc = Version.fc ctx in
        if stamp <= fc then
          if B.read_version store segs cursor <= version then
            walk store segs ctx version limit (cursor + 1)
          else cursor
        else if stamp = fc + 1 then begin
          ignore (Version.try_advance_fc ctx ~expected:fc);
          walk store segs ctx version limit cursor
        end
        else cursor
      end
    end

  let rec publish tail cursor =
    let seen = Atomic.get tail in
    if cursor > seen && not (Atomic.compare_and_set tail seen cursor) then
      publish tail cursor

  (* Claimed slots past the capacity may belong to an appender still
     growing the history, so the walk stops at the capacity of the array
     it reads; every slot below it stays readable, since growth never
     moves one. Returns the new tail. *)
  let extend_tail store t ~ctx ~version =
    let start = Atomic.get t.tail in
    let segs = t.segs in
    let limit = min (Atomic.get t.pending) (B.capacity segs) in
    let cursor = walk store segs ctx version limit start in
    publish t.tail cursor;
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

  let events store t ~ctx =
    let visible = extend_tail store t ~ctx ~version:max_int in
    let segs = covering t visible in
    let rec collect i acc =
      if i < 0 then acc
      else
        collect (i - 1)
          ((B.read_version store segs i, B.read_value store segs i) :: acc)
    in
    collect (visible - 1) []

  let reset_offline t segs ~length =
    t.segs <- segs;
    Atomic.set t.pending length;
    Atomic.set t.tail length

  let visible_length t = Atomic.get t.tail
  let pending_length t = Atomic.get t.pending
end
