module type BACKEND = sig
  type t
  type value

  val marker : value
  val is_marker : value -> bool
  val capacity : t -> int
  val ensure : t -> int -> unit
  val write_entry : t -> int -> version:int -> value -> unit
  val read_version : t -> int -> int
  val set_finished : t -> int -> int -> unit
  val read_entry : t -> int -> int * value * int
end

module Make (B : BACKEND) = struct
  type t = { backend : B.t; pending : int Atomic.t; tail : int Atomic.t }

  let wrap backend ~length =
    { backend; pending = Atomic.make length; tail = Atomic.make length }

  let backend t = t.backend

  (* The appender whose slot equals the capacity grows; later slots wait
     for the capacity to cover them (a chain of growths may be needed if
     many slots are claimed at once). The capacity changes only when a
     growth ends, so the next grower starts after it: growths never
     overlap. They move no entry, so writers of covered slots never wait
     for one. *)
  let rec ensure_capacity t slot =
    let cap = B.capacity t.backend in
    if slot >= cap then begin
      if slot = cap then B.ensure t.backend (slot + 1) else Domain.cpu_relax ();
      ensure_capacity t slot
    end

  (* Non-decreasing versions per history: wait for the predecessor's
     version word and take the max (see interface). *)
  let ordered_version t slot version =
    if slot = 0 then version
    else begin
      let rec prev_version () =
        let v = B.read_version t.backend (slot - 1) in
        if v = 0 then begin
          Domain.cpu_relax ();
          prev_version ()
        end
        else v
      in
      max version (prev_version ())
    end

  (* Two-phase append for batch installs: [append_entry] claims a slot
     and writes (version, value) but no stamp, so the entry stays
     invisible; [finish_entry] later stamps it. Splitting the phases
     lets a batch write every payload, run one persistence barrier,
     stamp every entry, and run one more barrier — two fences for the
     whole batch instead of two per key. Completion publishing is the
     caller's job (after the final barrier, so visible implies
     durable). *)
  let append_entry t ~version value =
    if version < 1 then invalid_arg "Lazy_tail.append_entry: version must be >= 1";
    let slot = Atomic.fetch_and_add t.pending 1 in
    ensure_capacity t slot;
    let version = ordered_version t slot version in
    B.write_entry t.backend slot ~version value;
    slot

  let finish_entry t ~ctx ~slot =
    let stamp = Version.next_completion ctx in
    B.set_finished t.backend slot stamp;
    stamp

  (* A single append is both phases back to back: [set_finished]
     persists the stamp's line before the stamp is published. *)
  let append t ~ctx ~board ~version value =
    let slot = append_entry t ~version value in
    Completion.publish board (finish_entry t ~ctx ~slot)

  type lookup = Absent | Entry of int * B.value

  (* Algorithm 1, find: walk the tail forward while the next entry is
     finished, globally acknowledged (helping fc along), and its version
     is still below the requested one; then publish the longer tail and
     binary-search the visible prefix. *)
  let extend_tail t ~ctx ~version =
    (* Claimed slots past the capacity may belong to an appender still
       growing the history, so the walk stops at the capacity; every
       slot below it stays readable, since growth never moves one. *)
    let limit = min (Atomic.get t.pending) (B.capacity t.backend) in
    let start = Atomic.get t.tail in
    let rec walk cursor =
      if cursor >= limit then cursor
      else begin
        let entry_version, _, stamp = B.read_entry t.backend cursor in
        if stamp = 0 then cursor
        else begin
          let fc = Version.fc ctx in
          if stamp <= fc then
            if entry_version <= version then walk (cursor + 1) else cursor
          else if stamp = fc + 1 then begin
            ignore (Version.try_advance_fc ctx ~expected:fc);
            walk cursor
          end
          else cursor
        end
      end
    in
    let cursor = walk start in
    let rec publish () =
      let seen = Atomic.get t.tail in
      if cursor > seen && not (Atomic.compare_and_set t.tail seen cursor) then
        publish ()
    in
    publish ();
    cursor

  let find t ~ctx ~version =
    let visible = extend_tail t ~ctx ~version in
    (* Rightmost entry with version <= requested, in [0, visible). *)
    let rec search lo hi best =
      if lo > hi then best
      else begin
        let mid = (lo + hi) / 2 in
        let entry_version, value, _ = B.read_entry t.backend mid in
        if entry_version <= version then search (mid + 1) hi (Entry (entry_version, value))
        else search lo (mid - 1) best
      end
    in
    search 0 (visible - 1) Absent

  let events t ~ctx =
    let visible = extend_tail t ~ctx ~version:max_int in
    let rec collect i acc =
      if i < 0 then acc
      else begin
        let version, value, _ = B.read_entry t.backend i in
        collect (i - 1) ((version, value) :: acc)
      end
    in
    collect (visible - 1) []

  let reset_offline t ~length =
    Atomic.set t.pending length;
    Atomic.set t.tail length

  let visible_length t = Atomic.get t.tail
  let pending_length t = Atomic.get t.pending
end
