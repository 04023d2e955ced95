module Make (V : sig
  type t
end) =
struct
  (* Slots [start, start + length) of a history. *)
  type segment = {
    start : int;
    versions : int array;
    values : V.t option array;
    finished : int array;
  }

  module Backend = struct
    (* Segments of c, c, 2c, 4c, ... slots, the geometry of
       {!Pmem.Pvector}: growth publishes a longer array of the same
       segments plus a new one, so no entry ever moves. *)
    type t = segment array Atomic.t
    type value = V.t option

    let marker = None
    let is_marker v = v = None

    let segment start n =
      { start; versions = Array.make n 0; values = Array.make n None;
        finished = Array.make n 0 }

    let capacity t =
      let segs = Atomic.get t in
      let last = segs.(Array.length segs - 1) in
      last.start + Array.length last.versions

    let rec ensure t wanted =
      let cap = capacity t in
      if wanted > cap then begin
        Atomic.set t (Array.append (Atomic.get t) [| segment cap cap |]);
        ensure t wanted
      end

    (* The segment holding [slot], searched from the newest. *)
    let rec find segs slot k =
      if slot >= segs.(k).start then segs.(k) else find segs slot (k - 1)

    let locate t slot =
      let segs = Atomic.get t in
      find segs slot (Array.length segs - 1)

    let write_entry t slot ~version value =
      let s = locate t slot in
      s.versions.(slot - s.start) <- version;
      s.values.(slot - s.start) <- value

    let read_version t slot =
      let s = locate t slot in
      s.versions.(slot - s.start)

    let set_finished t slot stamp =
      let s = locate t slot in
      s.finished.(slot - s.start) <- stamp

    let read_entry t slot =
      let s = locate t slot in
      let i = slot - s.start in
      (s.versions.(i), s.values.(i), s.finished.(i))
  end

  module H = Lazy_tail.Make (Backend)

  type t = H.t

  let initial_capacity = 2

  let create () =
    H.wrap (Atomic.make [| Backend.segment 0 initial_capacity |]) ~length:0
end
