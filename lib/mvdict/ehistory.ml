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
    (* Segments of 2, 2, 4, 8, ... slots, the geometry of
       {!Pmem.Pvector}: growth returns a longer array of the same
       segments plus a new one, so no entry ever moves. *)
    type store = unit
    type handle = unit
    type segs = segment array
    type value = V.t option

    let segment start n =
      { start; versions = Array.make n 0; values = Array.make n None;
        finished = Array.make n 0 }

    let capacity segs =
      let last = segs.(Array.length segs - 1) in
      last.start + Array.length last.versions

    let rec grow () segs wanted =
      let cap = capacity segs in
      if wanted <= cap then segs
      else grow () (Array.append segs [| segment cap cap |]) wanted

    (* The segment holding [slot], searched from the newest. *)
    let rec find segs slot k =
      if slot >= segs.(k).start then segs.(k) else find segs slot (k - 1)

    let locate segs slot = find segs slot (Array.length segs - 1)

    let write_entry () segs slot ~version value =
      let s = locate segs slot in
      s.versions.(slot - s.start) <- version;
      s.values.(slot - s.start) <- value

    let read_version () segs slot =
      let s = locate segs slot in
      s.versions.(slot - s.start)

    let read_value () segs slot =
      let s = locate segs slot in
      s.values.(slot - s.start)

    let read_stamp () segs slot =
      let s = locate segs slot in
      s.finished.(slot - s.start)

    let set_finished () segs slot stamp =
      let s = locate segs slot in
      s.finished.(slot - s.start) <- stamp
  end

  module H = Lazy_tail.Make (Backend)

  type t = H.t

  let initial_capacity = 2
  let create () = H.wrap () [| Backend.segment 0 initial_capacity |] ~length:0

  let lookup h ~ctx ~version =
    let slot = H.find () h ~ctx ~version in
    if slot < 0 then None else H.value () h slot
end
