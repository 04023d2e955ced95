(* The one receive buffer of length-prefixed frames, read by the client
   (responses) and the server (requests) alike. Socket reads append at
   [fill] and whole frames are taken off at [start]; the consumed
   prefix is compacted away, and the buffer doubled, only when a read
   needs the room, so a pipelined burst costs few reads and is copied
   at most once. The buffer starts empty and the first read allocates
   one chunk, so a client that is never dialled holds no buffer. *)

type t = { mutable buf : Bytes.t; mutable start : int; mutable fill : int }

let chunk = 65536
let create () = { buf = Bytes.empty; start = 0; fill = 0 }

let clear t =
  t.start <- 0;
  t.fill <- 0

(* Bytes read but not yet taken as a frame. *)
let pending t = t.fill - t.start

(* Read up to one chunk from [fd]: the byte count, 0 at end of stream.
   [Unix.read]'s errors pass through. *)
let read t fd =
  if Bytes.length t.buf - t.fill < chunk then begin
    if t.start > 0 then begin
      Bytes.blit t.buf t.start t.buf 0 (pending t);
      t.fill <- pending t;
      t.start <- 0
    end;
    if Bytes.length t.buf - t.fill < chunk then begin
      let bigger = Bytes.create (max (2 * Bytes.length t.buf) (t.fill + chunk)) in
      Bytes.blit t.buf 0 bigger 0 t.fill;
      t.buf <- bigger
    end
  end;
  let n = Unix.read fd t.buf t.fill chunk in
  t.fill <- t.fill + n;
  n

(* {!Wire.scan} of the unread bytes, taking a whole frame off: its body
   lies in [t.buf] until the next [read]. *)
let next t =
  let r = Wire.scan t.buf ~off:t.start ~len:(pending t) in
  (match r with `Frame (_, _, consumed) -> t.start <- t.start + consumed | _ -> ());
  r
