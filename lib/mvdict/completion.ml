(* Ring cells hold the stamp itself (not a flag): cell [s mod ring] = s
   means "stamp s completed". Stale values from earlier laps can never be
   mistaken for the stamp being awaited, so cells never need clearing. *)

let ring = 4096

type t = { ctx : Version.t; cells : int Atomic.t array }

let create ctx = { ctx; cells = Array.init ring (fun _ -> Atomic.make 0) }

let advance t =
  let rec loop () =
    let fc = Version.fc t.ctx in
    let next = fc + 1 in
    if Atomic.get t.cells.(next mod ring) = next then begin
      (* Success or interference both mean progress; keep going. *)
      ignore (Version.try_advance_fc t.ctx ~expected:fc);
      loop ()
    end
  in
  loop ()

let publish t s =
  (* Backpressure: never overwrite a cell whose previous-lap stamp has
     not been consumed by fc yet. *)
  while s - Version.fc t.ctx >= ring do
    advance t;
    Domain.cpu_relax ()
  done;
  Atomic.set t.cells.(s mod ring) s;
  advance t

let help_advance = advance
