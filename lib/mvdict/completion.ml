(* Ring cells hold the stamp itself (not a flag): cell [s mod ring] = s
   means "stamp s completed". Stale values from earlier laps can never be
   mistaken for the stamp being awaited, so cells never need clearing.
   The cells are one int array, stored and loaded in place and
   sequentially consistently ([Atomic_field]): a publisher stores its
   cell and then loads the next one, so with plain accesses two
   publishers could each miss the other's cell and leave fc behind a
   published stamp until the next publish. Stamps are positive, so
   [s mod ring] is always a cell. *)

let ring = 4096

type t = { ctx : Version.t; cells : int array }

let create ctx = { ctx; cells = Array.make ring 0 }
let cell t s = Concurrent.Atomic_field.load_int_field t.cells (s mod ring)

let rec advance t =
  let fc = Version.fc t.ctx in
  let next = fc + 1 in
  if cell t next = next then begin
    (* Success or interference both mean progress; keep going. *)
    ignore (Version.try_advance_fc t.ctx ~expected:fc);
    advance t
  end

let publish t s =
  (* Backpressure: never overwrite a cell whose previous-lap stamp has
     not been consumed by fc yet. The spin waits for every stamp up to
     [s - ring] to be published, which happens only when more than
     [ring] stamps are drawn and unpublished at once. Every holder
     publishes its stamps in ascending order, so a holder waiting here
     waits only on stamps below its own: the chain of waits descends
     to the lowest unpublished stamp, whose holder waits on none. *)
  while s - Version.fc t.ctx >= ring do
    advance t;
    Domain.cpu_relax ()
  done;
  Concurrent.Atomic_field.store_int_field t.cells (s mod ring) s;
  advance t

let help_advance = advance
