(* Hang guard for the suites that start servers and domains. A test
   case that runs past [deadline_s] has its name printed and the
   process exits 124, so a deadlock fails the suite within minutes
   instead of stalling until an outer job limit kills it.

   The guard is a systhread of the main domain. Spinning threads yield
   to it at their poll points, and it writes with [Unix.write] and
   leaves through [Unix._exit], so a hung thread holding a channel
   lock or an at_exit hook cannot hold it up. It writes to a copy of
   stderr taken at load time, because Alcotest points fd 2 at a
   per-case log file while a case runs. *)

let deadline_s = 300.0
let console = Unix.dup Unix.stderr

let abort msg =
  let msg = Printf.sprintf "\nwatchdog: %s\n" msg in
  ignore (Unix.write_substring console msg 0 (String.length msg));
  Unix._exit 124

(* The running case and when it started. *)
let current : (string * float) option Atomic.t = Atomic.make None

let guard () =
  while true do
    Thread.delay 1.0;
    match Atomic.get current with
    | Some (name, t0) when Unix.gettimeofday () -. t0 > deadline_s ->
        abort (Printf.sprintf "%s still running after %.0f s" name deadline_s)
    | _ -> ()
  done

(* [Alcotest.run] with every case under the guard. *)
let run suite groups =
  ignore (Thread.create guard ());
  let wrap group (name, speed, f) =
    let label = Printf.sprintf "%s %s %s" suite group name in
    ( name,
      speed,
      fun x ->
        Atomic.set current (Some (label, Unix.gettimeofday ()));
        Fun.protect ~finally:(fun () -> Atomic.set current None) (fun () -> f x) )
  in
  Alcotest.run suite
    (List.map (fun (group, cases) -> (group, List.map (wrap group) cases)) groups)

(* Poll until [finished ()] holds, aborting as soon as [progress ()]
   has stood still for [stall_s] seconds: for cases whose hang would
   otherwise surface only at [deadline_s]. *)
let await_progress ~what ~stall_s ~progress ~finished =
  let rec go last since =
    if not (finished ()) then begin
      Thread.delay 0.05;
      let p = progress () and now = Unix.gettimeofday () in
      if p <> last then go p now
      else if now -. since > stall_s then
        abort (Printf.sprintf "%s: no progress for %.0f s, stuck at %d" what stall_s p)
      else go last since
    end
  in
  go (progress ()) (Unix.gettimeofday ())
