(* Child processes (mvkv servers and `mvkv init`) and the run directory.

   Every child is registered the moment it is spawned and is killed and
   reaped on every exit path: normal exit, an uncaught exception (OCaml
   runs [at_exit] handlers for those too) and SIGINT/SIGTERM, whose
   handler exits through the same path. The run directory holding pools,
   sockets and server logs is removed last. *)

let lock = Mutex.create ()
let children : (int, unit) Hashtbl.t = Hashtbl.create 8
let run_dir = ref None
let home = Sys.getcwd ()

let reap pid =
  let rec wait () =
    match Unix.waitpid [] pid with
    | _ -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
  in
  wait ();
  Mutex.protect lock (fun () -> Hashtbl.remove children pid)

let kill pid =
  (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
  reap pid

let kill_all () =
  let pids = Mutex.protect lock (fun () -> Hashtbl.fold (fun p () l -> p :: l) children []) in
  List.iter kill pids

(* Between workloads: no child survives and no pool stays on disk. *)
let cleanup_children () =
  kill_all ();
  match !run_dir with
  | None -> ()
  | Some _ -> Array.iter Util.rm_rf (Sys.readdir ".")

let cleanup () =
  kill_all ();
  match !run_dir with
  | None -> ()
  | Some dir ->
      run_dir := None;
      (try Sys.chdir home with Sys_error _ -> ());
      (try Util.rm_rf dir with Unix.Unix_error _ | Sys_error _ -> ())

let () =
  at_exit cleanup;
  let on_signal = Sys.Signal_handle (fun _ -> exit 130) in
  Sys.set_signal Sys.sigint on_signal;
  Sys.set_signal Sys.sigterm on_signal

(* Create a fresh run directory under [parent] and make it the working
   directory: children inherit it, so pools and Unix sockets can use
   short relative paths whatever the checkout's own path length (socket
   paths are limited to 107 bytes). *)
let enter_run_dir parent =
  Util.mkdir_p parent;
  let dir = Filename.concat parent (Printf.sprintf "run-%d" (Unix.getpid ())) in
  Util.rm_rf dir;
  Sys.mkdir dir 0o755;
  run_dir := Some dir;
  Sys.chdir dir

let spawn ~log exe args =
  let fd = Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ] 0o644 in
  Mutex.protect lock (fun () ->
      let pid =
        Fun.protect
          ~finally:(fun () -> Unix.close fd)
          (fun () -> Unix.create_process exe (Array.of_list (exe :: args)) Unix.stdin fd fd)
      in
      Hashtbl.replace children pid ();
      pid)

(* Run a child to completion; a nonzero exit is fatal for the run. *)
let run_to_end ~log exe args =
  let pid = spawn ~log exe args in
  let rec wait () =
    match Unix.waitpid [] pid with
    | _, status -> status
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
  in
  let status = wait () in
  Mutex.protect lock (fun () -> Hashtbl.remove children pid);
  match status with
  | Unix.WEXITED 0 -> ()
  | _ -> failwith (Printf.sprintf "%s %s failed (see %s)" exe (String.concat " " args) log)

(* Poll [probe] until it succeeds or [deadline_s] passes. Servers are
   ready when they answer, not after a fixed sleep. *)
let wait_until ~what ~deadline_s probe =
  let t0 = Util.now_ns () in
  let rec go () =
    match probe () with
    | Some v -> v
    | None ->
        if Util.secs_since t0 > deadline_s then
          failwith (Printf.sprintf "%s did not answer within %.0f s" what deadline_s);
        Unix.sleepf 0.001;
        go ()
  in
  go ()
