(* End-to-end benchmark of mvkv, from the client's call through the wire,
   the server, the index, the history append and the pmem flush/fence
   to the reply, with per-layer costs from a traced run.

     e2e.exe [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]
     e2e.exe --smoke
     e2e.exe --compare BASE NEW

   See README.md in this directory for the workloads and every metric. *)

let usage =
  "e2e.exe [--workload hot-point|embedded|ingest-sharded|scan-mixed|all] [--seed N] [--seconds S] [--trace \
   0|1] [--smoke] | --compare BASE NEW"

let () =
  let workload = ref "all" and seed = ref 1 and seconds = ref 10. and traced = ref false and smoke = ref false in
  let mvkv = ref "_build/default/bin/mvkv.exe" and out = ref "" in
  let bench_json = ref "BENCHMARK.json" and compare = ref [] in
  let spec =
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run, or all (default)");
      ("--seed", Arg.Set_int seed, "N seed of every generated input (default 1)");
      ("--seconds", Arg.Set_float seconds, "S length of the timed phase (default 10)");
      ("--trace", Arg.Int (fun t -> traced := t <> 0), "0|1 traced run: per-layer metrics (default 0)");
      ("--smoke", Arg.Set smoke, " tiny sizes and about 1 s per workload, every check on");
      ("--mvkv", Arg.Set_string mvkv, "PATH mvkv executable (default _build/default/bin/mvkv.exe)");
      ("--out", Arg.Set_string out, "FILE results file (default .e2e/results-WORKLOAD-seedN.json)");
      ( "--benchmark-json",
        Arg.Set_string bench_json,
        "PATH metric list and bounds, checked against this program when present (default BENCHMARK.json)" );
      ( "--compare",
        Arg.Tuple [ Arg.String (fun b -> compare := [ b ]); Arg.String (fun n -> compare := !compare @ [ n ]) ],
        "BASE NEW compare two results files (or directories of them) metric by metric" );
    ]
  in
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  (match !compare with
  | [ base; next ] -> exit (Report.compare ~bench_path:!bench_json base next)
  | _ -> ());
  let workloads = if !workload = "all" then Workloads.names else [ !workload ] in
  if not (List.for_all (fun w -> List.mem w Workloads.names) workloads) then begin
    prerr_endline ("e2e: unknown workload " ^ !workload);
    exit 2
  end;
  (* A benchmark whose metric lists drifted from BENCHMARK.json would
     report what nobody reads: refuse to run. *)
  if Sys.file_exists !bench_json then begin
    match Report.check_benchmark_json ~workloads:Workloads.names !bench_json with
    | [] -> ()
    | errs ->
        List.iter prerr_endline errs;
        exit 2
  end;
  let absolute p = if Filename.is_relative p then Filename.concat (Sys.getcwd ()) p else p in
  let mvkv = absolute !mvkv and dir = absolute ".e2e" in
  if not (Sys.file_exists mvkv) then begin
    prerr_endline ("e2e: no mvkv executable at " ^ mvkv ^ " (build it with dune build bin/mvkv.exe)");
    exit 2
  end;
  if !smoke then seconds := 0.5;
  let warmup = if !smoke then 0.2 else 2. in
  Obs.Clock.set_source Util.now_ns;
  if !traced then Tracing.enable () else Obs.Control.disable ();
  let cfg =
    {
      Harness.seed = !seed;
      seconds = !seconds;
      warmup;
      traced = !traced;
      smoke = !smoke;
      mvkv;
      trace_dir = Filename.concat dir "trace";
    }
  in
  let out =
    if !out <> "" then absolute !out
    else
      Filename.concat dir
        (Printf.sprintf "results-%s-seed%d%s.json" !workload !seed
           (if !smoke then "-smoke" else if !traced then "-traced" else ""))
  in
  (* A store that wedges (say, a lane stuck behind a failed append) must
     not hang the run: past this budget the run is abandoned, its
     children killed, and no result is printed. *)
  let budget = float_of_int (List.length workloads) *. (!seconds +. warmup +. 100.) in
  Sys.set_signal Sys.sigalrm
    (Sys.Signal_handle
       (fun _ ->
         Printf.eprintf "e2e: no result after %.0f s, giving up\n%!" budget;
         exit 3));
  ignore (Unix.alarm (int_of_float (ceil budget)));
  Proc.enter_run_dir (Filename.concat dir "run");
  let results =
    List.map
      (fun w ->
        let r =
          try Workloads.run cfg w
          with e ->
            {
              Report.workload = w;
              e2e = [];
              layer = [];
              attempted = 1;
              failed = 1;
              errors = [ Printexc.to_string e ];
              notes = [];
            }
        in
        Proc.cleanup_children ();
        r)
      workloads
  in
  Proc.cleanup ();
  List.iter Report.print_human results;
  Util.mkdir_p (Filename.dirname out);
  Out_channel.with_open_text out (fun oc ->
      output_string oc
        (Obs.Json.to_string ~indent:true
           (Report.results_json ~seed:!seed ~seconds:!seconds ~warmup ~traced:!traced ~smoke:!smoke results)));
  Printf.printf "results: %s\n" out;
  print_endline (Report.result_line ~traced:!traced results);
  exit (if List.for_all Report.correct results then 0 else 1)
