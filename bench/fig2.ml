(* Figure 2 — single node, concurrent insert (a) and remove (b), strong
   scaling over T = 1..64 threads, N unique pre-generated pairs split
   evenly (Sec. V-D).

   Method on this container (1 core): the single-thread phase runs for
   real on each of the five approaches; PSkipList's measured flush/fence
   counts are priced at Optane-like latencies on top of its CPU cost.
   The thread sweep is then projected with each approach's concurrency
   law (lib/sim). With --real, small thread counts also run on real
   domains as a cross-check. *)

type measured = {
  approach : Approaches.approach;
  insert_ns : float;
  remove_ns : float;
  mutable law : Sim.Cost_model.law;
      (* insert-phase law; PSkipList's is refined into the measured
         index/persistence split once ESkipList's cost is known. *)
}

let threads_sweep = [ 1; 2; 4; 8; 16; 32; 64 ]

(* Time a phase and add persistence pricing from the stats delta. *)
let timed_phase instance stats ~ops f =
  let snapshot () =
    match stats with
    | Some s -> (Pmem.Pstats.flushed_lines s, Pmem.Pstats.fences s)
    | None -> (0, 0)
  in
  let f0, n0 = snapshot () in
  let wall = Sim.Calibrate.time_s (fun () -> f instance) in
  let f1, n1 = snapshot () in
  let per_op x = float_of_int x /. float_of_int ops in
  let pmem_ns =
    Sim.Cost_model.pmem_op_overhead_ns Sim.Cost_model.optane_like
      ~flushes_per_op:(per_op (f1 - f0))
      ~fences_per_op:(per_op (n1 - n0))
  in
  (wall *. 1e9 /. float_of_int ops) +. pmem_ns

let measure ~n approach =
  let keys = Workload.Keygen.unique_keys ~seed:1 n in
  let values = Workload.Keygen.values ~seed:1 n in
  let inserts = (Workload.Opgen.insert_phase ~keys ~values ~threads:1).(0) in
  let removes = (Workload.Opgen.remove_phase ~seed:2 ~keys ~threads:1).(0) in
  (* Finish the major cycle so the garbage earlier approaches left is
     collected before this one is timed. OCaml 5.1 compacts nothing
     (its [Gc.compact] is a full major collection too), so each
     approach is still measured on the heap its predecessors in
     [Approaches.all] left. *)
  Gc.full_major ();
  let instance, stats = approach.Approaches.fresh () in
  let insert_ns =
    timed_phase instance stats ~ops:n (fun i -> Approaches.run_ops i inserts)
  in
  let remove_ns =
    timed_phase instance stats ~ops:n (fun i -> Approaches.run_ops i removes)
  in
  { approach; insert_ns; remove_ns; law = approach.Approaches.insert_law }

let project law ~threads ~n ~op_ns =
  Sim.Cost_model.makespan_ns law ~threads ~total_ops:n ~op_cost_ns:op_ns /. 1e9

let print_table ~title ~n measured cost_of =
  Report.subheader title;
  let columns = List.map (fun m -> m.approach.Approaches.label) measured in
  let rows = List.map (fun t -> (string_of_int t, t)) threads_sweep in
  Report.series ~param:"threads" ~columns ~rows ~cell:(fun i _ t ->
      let m = List.nth measured i in
      Report.seconds (project m.law ~threads:t ~n ~op_ns:(cost_of m)))

let run ~n ~real =
  Report.header
    (Printf.sprintf "Figure 2: concurrent insert/remove, N=%d (projected 64-core node)" n);
  let measured = List.map (measure ~n) Approaches.all in
  (* Refine PSkipList's law. Both skip lists run one install
     ([Mvdict.Vstore]), ESkipList over DRAM histories and PSkipList
     over pmem ones. The part of PSkipList's op cost matching the
     measured ESkipList cost is taken as the contended index update,
     and the excess as its thread-local persistence work. ESkipList's
     cost also holds per-thread work of the shared install (a new
     key's lookup before its publishing descent, the chunk arrays), so
     [index_frac] counts that work as contended too. *)
  (let esk = List.find (fun m -> m.approach.Approaches.label = "ESkipList") measured in
   let psk = List.find (fun m -> m.approach.Approaches.label = "PSkipList") measured in
   let index_frac = Float.min 1.0 (esk.insert_ns /. psk.insert_ns) in
   psk.law <- Sim.Cost_model.pskiplist_insert_split ~index_frac);
  List.iter
    (fun m ->
      Printf.printf "measured 1-thread: %-10s insert %7.0f ns/op, remove %7.0f ns/op\n"
        m.approach.Approaches.label m.insert_ns m.remove_ns)
    measured;
  print_table ~title:"Fig 2a: insert, time to completion" ~n measured (fun m -> m.insert_ns);
  print_table ~title:"Fig 2b: remove, time to completion" ~n measured (fun m -> m.remove_ns);
  let find label = List.find (fun m -> m.approach.Approaches.label = label) measured in
  let p = find "PSkipList" and e = find "ESkipList" in
  let reg = find "SQLiteReg" and mem = find "SQLiteMem" and lm = find "LockedMap" in
  let t64 m = project m.law ~threads:64 ~n ~op_ns:m.insert_ns in
  Report.shape_check ~label:"PSkipList beats SQLiteReg at 64T" (t64 p < t64 reg);
  Report.shape_check ~label:"PSkipList beats SQLiteMem at 64T" (t64 p < t64 mem);
  Report.shape_check ~label:"PSkipList beats LockedMap at 64T" (t64 p < t64 lm);
  (* The ceiling claim only makes sense when persistence showed up in
     the measurement (on this substrate the pmem software stack is thin,
     so the two can land within noise of each other). *)
  if p.insert_ns > e.insert_ns then
    Report.shape_check ~label:"ESkipList is the 64T ceiling" (t64 e <= t64 p)
  else
    Printf.printf
      "  [shape] ESkipList is the 64T ceiling: n/a this run (PSkipList measured
      \          no dearer than ESkipList at 1T, %.0f vs %.0f ns/op)
"
      p.insert_ns e.insert_ns;
  Report.shape_check ~label:"LockedMap degrades vs its own 1T"
    (t64 lm > project lm.law ~threads:1 ~n ~op_ns:lm.insert_ns);
  if real then begin
    Report.subheader "real-domain cross-check (insert, reduced N, 1 physical core)";
    let n_real = min n 50_000 in
    let keys = Workload.Keygen.unique_keys ~seed:1 n_real in
    let values = Workload.Keygen.values ~seed:1 n_real in
    List.iter
      (fun approach ->
        List.iter
          (fun threads ->
            let trace = Workload.Opgen.insert_phase ~keys ~values ~threads in
            let instance, _ = approach.Approaches.fresh () in
            let dt =
              Sim.Calibrate.time_s (fun () ->
                  ignore
                    (Concurrent.Parallel.run ~threads (fun tid ->
                         Approaches.run_ops instance trace.(tid))))
            in
            Printf.printf "  %-10s T=%d: %s\n" approach.Approaches.label threads
              (Report.seconds dt))
          [ 1; 2; 4 ])
      Approaches.all
  end
