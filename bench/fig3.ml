(* Figure 3 — single node, concurrent key history (a) and find (b),
   strong scaling over T = 1..64 (Sec. V-E).

   State: N inserts, N removes of the same keys, then N inserts of fresh
   keys — P = 2N distinct keys, each holding one insert or an insert
   followed by a remove. Each thread then draws N/T random keys and runs
   the query. Single-thread costs are measured for real; the sweep is
   projected with the query laws. *)

type measured = {
  approach : Approaches.approach;
  history_ns : float;
  find_ns : float;
}

let threads_sweep = [ 1; 2; 4; 8; 16; 32; 64 ]

let build_state ~n approach =
  (* As in Fig 2: collect what earlier approaches left; nothing
     compacts, so each approach runs on the heap its predecessors in
     [Approaches.all] left. *)
  Gc.full_major ();
  let keys1 = Workload.Keygen.unique_keys ~seed:1 n in
  let values = Workload.Keygen.values ~seed:1 n in
  let keys2 = Workload.Keygen.unique_keys ~seed:3 n in
  let instance, stats = approach.Approaches.fresh () in
  Approaches.run_ops instance (Workload.Opgen.insert_phase ~keys:keys1 ~values ~threads:1).(0);
  Approaches.run_ops instance (Workload.Opgen.remove_phase ~seed:2 ~keys:keys1 ~threads:1).(0);
  Approaches.run_ops instance (Workload.Opgen.insert_phase ~keys:keys2 ~values ~threads:1).(0);
  (instance, stats, Array.append keys1 keys2)

let measure ~n ~queries approach =
  let instance, _stats, population = build_state ~n approach in
  let instance_max_version =
    match instance with Approaches.Instance ((module S), t) -> S.current_version t
  in
  let history_ops =
    (Workload.Opgen.query_phase ~seed:11 ~keys:population ~queries
       ~max_version:instance_max_version ~kind:`History ~threads:1).(0)
  in
  let find_ops =
    (Workload.Opgen.query_phase ~seed:12 ~keys:population ~queries
       ~max_version:instance_max_version ~kind:`Find ~threads:1).(0)
  in
  let time ops =
    Sim.Calibrate.time_s (fun () -> Approaches.run_ops instance ops)
    *. 1e9
    /. float_of_int (Array.length ops)
  in
  { approach; history_ns = time history_ops; find_ns = time find_ops }

let project m ~threads ~queries ~op_ns =
  Sim.Cost_model.makespan_ns m.approach.Approaches.query_law ~threads
    ~total_ops:queries ~op_cost_ns:op_ns
  /. 1e9

let print_table ~title ~queries measured cost_of =
  Report.subheader title;
  let columns = List.map (fun m -> m.approach.Approaches.label) measured in
  let rows = List.map (fun t -> (string_of_int t, t)) threads_sweep in
  Report.series ~param:"threads" ~columns ~rows ~cell:(fun i _ t ->
      let m = List.nth measured i in
      Report.seconds (project m ~threads:t ~queries ~op_ns:(cost_of m)))

let run ~n =
  let queries = n in
  Report.header
    (Printf.sprintf
       "Figure 3: concurrent key history/find, P=%d keys, %d queries (projected)"
       (2 * n) queries);
  let measured = List.map (measure ~n ~queries) Approaches.all in
  List.iter
    (fun m ->
      Printf.printf "measured 1-thread: %-10s history %7.0f ns/op, find %7.0f ns/op\n"
        m.approach.Approaches.label m.history_ns m.find_ns)
    measured;
  print_table ~title:"Fig 3a: key history, time to completion" ~queries measured
    (fun m -> m.history_ns);
  print_table ~title:"Fig 3b: find, time to completion" ~queries measured
    (fun m -> m.find_ns);
  let find label = List.find (fun m -> m.approach.Approaches.label = label) measured in
  let p = find "PSkipList" and e = find "ESkipList" in
  let reg = find "SQLiteReg" and mem = find "SQLiteMem" and lm = find "LockedMap" in
  let t64 m cost = project m ~threads:64 ~queries ~op_ns:cost in
  (* Paper: PSkipList has no read penalty vs ESkipList; both dominate at
     64T; SQLiteMem degrades; SQLiteReg flattens after 8T. *)
  Report.shape_check ~label:"PSkipList ~ ESkipList on reads (within 2x)"
    (t64 p p.find_ns < 2.0 *. t64 e e.find_ns);
  Report.shape_check ~label:"skip lists beat SQLiteReg at 64T"
    (t64 p p.find_ns < t64 reg reg.find_ns);
  Report.shape_check ~label:"skip lists beat SQLiteMem at 64T"
    (t64 p p.find_ns < t64 mem mem.find_ns);
  Report.shape_check ~label:"skip lists beat LockedMap at 64T"
    (t64 p p.find_ns < t64 lm lm.find_ns);
  let reg8 = project reg ~threads:8 ~queries ~op_ns:reg.find_ns in
  let reg64 = project reg ~threads:64 ~queries ~op_ns:reg.find_ns in
  Report.shape_check ~label:"SQLiteReg flattens from 8T" (reg64 >= reg8 *. 0.9)
