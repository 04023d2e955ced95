(* Figure 6 — distributed find throughput, K = 2..512 nodes, one thread
   per rank (Sec. V-H): rank 0 broadcasts each query, every rank runs
   the find locally (embarrassingly parallel), replies are reduced.

   One real local store of N keys provides the measured per-find cost
   (identical on every rank, as partitions are uniform); collective wire
   time comes from the Theta-like network model. *)

let nodes_sweep = [ 2; 4; 8; 16; 32; 64; 128; 256; 512 ]
let query_bytes = 24 (* key + version + opcode *)
let reply_bytes = 16 (* value + found flag *)

type local = { label : string; find_ns : float }

let measure_local ~n approach =
  let keys = Workload.Keygen.unique_keys ~seed:1 n in
  let values = Workload.Keygen.values ~seed:1 n in
  let instance, _ = approach.Approaches.fresh () in
  Approaches.run_ops instance (Workload.Opgen.insert_phase ~keys ~values ~threads:1).(0);
  let queries = min n 50_000 in
  let ops =
    (Workload.Opgen.query_phase ~seed:21 ~keys ~queries ~max_version:n ~kind:`Find
       ~threads:1).(0)
  in
  let dt = Sim.Calibrate.time_s (fun () -> Approaches.run_ops instance ops) in
  { label = approach.Approaches.label; find_ns = dt *. 1e9 /. float_of_int queries }

let throughput net local ~ranks =
  (* Per query: broadcast, parallel local find, reduce. *)
  let per_query =
    Sim.Simnet.bcast_s net ~ranks ~bytes:query_bytes
    +. (local.find_ns /. 1e9)
    +. Sim.Simnet.reduce_s net ~ranks ~bytes:reply_bytes
  in
  1.0 /. per_query

let run ~n =
  Report.header
    (Printf.sprintf "Figure 6: distributed find throughput, N=%d pairs/rank (modelled wire)" n);
  let net = Sim.Simnet.theta_like in
  let locals =
    List.map (measure_local ~n) [ Approaches.sqlitereg; Approaches.pskiplist ]
  in
  List.iter
    (fun l -> Printf.printf "measured local find: %-10s %7.0f ns/op\n" l.label l.find_ns)
    locals;
  Report.subheader "queries/second at rank 0";
  Report.series ~param:"nodes"
    ~columns:(List.map (fun l -> l.label) locals)
    ~rows:(List.map (fun k -> (string_of_int k, k)) nodes_sweep)
    ~cell:(fun i _ k -> Report.throughput (throughput net (List.nth locals i) ~ranks:k));
  let reg = List.nth locals 0 and p = List.nth locals 1 in
  let drop l = throughput net l ~ranks:2 /. throughput net l ~ranks:512 in
  Report.shape_check ~label:"throughput drops then stabilises with K"
    (drop p > 1.5 && drop p < 10.0);
  (* Paper: PSkipList ~25% ahead because its local find beats SQLite's.
     Our minidb baseline is leaner than SQLite (no SQL/VM layer), so the
     local-find advantage does not reproduce (EXPERIMENTS.md); what must
     hold is that the gap between the approaches closes as the
     collectives dominate at scale. *)
  let gap k =
    Float.abs (1.0 -. (throughput net p ~ranks:k /. throughput net reg ~ranks:k))
  in
  Report.shape_check ~label:"collectives dominate at scale (gap at 512 < gap at 2)"
    (gap 512 < gap 2);
  Report.shape_check ~label:"both within 2x at every K (local find is not the bottleneck)"
    (List.for_all (fun k -> gap k < 1.0) nodes_sweep)
