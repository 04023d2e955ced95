(* Figure 7 — distributed gather of the full snapshot, K = 2..512
   (Sec. V-H): every rank extracts its whole partition (highest version)
   and the results are gathered at rank 0 with no global sort — the
   floor cost of accessing the whole snapshot.

   Per-rank extraction is measured on a real local store; the gather is
   priced by the network model (the root's ingress link serialises the
   K-1 payloads). *)

let nodes_sweep = [ 2; 4; 8; 16; 32; 64; 128; 256; 512 ]
let pair_bytes = 16

type local = { label : string; extract_s : float }

let measure_local ~n approach =
  let keys = Workload.Keygen.unique_keys ~seed:1 n in
  let values = Workload.Keygen.values ~seed:1 n in
  let instance, _ = approach.Approaches.fresh () in
  Approaches.run_ops instance (Workload.Opgen.insert_phase ~keys ~values ~threads:1).(0);
  let extract () =
    match instance with
    | Approaches.Instance ((module S), t) -> ignore (S.extract_snapshot t ())
  in
  ignore (Sim.Calibrate.time_s extract);
  let samples = Array.init 3 (fun _ -> Sim.Calibrate.time_s extract) in
  { label = approach.Approaches.label; extract_s = Sim.Calibrate.median samples }

let total_time net local ~n ~ranks =
  (* Extractions run in parallel on all ranks; then the gather. *)
  local.extract_s
  +. Sim.Simnet.gather_linear_s net ~ranks ~bytes_per_rank:(n * pair_bytes)

let run ~n =
  Report.header
    (Printf.sprintf
       "Figure 7: distributed snapshot gather (no merge), N=%d pairs/rank (modelled wire)" n);
  let net = Sim.Simnet.theta_like in
  let locals =
    List.map (measure_local ~n) [ Approaches.sqlitereg; Approaches.pskiplist ]
  in
  List.iter
    (fun l ->
      Printf.printf "measured local extract (%d pairs): %-10s %s\n" n l.label
        (Report.seconds l.extract_s))
    locals;
  Report.subheader "time to gather the full snapshot at rank 0";
  Report.series ~param:"nodes"
    ~columns:(List.map (fun l -> l.label) locals)
    ~rows:(List.map (fun k -> (string_of_int k, k)) nodes_sweep)
    ~cell:(fun i _ k -> Report.seconds (total_time net (List.nth locals i) ~n ~ranks:k));
  let reg = List.nth locals 0 and p = List.nth locals 1 in
  let speedup k = total_time net reg ~n ~ranks:k /. total_time net p ~n ~ranks:k in
  Printf.printf "PSkipList speedup over SQLiteReg: %.2fx at 8 nodes, %.2fx at 512 nodes\n"
    (speedup 8) (speedup 512);
  (* Paper: 5x at 8 nodes narrowing to 2x at 512 — the local extraction
     dominates at small K and the gather takes over at scale. The sign
     of the local gap does not reproduce here (our minidb engine scans
     packed pages with no SQL layer, see EXPERIMENTS.md), but the
     structure does: the approaches converge as K grows. *)
  let divergence k = Float.abs (log (speedup k)) in
  Report.shape_check ~label:"local extraction dominates at small K (approaches differ)"
    (divergence 8 > 0.2);
  Report.shape_check ~label:"gather dominates at large K (approaches converge)"
    (divergence 512 < divergence 8)
