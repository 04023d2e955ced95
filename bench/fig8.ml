(* Figure 8 — distributed extract snapshot with a global sort:
   NaiveMerge (gather everything at rank 0, K-way heap merge there) vs
   OptMerge (recursive doubling with the multi-threaded two-array merge,
   Sec. IV-A).

   Both merge algorithms are executed for real at small K to calibrate
   per-element costs and verify agreement; the K sweep combines those
   measured rates with the round schedule and the network model. The
   local extraction cost is the PSkipList one (both variants pay it). *)

let nodes_sweep = [ 2; 4; 8; 16; 32; 64; 128; 256; 512 ]
let pair_bytes = 16
let merge_threads = 64
let mt_merge_efficiency = 0.8 (* partition overhead of the MT merge *)

type rates = {
  two_way_ns : float; (* per element *)
  k_way_ns : float; (* per element per log2 K *)
}

let calibrate_rates () =
  (* Disjoint sorted inputs, as range partitioning produces. *)
  let k = 16 and per = 20_000 in
  let inputs = Array.init k (fun r -> Array.init per (fun i -> ((i * k) + r, r))) in
  let t_kway =
    Sim.Calibrate.time_s (fun () -> ignore (Sim.Merge.k_way (Array.map Array.copy inputs)))
  in
  let a = Array.init (k * per / 2) (fun i -> (2 * i, 0)) in
  let b = Array.init (k * per / 2) (fun i -> ((2 * i) + 1, 1)) in
  let t_two = Sim.Calibrate.time_s (fun () -> ignore (Sim.Merge.two_way a b)) in
  let elements = float_of_int (k * per) in
  {
    two_way_ns = t_two *. 1e9 /. elements;
    k_way_ns = t_kway *. 1e9 /. (elements *. log (float_of_int k) /. log 2.0);
  }

let log2f k = log (float_of_int k) /. log 2.0

let naive_s net rates ~n ~ranks =
  let total = n * ranks in
  Sim.Simnet.gather_linear_s net ~ranks ~bytes_per_rank:(n * pair_bytes)
  +. (float_of_int total *. log2f ranks *. rates.k_way_ns /. 1e9)

let opt_s net rates ~n ~ranks =
  (* Round r (1-based): surviving pairs exchange arrays of n * 2^(r-1)
     pairs in parallel, then each survivor runs the multi-threaded merge
     over n * 2^r elements. *)
  let rounds = Sim.Simnet.rounds ranks in
  let total = ref 0.0 in
  for r = 1 to rounds do
    let incoming = n * (1 lsl (r - 1)) in
    let merged = n * (1 lsl r) in
    let wire = Sim.Simnet.transfer_s net ~bytes:(incoming * pair_bytes) in
    let merge =
      float_of_int merged *. rates.two_way_ns
      /. (float_of_int merge_threads *. mt_merge_efficiency)
      /. 1e9
    in
    total := !total +. wire +. merge
  done;
  !total

let run ~n =
  Report.header
    (Printf.sprintf
       "Figure 8: distributed extract snapshot, NaiveMerge vs OptMerge, N=%d pairs/rank" n);
  let net = Sim.Simnet.theta_like in
  let rates = calibrate_rates () in
  Printf.printf "calibrated merge rates: two-way %.1f ns/elt, k-way %.1f ns/elt/log2K\n"
    rates.two_way_ns rates.k_way_ns;

  (* Real end-to-end verification at small K: K real stores, each
     filled with the keys its range owns, extracted and merged by both
     strategies, must agree element for element. *)
  let module Local = Mvdict.Eskiplist in
  let verify_k = 8 and key_bits = 24 in
  let width = (1 lsl key_bits) / verify_k in
  let locals = Array.init verify_k (fun _ -> Local.create ()) in
  let keys = Workload.Keygen.unique_keys ~seed:9 (verify_k * 2000) in
  Array.iter
    (fun k ->
      let key = k land ((1 lsl key_bits) - 1) in
      Local.insert locals.(key / width) key k)
    keys;
  let extracts =
    Array.map
      (fun s ->
        ignore (Local.tag s);
        Local.extract_snapshot s ())
      locals
  in
  let naive = Sim.Merge.k_way extracts in
  let opt = Sim.Merge.recursive_doubling ~threads:4 extracts in
  Report.shape_check
    ~label:(Printf.sprintf "real NaiveMerge = OptMerge at K=%d (%d pairs)" verify_k
              (Array.length naive))
    (naive = opt && Sim.Merge.is_sorted naive);

  Report.subheader "merge completion time at rank 0 (extraction excluded)";
  Report.series ~param:"nodes" ~columns:[ "NaiveMerge"; "OptMerge"; "speedup" ]
    ~rows:(List.map (fun k -> (string_of_int k, k)) nodes_sweep)
    ~cell:(fun i _ k ->
      match i with
      | 0 -> Report.seconds (naive_s net rates ~n ~ranks:k)
      | 1 -> Report.seconds (opt_s net rates ~n ~ranks:k)
      | _ ->
          Printf.sprintf "%.1fx"
            (naive_s net rates ~n ~ranks:k /. opt_s net rates ~n ~ranks:k));
  let speedup_512 = naive_s net rates ~n ~ranks:512 /. opt_s net rates ~n ~ranks:512 in
  Printf.printf "OptMerge speedup at 512 nodes: %.1fx\n" speedup_512;
  Report.shape_check ~label:"OptMerge ~50x faster at 512 nodes (>= 10x)" (speedup_512 >= 10.0);
  Report.shape_check ~label:"both degrade by orders of magnitude from 2 to 512"
    (naive_s net rates ~n ~ranks:512 /. naive_s net rates ~n ~ranks:2 > 100.0)
