(* fig_obs — instrumentation overhead of the lib/obs layer.

   The observability layer promises that a *disabled* instrumentation
   site costs one atomic add and nothing else, so production code can
   keep its probes compiled in. This figure prices that promise: a
   fixed CPU-bound operation (a few hundred xorshift rounds, ~1us) is
   run under four instrumentation regimes and the per-op cost compared:

     baseline  no instrumentation at all
     counters  Instr probes present, Control disabled (counter only)
     timed     Control enabled — clock reads + histogram record
     full      timed + a span per op feeding an installed Tracebuf ring
     sampled   timed + router-style trace origination at 1% — the
               regime a production cluster actually runs: most ops pay
               one coin flip, the sampled few open a context + root
               span

   Per mode we take the best of several repetitions (min filters
   scheduler noise), run round-robin across the modes so that drift in
   host speed lands on every mode alike rather than on whichever mode
   ran last, and record it as an `obs.bench.ns_per_op.<mode>` gauge, so
   the numbers land in BENCH_obs.json next to the `obs.bench.op.ns`
   histogram the timed modes populate. Each mode's minor words per op
   are counted over the same timed reps: a count that does not drift
   with the host. The smoke gates read the returned assoc list:
   counters-mode must stay within 5% of baseline, or the "always-on
   counters are free" claim has rotted, and the counters and timed
   modes must allocate nothing per op. *)

let m_op = Obs.Instr.op "obs.bench.op"

(* Deterministic xorshift work unit: no allocation, no memory traffic,
   so the measured delta between modes is pure instrumentation cost. *)
let iters_per_op = 512

let work x0 =
  let x = ref x0 in
  for _ = 1 to iters_per_op do
    let v = !x in
    let v = v lxor (v lsl 13) in
    let v = v lxor (v lsr 7) in
    let v = v lxor (v lsl 17) in
    x := v land max_int
  done;
  !x

(* The span bodies take the accumulator's value and return the next
   one, so no closure captures [acc]: it stays a local, and the modes
   without spans allocate nothing per rep either. *)
let run_ops mode ~n =
  let acc = ref 0x9E3779B9 in
  (match mode with
  | `Baseline -> for _ = 1 to n do acc := work !acc done
  | `Counters | `Timed ->
      for _ = 1 to n do
        let t0 = Obs.Instr.start () in
        acc := work !acc;
        Obs.Instr.finish m_op t0
      done
  | `Full ->
      for _ = 1 to n do
        let x = !acc in
        acc :=
          Obs.Span.with_ "obs.bench.op" (fun () ->
              let t0 = Obs.Instr.start () in
              let x = work x in
              Obs.Instr.finish m_op t0;
              x)
      done
  | `Sampled ->
      (* Mirrors Cluster.Router.traced: coin per op, winners get a
         fresh context + root span, losers run bare. *)
      for _ = 1 to n do
        if Obs.Traceid.coin ~rate:0.01 () then begin
          let x = !acc in
          acc :=
            Obs.Span.with_context
              (Some
                 {
                   Obs.Span.trace = Obs.Traceid.generate ();
                   parent = 0;
                   sampled = true;
                 })
              (fun () ->
                Obs.Span.with_ "obs.bench.op" (fun () ->
                    let t0 = Obs.Instr.start () in
                    let x = work x in
                    Obs.Instr.finish m_op t0;
                    x))
        end
        else begin
          let t0 = Obs.Instr.start () in
          acc := work !acc;
          Obs.Instr.finish m_op t0
        end
      done);
  ignore (Sys.opaque_identity !acc)

(* Processor time, not wall time: a rep that other processes preempt
   (dune runs test binaries side by side) is charged only for the time
   it ran. Returns the rep's time and the minor words its ops
   allocated; both clocks are read unboxed, so they add none. *)
let time_rep mode ~n =
  let w0 = Gc.minor_words () in
  let t0 = Sys.time () in
  run_ops mode ~n;
  let t1 = Sys.time () in
  let w1 = Gc.minor_words () in
  (t1 -. t0, w1 -. w0)

(* Switch the process to [mode]'s instrumentation regime. *)
let enter ring = function
  | `Baseline | `Counters ->
      Obs.Span.set_sink None;
      Obs.Control.disable ()
  | `Timed ->
      Obs.Span.set_sink None;
      Obs.Control.enable ()
  | `Full | `Sampled ->
      Obs.Tracebuf.install ring;
      Obs.Control.enable ()

let modes =
  [
    ("baseline", `Baseline);
    ("counters", `Counters);
    ("timed", `Timed);
    ("full", `Full);
    ("sampled", `Sampled);
  ]

let reps = 20

type result = {
  ns_per_op : float;  (** best rep *)
  minor_words_per_op : float;  (** over every timed rep *)
}

(* Returns [(mode, result)]; also records the gauges the smoke
   validation reads back out of BENCH_obs.json. *)
let run ~n =
  Printf.printf "\n== fig obs: instrumentation overhead (%d ops, best of %d, round-robin) ==\n%!"
    n reps;
  let was_enabled = Obs.Control.is_enabled () in
  let ring = Obs.Tracebuf.create ~capacity:1024 in
  let results =
    Fun.protect
      ~finally:(fun () ->
        Obs.Span.set_sink None;
        if was_enabled then Obs.Control.enable () else Obs.Control.disable ())
      (fun () ->
        (* Warm the icache/branch predictors off the clock. *)
        List.iter
          (fun (_, mode) ->
            enter ring mode;
            run_ops mode ~n:(min n 256))
          modes;
        (* Finish the major GC cycle earlier figures left open, so its
           slices are not charged to the modes that allocate. *)
        Gc.full_major ();
        let best = Array.make (List.length modes) infinity in
        let words = Array.make (List.length modes) 0. in
        for _ = 1 to reps do
          List.iteri
            (fun i (_, mode) ->
              enter ring mode;
              let secs, w = time_rep mode ~n in
              best.(i) <- Float.min best.(i) (secs *. 1e9 /. float_of_int n);
              words.(i) <- words.(i) +. w)
            modes
        done;
        List.mapi
          (fun i (name, _) ->
            Obs.Metric.set
              (Obs.Registry.gauge (Printf.sprintf "obs.bench.ns_per_op.%s" name))
              (int_of_float best.(i));
            ( name,
              {
                ns_per_op = best.(i);
                minor_words_per_op = words.(i) /. float_of_int (reps * n);
              } ))
          modes)
  in
  let baseline = (List.assoc "baseline" results).ns_per_op in
  Printf.printf "   %-10s %10s %10s %10s\n" "mode" "ns/op" "vs base" "words/op";
  List.iter
    (fun (name, r) ->
      Printf.printf "   %-10s %10.1f %9.2fx %10.4f\n" name r.ns_per_op
        (r.ns_per_op /. baseline) r.minor_words_per_op)
    results;
  Printf.printf "   trace ring captured %d span(s) in full mode\n%!"
    (List.length (Obs.Tracebuf.dump ring));
  results
