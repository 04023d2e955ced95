(* fig_gc — steady-state overwrite churn with and without a retention
   window (the online GC subsystem).

   Two identical workloads hammer a fixed key set with blob-encoded
   overwrites (values < 0 defeat the inline-int codec, so every update
   allocates and footprint growth is visible in pmem.live_bytes):

   - "unretained": plain churn. Histories grow one entry per overwrite,
     so live_bytes must grow monotonically round over round — this is
     the unbounded-history failure mode the GC exists for.
   - "retained": the same churn with a background GC domain running
     retain ~keep against the live store, plus one final retain for a
     deterministic end state. live_bytes must plateau: the end-of-run
     footprint stays under 2x the working set (one round's live data
     plus allocator slack, measured after the first round + retain).

   After the retained run's final retain, one more pass drops nothing:
   its time and minor words per key are what a pass costs a store with
   no garbage, all of it with the store's gate closed. Then one more
   overwrite round, and the pass that drops the oldest record of every
   key: it frees a blob and rewrites a history per key.

   Results land as gc.bench.* gauges in BENCH_gc.json next to the
   gc.pause_ns histogram and the gc.* counters the store itself
   maintains; the smoke gate in main.ml reads them back. *)

module Store = Mvdict.Pskiplist.Make (Mvdict.Codec.Int_key) (Mvdict.Codec.Int_value)

type result = {
  working_set : int;
      (** live_bytes once the retention window first fills (after
          [keep_versions + 1] rounds + retain) — the footprint the
          retained run is entitled to hold *)
  retained_final : int;  (** live_bytes at end of retained run *)
  unretained_first : int;  (** live_bytes after round 1, no GC *)
  unretained_final : int;  (** live_bytes at end of un-retained run *)
  unretained_monotonic : bool;  (** per-round live_bytes never shrank *)
  retained_ops : float;  (** overwrites/s with GC on *)
  unretained_ops : float;  (** overwrites/s without GC *)
}

let live_bytes heap = Pmem.Pstats.live_bytes (Pmem.Pheap.stats heap)

(* Blob-encoded value, unique per (round, key) so every overwrite is a
   fresh allocation. *)
let value ~keys ~round k = -((round * keys) + k + 1)

let one_round store ~keys ~round =
  for k = 0 to keys - 1 do
    Store.insert store k (value ~keys ~round k)
  done;
  ignore (Store.tag store)

let keep_versions = 4

let run_retained ~keys ~rounds heap =
  let store = Store.create heap in
  let t0 = Unix.gettimeofday () in
  (* Warm up until the retention window is full: with keep = K, steady
     state holds K versions per key plus the floor entry, so the honest
     working set is the footprint after K+1 rounds, each followed by a
     retain. *)
  let warmup = min rounds (keep_versions + 1) in
  for round = 1 to warmup do
    one_round store ~keys ~round;
    ignore (Store.retain store ~keep:keep_versions)
  done;
  let working_set = live_bytes heap in
  (* The background domain exercises the online path (gate + quiesce)
     concurrently with the writer; the final retain pins the end state
     so the plateau measurement is deterministic. *)
  let gc = Store.gc_start store ~interval_ms:5 ~keep:keep_versions () in
  for round = warmup + 1 to rounds do
    one_round store ~keys ~round
  done;
  Store.gc_stop gc;
  ignore (Store.retain store ~keep:keep_versions);
  let wall = Unix.gettimeofday () -. t0 in
  let live = live_bytes heap in
  (* A retain's milliseconds and minor words per key. *)
  let timed_pass () =
    let w0 = Gc.minor_words () and p0 = Unix.gettimeofday () in
    ignore (Store.retain store ~keep:keep_versions);
    (1e3 *. (Unix.gettimeofday () -. p0), (Gc.minor_words () -. w0) /. float_of_int keys)
  in
  (* No tag since the last retain: the same horizon, nothing to drop. *)
  let idle = timed_pass () in
  one_round store ~keys ~round:(rounds + 1);
  let rewrite = timed_pass () in
  (working_set, live, float_of_int (keys * rounds) /. wall, idle, rewrite)

let run_unretained ~keys ~rounds heap =
  let store = Store.create heap in
  let t0 = Unix.gettimeofday () in
  let samples = Array.make rounds 0 in
  for round = 1 to rounds do
    one_round store ~keys ~round;
    samples.(round - 1) <- live_bytes heap
  done;
  let wall = Unix.gettimeofday () -. t0 in
  let monotonic = ref true in
  for i = 1 to rounds - 1 do
    if samples.(i) < samples.(i - 1) then monotonic := false
  done;
  (samples.(0), samples.(rounds - 1), !monotonic, float_of_int (keys * rounds) /. wall)

let run ~keys ~rounds =
  Printf.printf
    "\n== fig gc: overwrite churn footprint, retained vs unretained ==\n";
  Printf.printf "   %d keys x %d rounds of blob overwrites (retain last %d versions)\n%!"
    keys rounds keep_versions;
  let capacity = max (1 lsl 24) (keys * rounds * 256) in
  let retained_heap = Pmem.Pheap.create_ram ~capacity () in
  let ( working_set,
        retained_final,
        retained_ops,
        (idle_pass_ms, idle_pass_words_per_key),
        (rewrite_pass_ms, rewrite_pass_words_per_key) ) =
    run_retained ~keys ~rounds retained_heap
  in
  let unretained_heap = Pmem.Pheap.create_ram ~capacity () in
  let unretained_first, unretained_final, unretained_monotonic, unretained_ops =
    run_unretained ~keys ~rounds unretained_heap
  in
  let set name v = Obs.Metric.set (Obs.Registry.gauge name) v in
  set "gc.bench.working_set_bytes" working_set;
  set "gc.bench.live_bytes.retained" retained_final;
  set "gc.bench.live_bytes.unretained" unretained_final;
  set "gc.bench.ops_per_sec.retained" (int_of_float retained_ops);
  set "gc.bench.ops_per_sec.unretained" (int_of_float unretained_ops);
  set "gc.bench.idle_pass_us" (int_of_float (1e3 *. idle_pass_ms));
  set "gc.bench.idle_pass_minor_words_per_key"
    (int_of_float (Float.round idle_pass_words_per_key));
  set "gc.bench.rewrite_pass_us" (int_of_float (1e3 *. rewrite_pass_ms));
  set "gc.bench.rewrite_pass_minor_words_per_key"
    (int_of_float (Float.round rewrite_pass_words_per_key));
  Printf.printf "   %-12s %14s %14s %12s\n" "run" "first (B)" "final (B)" "ops/s";
  Printf.printf "   %-12s %14d %14d %12.0f\n" "retained" working_set retained_final
    retained_ops;
  Printf.printf "   %-12s %14d %14d %12.0f\n" "unretained" unretained_first
    unretained_final unretained_ops;
  Printf.printf "   a pass that drops nothing: %.3f ms, %.2f minor words per key\n"
    idle_pass_ms idle_pass_words_per_key;
  Printf.printf "   a pass that rewrites every key: %.3f ms, %.2f minor words per key\n"
    rewrite_pass_ms rewrite_pass_words_per_key;
  Printf.printf "   [shape] retained plateau: %d < 2x working set %d -> %b\n"
    retained_final (2 * working_set)
    (retained_final < 2 * working_set);
  Printf.printf "   [shape] unretained grows monotonically -> %b\n%!"
    unretained_monotonic;
  {
    working_set;
    retained_final;
    unretained_first;
    unretained_final;
    unretained_monotonic;
    retained_ops;
    unretained_ops;
  }
