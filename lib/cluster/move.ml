(* See move.mli. The coordinator is a plain client of the wire
   protocol: every phase is expressed as ordinary frames (Migrate_pull,
   History_batch, Range_seal/Unseal, Tag_at, topology save), so a
   coordinator crash never leaves shard-local state that a re-run
   cannot reconcile — pulls are reads, installs are idempotent
   (skip-count rule in Pskiplist.install_chains), seals are re-assertable
   and epoch-fenced. *)

type progress = {
  phase : string;
  round : int;
  keys : int;
  events : int;
}

type outcome = {
  rounds : int;
  keys_copied : int;
  events_copied : int;
  copy_ns : int;
  pause_ns : int;
  new_epoch : int;
}

type error =
  | Bad_args of string
  | Shard_error of { endpoint : string; reason : string }
  | Save_failed of string

let error_to_string = function
  | Bad_args m -> "bad arguments: " ^ m
  | Shard_error { endpoint; reason } ->
      Printf.sprintf "shard %s: %s" endpoint reason
  | Save_failed m -> "topology save failed: " ^ m

let c_moves = Obs.Registry.counter "move.completed"
let c_rounds = Obs.Registry.counter "move.rounds"
let c_keys = Obs.Registry.counter "move.keys_copied"
let c_events = Obs.Registry.counter "move.events_copied"
let c_resumed = Obs.Registry.counter "move.resumed"
let h_copy = Obs.Registry.histogram "move.copy_ns"
let h_round = Obs.Registry.histogram "move.round_ns"
let h_pause = Obs.Registry.histogram "move.pause_ns"
let g_active = Obs.Registry.gauge "move.active"

type ctx = {
  timeout_ms : int option;
  retries : int;
  page : int;
  lag : int;
  max_rounds : int;
  fault : string -> unit;
  notify : progress -> unit;
}

let connect ctx addr =
  Net.Client.connect ~retries:ctx.retries ?timeout_ms:ctx.timeout_ms addr

(* Probe a node's version clock: Tag_at 0 is unkeyed (never matches a
   sealed range) and mutates nothing, so it passes the write gate. The
   server answers only after draining other connections' in-flight
   mutations, so the reply is a publication barrier: every event ever
   stamped at or below it is already in the store's chains — which is
   exactly the guarantee the watermark rule below needs. *)
let clock_of c = Net.Client.tag_at c ~version:0

(* Ship every event of [lo, hi) above [since] from [src] to [dst],
   paging so one frame never carries more than [ctx.page] events.
   Returns (keys, events) shipped. [since] rides in every History_batch
   so the destination's skip-count install stays idempotent even when a
   page is replayed after a coordinator crash. *)
let copy_span ctx ~src ~dst ~lo ~hi ~since =
  Net.Client.page_chains ~lo ~hi
    ~pull:(fun ~lo -> Net.Client.migrate_pull src ~lo ~hi ~since ~limit:ctx.page)
    ~ship:(Net.Client.history_batch dst ~since)

(* The shared three-phase handoff engine. [rewrite] turns the current
   topology into the post-move one (set swap, split, or merge) — it runs
   exactly once, between seal and unseal, after the final diff landed.
   [dst_primary]/[dst_backups] are the range's owners after [rewrite]. *)
let handoff ctx ~topo_path ~(topo : Topology.t) ~src_addr ~dst_primary
    ~dst_backups ~lo ~hi ~rewrite =
  Obs.Metric.set g_active 1;
  Fun.protect ~finally:(fun () -> Obs.Metric.set g_active 0)
  @@ fun () ->
  let next_epoch = Topology.epoch topo + 1 in
  let dst_ep = Net.Sockaddr.to_string dst_primary in
  let src = connect ctx src_addr in
  let dst = connect ctx dst_primary in
  Fun.protect ~finally:(fun () ->
      (try Net.Client.close src with _ -> ());
      try Net.Client.close dst with _ -> ())
  @@ fun () ->
  (* ---- phase 1: bulk copy + catch-up rounds ---------------------- *)
  let t0 = Obs.Clock.now_ns () in
  let keys_total = ref 0 and events_total = ref 0 and rounds = ref 0 in
  let watermark = ref 0 in
  let converged = ref false in
  ctx.fault "pre_copy";
  while (not !converged) && !rounds < ctx.max_rounds do
    let r0 = Obs.Clock.now_ns () in
    (* Watermark rule: probe the source clock *before* pulling, so the
       next round's [since] cannot skip a write that raced this round's
       pages. Overlap is harmless — install is idempotent. *)
    let clock = clock_of src in
    let since = !watermark in
    let keys, events = copy_span ctx ~src ~dst ~lo ~hi ~since in
    keys_total := !keys_total + keys;
    events_total := !events_total + events;
    incr rounds;
    Obs.Metric.incr c_rounds;
    Obs.Histogram.record h_round (Obs.Clock.now_ns () - r0);
    ctx.notify { phase = "copy"; round = !rounds; keys; events };
    watermark := clock;
    (* The first round ships the bulk; once a whole round moves no more
       than [lag] events the remaining delta is small enough to ship
       under the seal. *)
    if !rounds > 1 && events <= ctx.lag then converged := true
  done;
  let copy_ns = Obs.Clock.now_ns () - t0 in
  Obs.Histogram.record h_copy copy_ns;
  Obs.Metric.add c_keys !keys_total;
  Obs.Metric.add c_events !events_total;
  (* ---- phase 2: cutover ------------------------------------------ *)
  ctx.fault "pre_seal";
  let p0 = Obs.Clock.now_ns () in
  Net.Client.range_seal src ~lo ~hi ~epoch:next_epoch ~endpoint:dst_ep;
  ctx.fault "sealed";
  (* Final diff under the seal: no writer can race it, so after this
     the destination's copy of [lo, hi) is exact. *)
  let keys, events = copy_span ctx ~src ~dst ~lo ~hi ~since:!watermark in
  keys_total := !keys_total + keys;
  events_total := !events_total + events;
  ctx.notify { phase = "cutover"; round = !rounds; keys; events };
  (* Advance the destination's clock to at least the source's, so a
     reader that saw version V on the old owner finds the history at V
     on the new one. Tag_at is advance-only server-side via the probe:
     take the max so a merge destination's own clock is never lowered. *)
  let src_clock = clock_of src in
  let dst_clock = clock_of dst in
  if src_clock > dst_clock then
    ignore (Net.Client.tag_at dst ~version:src_clock);
  (* ---- phase 3: publish ------------------------------------------ *)
  ctx.fault "pre_save";
  let topo' = rewrite topo in
  assert (Topology.epoch topo' = next_epoch);
  (match Topology.save topo' topo_path with
  | Ok () -> ()
  | Error m -> failwith ("__save__ " ^ m));
  ctx.fault "saved";
  (* Epoch-adoption fence: ping the new owners with the new epoch
     stamped, so they reject stale-epoch writers from the moment the
     seal lifts. A ping failure here is non-fatal — the epoch also
     propagates on first contact. *)
  let fence addr =
    try
      let c = connect ctx addr in
      Net.Client.set_epoch c next_epoch;
      (try Net.Client.ping c with _ -> ());
      Net.Client.close c
    with _ -> ()
  in
  fence dst_primary;
  Array.iter fence dst_backups;
  (* Lift the seal last: from here the old owner answers Moved with the
     already-published epoch, and routers chase it. *)
  Net.Client.set_epoch src next_epoch;
  (try Net.Client.range_unseal src ~lo ~hi
   with _ -> () (* old owner may already be gone; seal dies with it *));
  let pause_ns = Obs.Clock.now_ns () - p0 in
  Obs.Histogram.record h_pause pause_ns;
  Obs.Metric.incr c_moves;
  ctx.notify { phase = "done"; round = !rounds; keys = 0; events = 0 };
  {
    rounds = !rounds;
    keys_copied = !keys_total;
    events_copied = !events_total;
    copy_ns;
    pause_ns;
    new_epoch = next_epoch;
  }

let wrap f =
  match f () with
  | r -> Ok r
  | exception Failure m when String.length m > 8 && String.sub m 0 8 = "__save__"
    ->
      Error (Save_failed (String.sub m 9 (String.length m - 9)))
  | exception Invalid_argument m -> Error (Bad_args m)
  | exception
      (( Net.Client.Remote_error _ | Net.Client.Protocol_error _
       | Unix.Unix_error _ | End_of_file ) as e) ->
      Error (Shard_error { endpoint = "?"; reason = Net.Client.describe_exn e })

let default_notify _ = ()
let default_fault _ = ()

let make_ctx ?timeout_ms ?(retries = 2) ?(page = 4096) ?(lag = 64)
    ?(max_rounds = 16) ?(fault = default_fault) ?(notify = default_notify) () =
  if page <= 0 then invalid_arg "move: page must be positive";
  if max_rounds < 2 then invalid_arg "move: need at least 2 rounds";
  { timeout_ms; retries; page; lag; max_rounds; fault; notify }

let same_set a b =
  Array.length a = Array.length b
  && Array.for_all2 (fun x y -> Net.Sockaddr.to_string x = Net.Sockaddr.to_string y) a b

let move ?timeout_ms ?retries ?page ?lag ?max_rounds ?fault ?notify ~topo_path
    topo ~shard ~(dest : Net.Sockaddr.t array) () =
  wrap @@ fun () ->
  let ctx = make_ctx ?timeout_ms ?retries ?page ?lag ?max_rounds ?fault ?notify () in
  if shard < 0 || shard >= Topology.shards topo then
    invalid_arg (Printf.sprintf "move: no shard %d" shard);
  if Array.length dest = 0 then invalid_arg "move: empty destination set";
  let lo, hi = Topology.range topo shard in
  let src_addr = Topology.primary topo shard in
  let current = Topology.replicas topo shard in
  if same_set current dest then begin
    (* Resume after a crash between save and unseal: the topology
       already names [dest]; just re-run the fence and clear any
       orphaned seal on the old primary (which is dest.(0) now — the
       pre-save primary is unknown, its in-memory seal dies with it;
       see the crash matrix in DESIGN.md §8). *)
    Obs.Metric.incr c_resumed;
    let fence addr =
      try
        let c = connect ctx addr in
        Net.Client.set_epoch c (Topology.epoch topo);
        (try Net.Client.ping c with _ -> ());
        (try Net.Client.range_unseal c ~lo ~hi with _ -> ());
        Net.Client.close c
      with _ -> ()
    in
    Array.iter fence dest;
    {
      rounds = 0;
      keys_copied = 0;
      events_copied = 0;
      copy_ns = 0;
      pause_ns = 0;
      new_epoch = Topology.epoch topo;
    }
  end
  else
    handoff ctx ~topo_path ~topo ~src_addr ~dst_primary:dest.(0)
      ~dst_backups:(Array.sub dest 1 (Array.length dest - 1))
      ~lo ~hi
      ~rewrite:(fun topo -> Topology.with_set topo ~shard dest)

let split ?timeout_ms ?retries ?page ?lag ?max_rounds ?fault ?notify ~topo_path
    topo ~shard ~at ~(dest : Net.Sockaddr.t array) () =
  wrap @@ fun () ->
  let ctx = make_ctx ?timeout_ms ?retries ?page ?lag ?max_rounds ?fault ?notify () in
  if shard < 0 || shard >= Topology.shards topo then
    invalid_arg (Printf.sprintf "split: no shard %d" shard);
  if Array.length dest = 0 then invalid_arg "split: empty destination set";
  let lo, hi = Topology.range topo shard in
  if at <= lo || at >= hi then
    invalid_arg
      (Printf.sprintf "split: point %d outside shard %d's range [%d, %d)" at
         shard lo hi);
  let src_addr = Topology.primary topo shard in
  (* Only the upper half [at, hi) moves; the source keeps [lo, at). *)
  handoff ctx ~topo_path ~topo ~src_addr ~dst_primary:dest.(0)
    ~dst_backups:(Array.sub dest 1 (Array.length dest - 1))
    ~lo:at ~hi
    ~rewrite:(fun topo -> Topology.split_range topo ~shard ~at dest)

let merge ?timeout_ms ?retries ?page ?lag ?max_rounds ?fault ?notify ~topo_path
    topo ~shard () =
  wrap @@ fun () ->
  let ctx = make_ctx ?timeout_ms ?retries ?page ?lag ?max_rounds ?fault ?notify () in
  if shard < 0 || shard >= Topology.shards topo - 1 then
    invalid_arg
      (Printf.sprintf "merge: shard %d has no right neighbour" shard);
  (* The right neighbour's range folds into [shard]: copy it over, then
     rewrite. The destination keeps its own clock if higher (merge is
     the one case where the dest may be ahead of the source). *)
  let lo, hi = Topology.range topo (shard + 1) in
  let src_addr = Topology.primary topo (shard + 1) in
  handoff ctx ~topo_path ~topo ~src_addr
    ~dst_primary:(Topology.primary topo shard)
    ~dst_backups:(Topology.backups topo shard)
    ~lo ~hi
    ~rewrite:(fun topo -> Topology.merge_range topo ~shard)

let status ?timeout_ms ?(retries = 2) topo =
  List.init (Topology.shards topo) (fun shard ->
      let addr = Topology.primary topo shard in
      let ep = Net.Sockaddr.to_string addr in
      match
        let c = Net.Client.connect ~retries ?timeout_ms addr in
        Fun.protect ~finally:(fun () -> try Net.Client.close c with _ -> ())
        @@ fun () -> Net.Client.moves_status c
      with
      | json -> (shard, ep, Ok json)
      | exception e -> (shard, ep, Error (Net.Client.describe_exn e)))
