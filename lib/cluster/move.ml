(* See move.mli. The coordinator is a plain client of the wire
   protocol: every phase is expressed as ordinary frames (Epoch_probe,
   Migrate_pull, Range_drop, History_batch, Range_seal/Unseal, Tag_at,
   topology save), so a coordinator crash never leaves shard-local
   state that a re-run cannot reconcile — pulls are reads, installs are
   idempotent (skip-count rule in Pskiplist.install_chains) above the
   source's horizon and start from a dropped range below it, seals are
   re-assertable and epoch-fenced. *)

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
let c_resets = Obs.Registry.counter "move.resets"
let h_copy = Obs.Registry.histogram "move.copy_ns"
let h_round = Obs.Registry.histogram "move.round_ns"
let h_pause = Obs.Registry.histogram "move.pause_ns"
let g_active = Obs.Registry.gauge "move.active"

type ctx = {
  timeout_ms : int option;
  retries : int;
  fault : string -> unit;
  notify : progress -> unit;
}

(* Unsealed rounds before the cutover happens anyway, so a delta that
   shrinks slowly still ends. *)
let max_rounds = 16

(* The handoff copied the range, but the durable topology rewrite
   failed; [wrap] turns it into [Save_failed]. *)
exception Save_error of string

let connect ctx addr =
  Net.Client.connect ~retries:ctx.retries ?timeout_ms:ctx.timeout_ms addr

(* Epoch-adoption fence: a frame stamped with [epoch] makes [addr]
   reject stale-epoch writers from then on; with [unseal] that frame is
   the Range_unseal of the range. Non-fatal: a node that misses it
   adopts the epoch on first contact. *)
let fence ctx ~epoch ?unseal addr =
  try
    let c = connect ctx addr in
    Fun.protect ~finally:(fun () -> Net.Client.close c) @@ fun () ->
    Net.Client.set_epoch c epoch;
    match unseal with
    | Some (lo, hi) -> Net.Client.range_unseal c ~lo ~hi
    | None -> Net.Client.ping c
  with _ -> ()

(* The shared three-phase handoff engine. [rewrite] turns the current
   topology into the post-move one (set swap, split, or merge) — it runs
   exactly once, between seal and unseal, after the final round landed.
   [dest] is the range's replica set after [rewrite], primary first. *)
let handoff ctx ~topo_path ~(topo : Topology.t) ~src_addr ~dest ~lo ~hi ~rewrite =
  Obs.Metric.set g_active 1;
  Fun.protect ~finally:(fun () -> Obs.Metric.set g_active 0)
  @@ fun () ->
  let next_epoch = Topology.epoch topo + 1 in
  let dst_ep = Net.Sockaddr.to_string dest.(0) in
  let src = connect ctx src_addr in
  let dst = connect ctx dest.(0) in
  Fun.protect ~finally:(fun () ->
      Net.Client.close src;
      Net.Client.close dst)
  @@ fun () ->
  let keys_total = ref 0 and events_total = ref 0 and rounds = ref 0 in
  (* One round: every event of [lo, hi) above [since], under the
     source's horizon rule. Watermark rule: the next round's [since] is
     the clock this round probed before pulling, so it cannot skip a
     write that raced this round's pages. Overlap is harmless — install
     is idempotent. *)
  let copy ~since =
    let r =
      Net.Client.copy_range ~lo ~hi ~since
        ~probe:(fun () -> let _, clock, h = Net.Client.epoch_probe src in (clock, h))
        ~pull:(fun ~since ~lo ~limit -> Net.Client.migrate_pull src ~lo ~hi ~since ~limit)
        ~ship:(fun req -> ignore (Net.Client.mutate dst req))
    in
    keys_total := !keys_total + r.keys;
    events_total := !events_total + r.events;
    Obs.Metric.add c_resets r.resets;
    r
  in
  (* ---- phase 1: bulk copy + catch-up rounds ---------------------- *)
  let t0 = Obs.Clock.now_ns () in
  ctx.fault "pre_copy";
  (* The first round ships the bulk. Seal once a round ships nothing,
     or no fewer events than the round before it: the copy has stopped
     gaining on the writers, and the sealed round makes it exact
     whatever it leaves. Returns the last round's watermark. *)
  let rec rounds_from ~since ~prev =
    let r0 = Obs.Clock.now_ns () in
    let { Net.Client.keys; events; clock; _ } = copy ~since in
    incr rounds;
    Obs.Metric.incr c_rounds;
    Obs.Histogram.record h_round (Obs.Clock.now_ns () - r0);
    ctx.notify { phase = "copy"; round = !rounds; keys; events };
    if events > 0 && events < prev && !rounds < max_rounds then
      rounds_from ~since:clock ~prev:events
    else clock
  in
  let watermark = rounds_from ~since:0 ~prev:max_int in
  let copy_ns = Obs.Clock.now_ns () - t0 in
  Obs.Histogram.record h_copy copy_ns;
  Obs.Metric.add c_keys !keys_total;
  Obs.Metric.add c_events !events_total;
  (* ---- phase 2: cutover ------------------------------------------ *)
  ctx.fault "pre_seal";
  let p0 = Obs.Clock.now_ns () in
  Net.Client.range_seal src ~lo ~hi ~epoch:next_epoch ~endpoint:dst_ep;
  ctx.fault "sealed";
  (* Final round under the seal: no writer or tagger can race it, so
     after this the destination's copy of [lo, hi) is exact, and the
     clock the round probed is the source's. *)
  let { Net.Client.keys; events; clock; _ } = copy ~since:watermark in
  ctx.notify { phase = "cutover"; round = !rounds; keys; events };
  (* Raise the destination's clock to the source's, so a reader that
     saw version V on the old owner finds the history at V on the new
     one. Tag_at only raises a clock, so a merge destination ahead of
     the source keeps its own; a clock of 0 has nothing to raise. *)
  if clock > 0 then ignore (Net.Client.tag_at dst ~version:clock);
  (* ---- phase 3: publish ------------------------------------------ *)
  ctx.fault "pre_save";
  let topo' = rewrite topo in
  assert (Topology.epoch topo' = next_epoch);
  (match Topology.save topo' topo_path with
  | Ok () -> ()
  | Error m -> raise (Save_error m));
  ctx.fault "saved";
  (* Fence the new owners, so they reject stale-epoch writers from the
     moment the seal lifts. Then lift the seal last: from here the old
     owner answers Moved with the already-published epoch, and routers
     chase it (an old owner already gone takes its seal with it). *)
  Array.iter (fence ctx ~epoch:next_epoch) dest;
  fence ctx ~epoch:next_epoch ~unseal:(lo, hi) src_addr;
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

(* Run [f] on the options' context, its failures as [error]s. *)
let wrap ?timeout_ms ?(retries = 2) ?(fault = ignore) ?(notify = ignore) f =
  match f { timeout_ms; retries; fault; notify } with
  | r -> Ok r
  | exception Save_error m -> Error (Save_failed m)
  | exception Invalid_argument m -> Error (Bad_args m)
  | exception
      (( Net.Client.Remote_error _ | Net.Client.Protocol_error _
       | Unix.Unix_error _ | End_of_file ) as e) ->
      Error (Shard_error { endpoint = "?"; reason = Net.Client.describe_exn e })

let same_set a b =
  Array.length a = Array.length b
  && Array.for_all2 (fun x y -> Net.Sockaddr.to_string x = Net.Sockaddr.to_string y) a b

let move ?timeout_ms ?retries ?fault ?notify ~topo_path topo ~shard ~dest () =
  wrap ?timeout_ms ?retries ?fault ?notify @@ fun ctx ->
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
    let new_epoch = Topology.epoch topo in
    Array.iter (fence ctx ~epoch:new_epoch ~unseal:(lo, hi)) dest;
    { rounds = 0; keys_copied = 0; events_copied = 0; copy_ns = 0; pause_ns = 0; new_epoch }
  end
  else
    handoff ctx ~topo_path ~topo ~src_addr ~dest ~lo ~hi
      ~rewrite:(fun topo -> Topology.with_set topo ~shard dest)

let split ?timeout_ms ?retries ?fault ?notify ~topo_path topo ~shard ~at ~dest () =
  wrap ?timeout_ms ?retries ?fault ?notify @@ fun ctx ->
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
  handoff ctx ~topo_path ~topo ~src_addr ~dest ~lo:at ~hi
    ~rewrite:(fun topo -> Topology.split_range topo ~shard ~at dest)

let merge ?timeout_ms ?retries ?fault ?notify ~topo_path topo ~shard () =
  wrap ?timeout_ms ?retries ?fault ?notify @@ fun ctx ->
  if shard < 0 || shard >= Topology.shards topo - 1 then
    invalid_arg
      (Printf.sprintf "merge: shard %d has no right neighbour" shard);
  (* The right neighbour's range folds into [shard]: copy it over, then
     rewrite. The destination keeps its own clock if higher (merge is
     the one case where the dest may be ahead of the source). *)
  let lo, hi = Topology.range topo (shard + 1) in
  let src_addr = Topology.primary topo (shard + 1) in
  handoff ctx ~topo_path ~topo ~src_addr ~dest:(Topology.replicas topo shard) ~lo ~hi
    ~rewrite:(fun topo -> Topology.merge_range topo ~shard)

let status ?timeout_ms ?(retries = 2) topo =
  List.init (Topology.shards topo) (fun shard ->
      let addr = Topology.primary topo shard in
      let ep = Net.Sockaddr.to_string addr in
      match
        let c = Net.Client.connect ~retries ?timeout_ms addr in
        Fun.protect ~finally:(fun () -> Net.Client.close c)
        @@ fun () -> Net.Client.moves_status c
      with
      | json -> (shard, ep, Ok json)
      | exception e -> (shard, ep, Error (Net.Client.describe_exn e)))
