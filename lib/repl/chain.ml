(* See chain.mli. One mutex orders the primary's mutations: the server
   hands each one to [on_mutation] with the thunk that applies it, and
   the chain holds the mutex from before that apply until its forward
   is sent. So every backup receives the mutations in the order the
   primary applied them, and stamps each with the version the primary
   did. This is the chain's throughput ceiling, priced against the
   unreplicated baseline in `bench --fig repl`.

   No drain waits on a thread that waits for it. The drains, a clock
   probe ([Tag_at 0]) and [Range_seal], take no write flag and never
   this mutex. A flagged worker may wait here for the mutex, and the
   holder of the mutex (a forward, or a catch-up from [tick]) waits
   only on its backups' replies, bounded by the client timeout, never
   on a flag. So a drain waits at most for the holder's forward or
   catch-up to finish. *)

module S = Net.Server.S

type peer = {
  addr : Net.Sockaddr.t;
  mutable conn : Net.Client.t option;
  mutable lagging : bool;
  mutable synced : int;
      (** the backup's clock as this chain's last [Tag_at] left it (-1
          before one): it then held every event at or below it *)
  mutable last_error : string option;
}

type peer_status = {
  addr : Net.Sockaddr.t;
  in_sync : bool;
  last_error : string option;
}

type t = { epoch : int Atomic.t; store : S.t; m : Mutex.t; peers : peer array }

let c_forwarded = Obs.Registry.counter "repl.forwarded"
let c_forward_errors = Obs.Registry.counter "repl.forward_errors"
let c_catchups = Obs.Registry.counter "repl.catchups"
let c_catchup_events = Obs.Registry.counter "repl.catchup_events"
let c_catchup_resets = Obs.Registry.counter "repl.catchup_resets"
let h_catch_up = Obs.Registry.histogram "repl.catch_up.ns"
let h_forward_ns = Obs.Registry.histogram "repl.forward_latency_ns"
let g_lagging = Obs.Registry.gauge "repl.lagging_backups"

(* Backup connections: a dead backup must not stall client writes for
   long (see chain.mli). *)
let timeout_ms = 2000
let retries = 1

let create ~epoch_cell ~store backups =
  let peers =
    Array.map
      (* lagging from birth: the first contact with each backup is a
         catch-up, which sends nothing when both sides start empty. *)
        (fun addr -> { addr; conn = None; lagging = true; synced = -1; last_error = None })
      backups
  in
  { epoch = epoch_cell; store; m = Mutex.create (); peers }

let update_lag_gauge t =
  Obs.Metric.set g_lagging
    (Array.fold_left (fun n p -> if p.lagging then n + 1 else n) 0 t.peers)

let drop_conn peer =
  (match peer.conn with
  | Some c -> ( try Net.Client.close c with _ -> ())
  | None -> ());
  peer.conn <- None

let note peer = function Net.Wire.Version v -> peer.synced <- v | _ -> ()

let ensure_conn peer =
  match peer.conn with
  | Some c -> c
  | None ->
      let c = Net.Client.connect ~retries ~timeout_ms peer.addr in
      peer.conn <- Some c;
      c

(* Every event above [since] of the keys in [0, max_int), which holds
   every cluster key space [0, 2^key_bits), shipped as pages of at most
   [Wire.batch_chunk] events. Returns the events sent. *)
let copy_chains t ship ~since =
  let pull ~lo =
    Array.of_list (S.pull_chains t.store ~lo ~hi:max_int ~since ~limit:Net.Wire.batch_chunk)
  in
  let ship chains = ship (Net.Wire.History_batch { since; chains }) in
  snd (Net.Client.page_chains ~pull ~ship ~lo:0 ~hi:max_int)

(* Empty a backup whose events are all at or below [upto]: remove its
   live keys, found by paged [Scan] (the markers land at its pending
   version, at most [upto]), then compact at [upto]. Every history then
   ends in a marker at or below the horizon, so the pass drops it whole
   and releases the key. *)
let empty_backup c ship ~upto =
  let keys = ref [] in
  ignore (Net.Client.scan c ~lo:0 ~hi:max_int (fun key _ -> keys := key :: !keys));
  List.iter
    (fun keys -> ship (Net.Wire.Remove_batch { keys }))
    (Net.Wire.chunks (Array.of_list !keys));
  ship (Net.Wire.Compact { before = upto })

(* Catch-up by version chains: see chain.mli for where the copy starts
   and why it is exact. The backup is emptied at the higher of its own
   and the primary's pending version, above any version it can hold,
   even after a copy that was cut off. A GC pass that raises the horizon
   during the copy may drop events the copy relied on, so the copy is
   redone the emptying way. The mutex keeps the primary's clock still,
   so [retain] raises the horizon at most once more. *)
let catch_up t peer =
  Obs.Span.with_ "repl.catch_up" @@ fun () ->
  let t0 = Obs.Instr.start () in
  let c = ensure_conn peer in
  let epoch = Atomic.get t.epoch in
  let ship req = ignore (Net.Client.replicate c ~epoch req) in
  let _, clock = Net.Client.epoch_probe c in
  let start = if peer.synced < 0 then max 0 (clock - 1) else min clock peer.synced in
  let current = S.current_version t.store in
  let upto = max clock current + 1 in
  let rec copy () =
    let h = S.horizon t.store in
    let since =
      if start >= h then start
      else begin
        Obs.Metric.incr c_catchup_resets;
        empty_backup c ship ~upto;
        0
      end
    in
    let sent = copy_chains t ship ~since in
    if S.horizon t.store > max since h then sent + copy () else sent
  in
  let sent = copy () in
  (* Align the clock last, so a backup never tags a state it does not
     have yet. *)
  note peer (Net.Client.replicate c ~epoch (Net.Wire.Tag_at { version = current }));
  Obs.Metric.incr c_catchups;
  Obs.Metric.add c_catchup_events sent;
  if t0 <> 0 then Obs.Histogram.record h_catch_up (Obs.Clock.now_ns () - t0);
  peer.lagging <- false;
  peer.last_error <- None

let mark_failed peer e =
  Obs.Metric.incr c_forward_errors;
  drop_conn peer;
  peer.lagging <- true;
  peer.last_error <- Some (Net.Client.describe_exn e)

(* Canonical form of an applied mutation, derived from the primary's
   response: backups must replay the *outcome*, not re-run a relative
   request against their own (possibly different) clock. *)
let canonical (req : Net.Wire.request) (resp : Net.Wire.response) :
    Net.Wire.request option =
  match (req, resp) with
  | _, Net.Wire.Error _ -> None
  | (Net.Wire.Tag | Net.Wire.Tag_at _), Net.Wire.Version v ->
      Some (Net.Wire.Tag_at { version = v })
  | ((Net.Wire.Insert _ | Net.Wire.Remove _ | Net.Wire.Compact _) as req), _ ->
      Some req
  (* Batches forward canonicalised (sorted, later duplicates winning) —
     the exact form the primary's store installed — so backups replay
     identical history events from one Replicate frame per batch. *)
  | Net.Wire.Insert_batch { pairs }, _ ->
      let pairs = Mvdict.Dict_intf.canonical_pairs ~compare:Int.compare (Array.to_list pairs) in
      Some (Net.Wire.Insert_batch { pairs = Array.of_list pairs })
  | Net.Wire.Remove_batch { keys }, _ ->
      let keys = Mvdict.Dict_intf.canonical_keys ~compare:Int.compare (Array.to_list keys) in
      Some (Net.Wire.Remove_batch { keys = Array.of_list keys })
  (* Migrated chains forward verbatim: the explicit version stamps are
     the canonical form (install is idempotent on the backup exactly as
     it was on the primary), so a new owner's backups converge on the
     moved range's exact histories. *)
  | (Net.Wire.History_batch _ as req), _ -> Some req
  | _ -> None

let forward_to t peer op =
  try
    if peer.lagging then
      (* The op is already applied locally, so the catch-up carries it:
         syncing replaces forwarding for this peer on this op. *)
      catch_up t peer
    else begin
      let c = ensure_conn peer in
      (* A span per hop: when the mutation arrived under a trace
         context (Traced frame → server srv.* span → this hook, all on
         one domain), the forward becomes a child span here and the
         outgoing Replicate frame carries the context on to the backup
         — the replica lane of the cluster-wide trace. *)
      Obs.Span.with_ "repl.forward" (fun () ->
          note peer (Net.Client.replicate c ~epoch:(Atomic.get t.epoch) op));
      Obs.Metric.incr c_forwarded
    end
  with e -> mark_failed peer e

let on_mutation t req apply =
  Mutex.lock t.m;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.m) @@ fun () ->
  let resp = apply () in
  (match canonical req resp with
  | None -> ()
  | Some op ->
      let t0 = Obs.Clock.now_ns () in
      Array.iter (fun peer -> forward_to t peer op) t.peers;
      update_lag_gauge t;
      Obs.Histogram.record h_forward_ns (Obs.Clock.now_ns () - t0));
  resp

let tick t =
  Mutex.lock t.m;
  Array.iter
    (fun peer ->
      if peer.lagging then try catch_up t peer with e -> mark_failed peer e)
    t.peers;
  update_lag_gauge t;
  Mutex.unlock t.m

let peers t =
  Mutex.lock t.m;
  let r =
    Array.map
      (fun (p : peer) ->
        { addr = p.addr; in_sync = not p.lagging; last_error = p.last_error })
      t.peers
  in
  Mutex.unlock t.m;
  r

let in_sync t = Array.for_all (fun p -> p.in_sync) (peers t)

let close t =
  Mutex.lock t.m;
  Array.iter drop_conn t.peers;
  Mutex.unlock t.m
