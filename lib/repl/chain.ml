(* See chain.mli. One mutex orders the primary's mutations: the server
   hands each one to [on_mutation] with the thunk that applies it, and
   the chain holds the mutex from before that apply until its forward
   is sent. So every backup receives the mutations in the order the
   primary applied them, and stamps each with the version the primary
   did. This is the chain's throughput ceiling, priced against the
   unreplicated baseline in `bench --fig repl`.

   No drain waits on a thread that waits for it. The drains, the clock
   probe ([Epoch_probe]) and [Range_seal], take no write flag and never
   this mutex. A flagged worker may wait here for the mutex, and the
   holder of the mutex (a forward, or a catch-up from [tick]) waits
   only on its backups' replies, bounded by the client timeout, never
   on a flag. So a drain waits at most for the holder's forward or
   catch-up to finish. *)

module S = Net.Server.S

type peer = {
  addr : Net.Sockaddr.t;
  conn : Net.Client.t;  (** dials on first use, redials after a failed call *)
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
      (fun addr ->
        let conn = Net.Client.create ~retries ~timeout_ms addr in
        { addr; conn; lagging = true; synced = -1; last_error = None })
      backups
  in
  { epoch = epoch_cell; store; m = Mutex.create (); peers }

let update_lag_gauge t =
  Obs.Metric.set g_lagging
    (Array.fold_left (fun n p -> if p.lagging then n + 1 else n) 0 t.peers)

let note peer = function Net.Wire.Version v -> peer.synced <- v | _ -> ()

(* Catch-up by version chains: see chain.mli for where the copy starts
   and why it is exact. The copy probes this store in process (no frame
   for that), and the mutex keeps its clock still, so [retain] raises
   the horizon at most once during the copy. It pulls pages of the one
   size [copy_range] sets for every copy ([Net.Client.copy_page]). *)
let catch_up t peer =
  Obs.Span.with_ "repl.catch_up" @@ fun () ->
  let t0 = Obs.Instr.start () in
  let c = peer.conn in
  let epoch = Atomic.get t.epoch in
  let clock = Net.Client.clock c in
  let since = if peer.synced < 0 then max 0 (clock - 1) else min clock peer.synced in
  let copied =
    Net.Client.copy_range ~lo:0 ~hi:max_int ~since
      ~probe:(fun () -> (S.current_version t.store, S.horizon t.store))
      ~pull:(fun ~since ~lo ~limit ->
        Array.of_list (S.pull_chains t.store ~lo ~hi:max_int ~since ~limit))
      ~ship:(fun req -> ignore (Net.Client.replicate c ~epoch req))
  in
  (* Align the clock last, so a backup never tags a state it does not
     have yet; a clock of 0 has nothing to align. *)
  if copied.clock > 0 then
    note peer (Net.Client.replicate c ~epoch (Net.Wire.Tag_at { version = copied.clock }));
  Obs.Metric.incr c_catchups;
  Obs.Metric.add c_catchup_events copied.events;
  Obs.Metric.add c_catchup_resets copied.resets;
  if t0 <> 0 then Obs.Histogram.record h_catch_up (Obs.Clock.now_ns () - t0);
  peer.lagging <- false;
  peer.last_error <- None

let mark_failed peer e =
  Obs.Metric.incr c_forward_errors;
  Net.Client.close peer.conn;
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
  (* Batches forward as they arrived: the backup's store canonicalises
     one (sorted, later duplicates winning) exactly as the primary's
     did, so backups replay identical history events from one
     replicated frame per batch. *)
  | ( ( Net.Wire.Insert _ | Net.Wire.Remove _ | Net.Wire.Compact _ | Net.Wire.Insert_batch _
      | Net.Wire.Remove_batch _ ) as req ),
      _ ->
      Some req
  (* Migrated chains and range drops forward verbatim: the explicit
     version stamps are the canonical form (install is idempotent on
     the backup exactly as it was on the primary), so a new owner's
     backups converge on the moved range's exact histories. *)
  | ((Net.Wire.History_batch _ | Net.Wire.Range_drop _) as req), _ -> Some req
  | _ -> None

let forward_to t peer op =
  try
    if peer.lagging then
      (* The op is already applied locally, so the catch-up carries it:
         syncing replaces forwarding for this peer on this op. *)
      catch_up t peer
    else begin
      (* A span per hop: when the mutation arrived under a trace
         context (the frame's envelope → server srv.* span → this hook,
         all on one domain), the forward becomes a child span here and
         the replicated frame's envelope carries the context on to the
         backup — the replica lane of the cluster-wide trace. *)
      Obs.Span.with_ "repl.forward" (fun () ->
          note peer (Net.Client.replicate peer.conn ~epoch:(Atomic.get t.epoch) op));
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
  Array.iter (fun p -> Net.Client.close p.conn) t.peers;
  Mutex.unlock t.m
