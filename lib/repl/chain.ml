(* See chain.mli. One mutex serialises all forwarding: server workers
   call [on_mutation] from many domains, and backups must see every
   primary's ops in one total order (the order the mutex admits them).
   This is the chain's throughput ceiling and is priced against the
   unreplicated baseline in `bench --fig repl`. *)

type peer = {
  addr : Net.Sockaddr.t;
  mutable conn : Net.Client.t option;
  mutable lagging : bool;
  mutable last_error : string option;
}

type peer_status = {
  addr : Net.Sockaddr.t;
  in_sync : bool;
  last_error : string option;
}

type t = {
  epoch : int Atomic.t;
  snapshot : ?version:int -> unit -> (int * int) array;
  current_version : unit -> int;
  m : Mutex.t;
  peers : peer array;
}

let c_forwarded = Obs.Registry.counter "repl.forwarded"
let c_forward_errors = Obs.Registry.counter "repl.forward_errors"
let c_catchups = Obs.Registry.counter "repl.catchups"
let c_catchup_pairs = Obs.Registry.counter "repl.catchup_pairs"
let h_catch_up = Obs.Registry.histogram "repl.catch_up.ns"
let h_forward_ns = Obs.Registry.histogram "repl.forward_latency_ns"
let g_lagging = Obs.Registry.gauge "repl.lagging_backups"

(* Backup connections: a dead backup must not stall client writes for
   long (see chain.mli). *)
let timeout_ms = 2000
let retries = 1

let create ~epoch_cell ~snapshot ~current_version backups =
  let peers =
    Array.map
      (* lagging from birth: the first contact with each backup is a
         catch-up, which degenerates to a no-op when both sides start
         empty and to a full state ship when the primary has data. *)
        (fun addr -> { addr; conn = None; lagging = true; last_error = None })
      backups
  in
  { epoch = epoch_cell; snapshot; current_version; m = Mutex.create (); peers }

let update_lag_gauge t =
  Obs.Metric.set g_lagging
    (Array.fold_left (fun n p -> if p.lagging then n + 1 else n) 0 t.peers)

let drop_conn peer =
  (match peer.conn with
  | Some c -> ( try Net.Client.close c with _ -> ())
  | None -> ());
  peer.conn <- None

let ensure_conn peer =
  match peer.conn with
  | Some c -> c
  | None ->
      let c = Net.Client.connect ~retries ~timeout_ms peer.addr in
      peer.conn <- Some c;
      c

(* The backup's state over [0, max_int), which holds every cluster key
   space [0, 2^key_bits), read as paged [Scan] frames so no reply
   outgrows a frame. *)
let backup_pairs c =
  let acc = ref [] in
  ignore (Net.Client.scan c ~lo:0 ~hi:max_int (fun k v -> acc := (k, v) :: !acc));
  Array.of_list (List.rev !acc)

(* Binary search of the ascending [pairs] for [key]. *)
let holds pairs key =
  let rec go lo hi =
    lo < hi
    &&
    let mid = (lo + hi) / 2 in
    let k = fst pairs.(mid) in
    k = key || if k < key then go (mid + 1) hi else go lo mid
  in
  go 0 (Array.length pairs)

(* [replay_removes]: when the catch-up was triggered by removes of keys
   the backup never held, the state diff carries no trace of them —
   replay those removes on top so the backup records the same tombstone
   events the primary just did. (When the backup did hold a key, the
   diff's own remove already records it.) *)
let catch_up ?replay_removes t peer =
  Obs.Span.with_ "repl.catch_up" @@ fun () ->
  let t0 = Obs.Instr.start () in
  let c = ensure_conn peer in
  let epoch = Atomic.get t.epoch in
  let ship req = ignore (Net.Client.replicate c ~epoch req) in
  let remote = backup_pairs c in
  let changes =
    Mvdict.Snapshot.diff ~compare_key:Int.compare ~equal_value:Int.equal
      ~prev:remote ~next:(t.snapshot ())
  in
  (* The diff's removes and inserts touch disjoint keys, so the state
     ships as replicated batch frames of at most [Wire.batch_chunk]
     keys, all under the one pending version the final tag commits. *)
  let inserts, removes =
    List.partition_map
      (function
        | Mvdict.Snapshot.Added (key, value) | Changed (key, _, value) ->
            Either.Left (key, value)
        | Removed (key, _) -> Either.Right key)
      changes
  in
  let ship_removes keys =
    List.iter
      (fun keys -> ship (Net.Wire.Remove_batch { keys }))
      (Net.Wire.chunks (Array.of_list keys))
  in
  ship_removes removes;
  List.iter
    (fun pairs -> ship (Net.Wire.Insert_batch { pairs }))
    (Net.Wire.chunks (Array.of_list inserts));
  (match replay_removes with
  | Some keys -> (
      match List.filter (fun key -> not (holds remote key)) keys with
      | [ key ] -> ship (Net.Wire.Remove { key })
      | keys -> ship_removes keys)
  | None -> ());
  (* Align the clock last, so a backup never tags a state it does not
     have yet. *)
  ship (Net.Wire.Tag_at { version = t.current_version () });
  Obs.Metric.incr c_catchups;
  if t0 <> 0 then Obs.Histogram.record h_catch_up (Obs.Clock.now_ns () - t0);
  Obs.Metric.add c_catchup_pairs (List.length changes);
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
  | (Net.Wire.Tag | Net.Wire.Tag_at _), Net.Wire.Version v ->
      Some (Net.Wire.Tag_at { version = v })
  | ((Net.Wire.Insert _ | Net.Wire.Remove _ | Net.Wire.Compact _) as req), _ ->
      Some req
  (* Batches forward canonicalised (sorted, later duplicates winning) —
     the exact form the primary's store installed — so backups replay
     identical history events from one Replicate frame per batch. *)
  | Net.Wire.Insert_batch { pairs }, _ ->
      Some
        (Net.Wire.Insert_batch
           {
             pairs =
               Array.of_list
                 (Mvdict.Dict_intf.canonical_pairs ~compare:Int.compare
                    (Array.to_list pairs));
           })
  | Net.Wire.Remove_batch { keys }, _ ->
      Some
        (Net.Wire.Remove_batch
           {
             keys =
               Array.of_list
                 (Mvdict.Dict_intf.canonical_keys ~compare:Int.compare
                    (Array.to_list keys));
           })
  (* Migrated chains forward verbatim: the explicit version stamps are
     the canonical form (install is idempotent on the backup exactly as
     it was on the primary), so a new owner's backups converge on the
     moved range's exact histories. *)
  | (Net.Wire.History_batch _ as req), _ -> Some req
  | _ -> None

let forward_to t peer op =
  try
    if peer.lagging then
      (* The catch-up snapshot already reflects [op] (it was applied
         locally before the hook fired), so syncing replaces forwarding
         for this peer on this op — modulo the tombstone of a Remove,
         which the state diff cannot see (see [catch_up]). *)
      let replay_removes =
        match op with
        | Net.Wire.Remove { key } -> Some [ key ]
        | Net.Wire.Remove_batch { keys } -> Some (Array.to_list keys)
        | _ -> None
      in
      catch_up ?replay_removes t peer
    else begin
      let c = ensure_conn peer in
      (* A span per hop: when the mutation arrived under a trace
         context (Traced frame → server srv.* span → this hook, all on
         one domain), the forward becomes a child span here and the
         outgoing Replicate frame carries the context on to the backup
         — the replica lane of the cluster-wide trace. *)
      Obs.Span.with_ "repl.forward" (fun () ->
          ignore (Net.Client.replicate c ~epoch:(Atomic.get t.epoch) op));
      Obs.Metric.incr c_forwarded
    end
  with e -> mark_failed peer e

let on_mutation t req resp =
  match canonical req resp with
  | None -> ()
  | Some op ->
      let t0 = Obs.Clock.now_ns () in
      Mutex.lock t.m;
      Array.iter (fun peer -> forward_to t peer op) t.peers;
      update_lag_gauge t;
      Mutex.unlock t.m;
      Obs.Histogram.record h_forward_ns (Obs.Clock.now_ns () - t0)

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
