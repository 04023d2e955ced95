(* See router.mli. The router is deliberately a plain blocking client:
   shard fan-outs are sequential over shards but pipelined within each
   shard, which on a single-core host is within noise of a threaded
   fan-out and keeps every failure path synchronous and typed.

   Every routed call takes one path. [on_shard] sends it to one key
   range's replica set — a write to the primary, the only replica whose
   chain forwards to the others; a read from a sticky slot, walking the
   rest of the set when it is down, so a dead primary costs readers one
   failover, not an outage — and then climbs one reload ladder: a
   [Bad_epoch] error frame (a promotion happened behind our back) or a
   wholly unreachable set reloads the topology once (via the [reload]
   closure), and the call is retried only if that adopted a newer map.
   A call is sent only while its shard index still names the key range
   it was routed for; otherwise it answers [Moved], and [chased], the
   one [Moved] loop, re-routes what is left of the op from its keys. *)

type error =
  | Shard_down of { shard : int; endpoint : string; reason : string }
  | Tag_mismatch of { shard : int; expected : int; got : int }
  | Bad_key of { key : int; key_bits : int }
  | Stale_epoch of { shard : int; epoch : int; reason : string }
  | Moved of { shard : int; epoch : int; endpoint : string }

let error_to_string = function
  | Shard_down { shard; endpoint; reason } ->
      Printf.sprintf "shard %d (%s) is down: %s" shard endpoint reason
  | Tag_mismatch { shard; expected; got } ->
      Printf.sprintf "shard %d acked version %d for a cluster tag at %d" shard got
        expected
  | Bad_key { key; key_bits } ->
      Printf.sprintf "key %d outside the %d-bit cluster key space" key key_bits
  | Stale_epoch { shard; epoch; reason } ->
      Printf.sprintf "shard %d rejected our epoch %d: %s" shard epoch reason
  | Moved { shard; epoch; endpoint } ->
      Printf.sprintf
        "shard %d's range moved to %s (epoch %d) and the topology reload did \
         not catch up"
        shard endpoint epoch

type t = {
  mutable topo : Topology.t;
  timeout_ms : int option;
  retries : int;
  trace_sample : float;
      (** probability that a client op originates a trace context;
          sampled ops carry it to every shard/backup they touch *)
  reload : (unit -> Topology.t option) option;
  mutable conns : Net.Client.t array array;
      (** [conns.(shard).(slot)], slot 0 = primary; each dials on first
          use and redials after a failed call *)
  mutable preferred : int array;
      (** sticky read slot per shard; updated on successful failover *)
}

(* ---- observability ---- *)

let c_requests = Obs.Registry.counter "cluster.requests"
let c_shard_down = Obs.Registry.counter "cluster.shard_down"
let c_snapshot_pairs = Obs.Registry.counter "cluster.snapshot.pairs"
let h_bulk_keys = Obs.Registry.histogram "cluster.find_bulk.keys"
let c_read_failovers = Obs.Registry.counter "repl.read_failovers"
let c_stale_epochs = Obs.Registry.counter "repl.stale_epochs"
let c_topo_reloads = Obs.Registry.counter "repl.topology_reloads"
let c_moved_chases = Obs.Registry.counter "cluster.moved_chases"
let c_conns_kept = Obs.Registry.counter "cluster.conns_kept"
let h_failover_ns = Obs.Registry.histogram "repl.failover_latency_ns"
let m_insert = Obs.Instr.op "cluster.insert"
let m_remove = Obs.Instr.op "cluster.remove"
let m_insert_batch = Obs.Instr.op "cluster.insert_batch"
let m_remove_batch = Obs.Instr.op "cluster.remove_batch"
let m_scan = Obs.Instr.op "cluster.scan"
let h_batch_pairs = Obs.Registry.histogram "cluster.batch.pairs"
let c_scan_pairs = Obs.Registry.counter "cluster.scan.pairs"
let m_find = Obs.Instr.op "cluster.find"
let m_find_bulk = Obs.Instr.op "cluster.find_bulk"
let m_history = Obs.Instr.op "cluster.history"
let m_tag = Obs.Instr.op "cluster.tag"
let m_compact = Obs.Instr.op "cluster.compact"
let m_snapshot = Obs.Instr.op "cluster.snapshot"

(* ---- connections ---- *)

(* Swap in a new topology, keeping the client of every endpoint that
   stays in the map (re-stamped with the new epoch — the server adopts
   it on the next request), so a migration of one range does not force
   redials on every other shard ([cluster.conns_kept] counts the kept
   clients that hold a connection). Clients of endpoints that left the
   map are closed. *)
let set_topology t topo =
  let old = Hashtbl.create 16 in
  Array.iteri
    (fun shard ->
      Array.iteri (fun slot c -> Hashtbl.replace old (Topology.replica t.topo shard slot) c))
    t.conns;
  let epoch = Topology.epoch topo in
  let client ep =
    match Hashtbl.find_opt old ep with
    | Some c ->
        Hashtbl.remove old ep;
        Net.Client.set_epoch c epoch;
        if c.Net.Client.fd <> None then Obs.Metric.incr c_conns_kept;
        c
    | None -> Net.Client.create ~retries:t.retries ?timeout_ms:t.timeout_ms ~epoch ep
  in
  t.conns <-
    Array.init (Topology.shards topo) (fun shard ->
        Array.map client (Topology.replicas topo shard));
  Hashtbl.iter (fun _ c -> Net.Client.close c) old;
  t.topo <- topo;
  t.preferred <- Array.make (Topology.shards topo) 0

let create ?timeout_ms ?(retries = 2) ?(trace_sample = 1.0) ?reload topo =
  let t =
    { topo; timeout_ms; retries; trace_sample; reload; conns = [||]; preferred = [||] }
  in
  set_topology t topo;
  t

let topology t = t.topo
let close t = Array.iter (Array.iter Net.Client.close) t.conns

(* Consult the reload closure; [true] only if it produced a topology
   with a strictly newer epoch (anything else would re-run the failed
   call against the same map and loop). *)
let reload_topology t =
  match t.reload with
  | None -> false
  | Some f -> (
      match f () with
      | Some topo when Topology.epoch topo > Topology.epoch t.topo ->
          Obs.Metric.incr c_topo_reloads;
          set_topology t topo;
          true
      | Some _ | None -> false)

(* Run [f client] against one replica slot. Four outcomes: the value;
   [`Stale] for a Bad_epoch frame (the server is healthy, our map is
   old); [`Moved] for a sealed range (the server is healthy, the key
   now belongs elsewhere); [`Down reason] for everything else, with the
   client closed so the next call redials instead of reusing a
   half-dead connection. *)
let attempt t shard slot f =
  let c = t.conns.(shard).(slot) in
  match f c with
  | v -> `Ok v
  | exception Net.Client.Remote_error (Net.Wire.Bad_epoch, msg) -> `Stale msg
  | exception Net.Client.Remote_error (Net.Wire.Moved, msg) -> (
      match Net.Wire.parse_moved msg with
      | Some (epoch, endpoint) -> `Moved (epoch, endpoint)
      | None -> `Moved (Topology.epoch t.topo + 1, msg))
  | exception
      (( Net.Client.Remote_error _ | Net.Client.Protocol_error _ | Unix.Unix_error _
       | End_of_file | Failure _ | Invalid_argument _ ) as e) ->
      Net.Client.close c;
      `Down (Net.Client.describe_exn e)

(* Send [f] to a shard's replica set. A write goes to the primary
   (slot 0) alone. A read starts at the sticky preferred slot and walks
   on past each down one; a successful failover moves the preference,
   so every later read pays nothing. *)
let on_set t ~write shard f =
  let n = if write then 1 else Topology.replica_count t.topo shard in
  let pref = t.preferred.(shard) mod n in
  let t0 = Obs.Clock.now_ns () in
  let rec go i last =
    if i >= n then `Down last
    else
      let slot = (pref + i) mod n in
      match attempt t shard slot f with
      | `Down reason -> go (i + 1) (slot, reason)
      | `Ok v ->
          if i > 0 then begin
            Obs.Metric.incr c_read_failovers;
            Obs.Histogram.record h_failover_ns (Obs.Clock.now_ns () - t0);
            t.preferred.(shard) <- slot
          end;
          `Ok v
      | `Stale reason -> `Stale reason
      | `Moved moved -> `Moved moved
  in
  go 0 (0, "no replicas")

(* A [Moved] rejection races the cutover's topology publication: the
   seal lands first, the rewritten map follows within the cutover
   window. Poll the reload source until it shows an epoch at least
   [min_epoch] (the one the seal named), bounded to ~500ms — well above
   the cutover-pause gate, so a healthy move is always caught. The
   bound is a wall-clock deadline, not a sleep count: [Unix.sleepf] is
   routinely cut short by the runtime's inter-domain interrupts, so N
   nominal sleeps can drain orders of magnitude too fast. *)
let chase_moved t ~min_epoch =
  let deadline = Unix.gettimeofday () +. 0.5 in
  let rec poll () =
    if Topology.epoch t.topo >= min_epoch then true
    else begin
      ignore (reload_topology t);
      if Topology.epoch t.topo >= min_epoch then true
      else if Unix.gettimeofday () >= deadline then false
      else begin
        (try Unix.sleepf 0.005 with Unix.Unix_error (Unix.EINTR, _, _) -> ());
        poll ()
      end
    end
  in
  poll ()

(* The one path of a routed call: [f] on shard [shard], which was
   routed for key range [range]. A reload may renumber shards (a split
   inserts an id, a merge removes one), and a call sent to an index
   that now names another range could strand an acked write on a node
   its key never routes to again. So the call is sent only while
   [shard] still names [range] in the current map — whichever call's
   reload changed the map — and otherwise answers [Moved] at the
   current epoch, which [chased] re-routes at once. A stale epoch or a
   wholly unreachable set reloads once; the call is retried only if the
   reload adopted a newer map, and otherwise surfaces typed. A [Moved]
   from the server is never retried here: the retry must re-route from
   the key. *)
let on_shard t ~write ~range shard f =
  Obs.Metric.incr c_requests;
  let rec go ~reloaded =
    let k = Topology.shards t.topo in
    if shard >= k || Topology.range t.topo shard <> range then
      let endpoint = Topology.primary t.topo (min shard (k - 1)) in
      Error
        (Moved
           { shard; epoch = Topology.epoch t.topo; endpoint = Net.Sockaddr.to_string endpoint })
    else
      match on_set t ~write shard f with
      | `Ok v -> Ok v
      | `Moved (epoch, endpoint) -> Error (Moved { shard; epoch; endpoint })
      | (`Stale _ | `Down _) when (not reloaded) && reload_topology t -> go ~reloaded:true
      | `Stale reason ->
          Obs.Metric.incr c_stale_epochs;
          Error (Stale_epoch { shard; epoch = Topology.epoch t.topo; reason })
      | `Down (slot, reason) ->
          Obs.Metric.incr c_shard_down;
          Error
            (Shard_down
               {
                 shard;
                 endpoint = Net.Sockaddr.to_string (Topology.replica t.topo shard slot);
                 reason;
               })
  in
  go ~reloaded:false

(* The one [Moved] loop: re-run the whole routed op (routing included —
   ownership and even shard numbering changed) once the reload source
   shows the epoch the rejection named. An op whose work must not be
   redone keeps its progress in [op]'s closure. Bounded: concurrent
   moves can bounce an op at most [attempts] times before the typed
   error surfaces. *)
let chased ?(attempts = 4) t op =
  let rec go attempts =
    match op () with
    | Error (Moved { epoch; _ }) as e when attempts > 0 ->
        Obs.Metric.incr c_moved_chases;
        if chase_moved t ~min_epoch:epoch then go (attempts - 1) else e
    | r -> r
  in
  go attempts

(* Broadcast an absolute, idempotent operation to every primary, left
   to right, first failure wins. A chase re-runs the whole broadcast
   over the new map: shards that already applied it ack the same answer
   (the ops are advance-to/below-horizon absolute). *)
let broadcast t f =
  chased t (fun () ->
      let topo = t.topo in
      let rec go shard acc =
        if shard >= Topology.shards topo then Ok (List.rev acc)
        else
          match on_shard t ~write:true ~range:(Topology.range topo shard) shard f with
          | Ok v -> go (shard + 1) (v :: acc)
          | Error _ as e -> e
      in
      go 0 [])

let check_key t key =
  if Topology.in_key_space t.topo key then Ok (Topology.owner t.topo key)
  else Error (Bad_key { key; key_bits = Topology.key_bits t.topo })

let timed m f =
  let t0 = Obs.Instr.start () in
  let r = f () in
  Obs.Instr.finish m t0;
  r

(* Trace origination: each routed client op flips the sampling coin
   once; winners run under a fresh trace context with a root span named
   after the op, so every frame the op fans out (including replication
   forwards triggered on the shards) carries the same trace id — one
   client call, one causal tree across the cluster. Losers pay one coin
   flip. *)
let traced t m name f =
  if t.trace_sample > 0.0 && Obs.Traceid.coin ~rate:t.trace_sample () then
    Obs.Span.with_context
      (Some
         { Obs.Span.trace = Obs.Traceid.generate (); parent = 0; sampled = true })
      (fun () -> Obs.Span.with_ name (fun () -> timed m f))
  else timed m f

(* ---- routed single-key ops ---- *)

let routed t ~write key f =
  chased t (fun () ->
      Result.bind (check_key t key) (fun shard ->
          on_shard t ~write ~range:(Topology.range t.topo shard) shard f))

let insert t ~key ~value =
  traced t m_insert "cluster.insert" (fun () ->
      routed t ~write:true key (fun c -> Net.Client.insert c ~key ~value))

let remove t ~key =
  traced t m_remove "cluster.remove" (fun () ->
      routed t ~write:true key (fun c -> Net.Client.remove c ~key))

let find t ?version key =
  traced t m_find "cluster.find" (fun () ->
      routed t ~write:false key (fun c -> Net.Client.find c ?version key))

(* ---- broadcast ops ---- *)

let ping t = Result.map (fun _ -> ()) (broadcast t Net.Client.ping)

(* Clock probes feed tag/compact horizons, which are then written at
   the primaries — so probe the primaries, not a possibly-lagging
   backup. *)
let versions t = Result.map Array.of_list (broadcast t Net.Client.clock)

(* ---- per-shard fan-out: bulk reads and batched writes ---- *)

(* Bucket [items] by owning shard (arrival order kept), or fail with the
   first out-of-space key before anything is sent; then hand each
   non-empty bucket to [send] on its shard, in shard order, first
   failure wins. On a failure [rest] gets the work not yet acknowledged:
   the failed bucket and every later one. *)
let fan_out t ~write ?(rest = ignore) items key_of send =
  let topo = t.topo in
  let k = Topology.shards topo in
  let buckets = Array.make k [] in
  let bad =
    List.find_map
      (fun it ->
        match check_key t (key_of it) with
        | Ok shard ->
            buckets.(shard) <- it :: buckets.(shard);
            None
        | Error e -> Some e)
      items
  in
  match bad with
  | Some e -> Error e
  | None ->
      let rec go shard =
        if shard >= k then Ok ()
        else
          match List.rev buckets.(shard) with
          | [] -> go (shard + 1)
          | bucket -> (
              match
                on_shard t ~write ~range:(Topology.range topo shard) shard (fun c ->
                    send c bucket)
              with
              | Ok () -> go (shard + 1)
              | Error _ as e ->
                  let unacked = Array.to_list (Array.sub buckets shard (k - shard)) in
                  rest (List.concat_map List.rev unacked);
                  e)
      in
      go 0

(* One pipelined shard call: every request in one buffered write
   ([Net.Client.call_batch]), each reply checked by [each] in order,
   an error frame raised as the client's typed error. *)
let pipelined c reqs each =
  List.iter (fun resp -> each (Net.Client.ok resp)) (Net.Client.call_batch c reqs)

(* ---- find_bulk: per-shard batches, answers in input order ---- *)

let find_bulk t ?version keys =
  traced t m_find_bulk "cluster.find_bulk" (fun () ->
      Obs.Histogram.record h_bulk_keys (Array.length keys);
      let out = Array.make (Array.length keys) None in
      (* Each shard's bucket holds the positions of its keys; a chase
         re-runs the whole fan-out, as reads are idempotent. *)
      Result.map
        (fun () -> out)
        (chased t (fun () ->
             fan_out t ~write:false
               (List.init (Array.length keys) Fun.id)
               (Array.get keys)
               (fun c positions ->
                 let positions = Array.of_list positions in
                 let filled = ref 0 in
                 pipelined c
                   (List.map
                      (fun chunk -> Net.Wire.Find_bulk { keys = chunk; version })
                      (Net.Wire.chunks (Array.map (Array.get keys) positions)))
                   (function
                     | Net.Wire.Values vs ->
                         Array.iter
                           (fun v ->
                             out.(positions.(!filled)) <- v;
                             incr filled)
                           vs
                     | r -> Net.Client.unexpected "find_bulk" r);
                 if !filled <> Array.length positions then
                   raise (Net.Client.Protocol_error "find_bulk value count mismatch")))))

(* ---- batched writes: per-shard buckets, pipelined frames ---- *)

(* One pipelined call per shard that owns anything: each shard's bucket
   goes out as <=batch_chunk-element batch frames written in one
   buffered send, so a K-shard batch costs K round trips, not one per
   key. Each frame is one store-level batch (one version bump) on its
   shard — cluster batches are per-shard-chunk atomic, not
   cluster-atomic. First shard failure wins; earlier shards keep their
   writes (at-least-once under reconnect, like the single-key path).
   The closure keeps the unacked remainder, so a chase re-routes only
   that, re-bucketed from its keys: acked buckets are never resent. *)
let batched_write t m name ~frame items key_of =
  traced t m name (fun () ->
      Obs.Histogram.record h_batch_pairs (List.length items);
      let pending = ref items in
      chased t (fun () ->
          fan_out t ~write:true
            ~rest:(fun rest -> pending := rest)
            !pending key_of
            (fun c bucket ->
              pipelined c
                (List.map frame (Net.Wire.chunks (Array.of_list bucket)))
                (function Net.Wire.Ack -> () | r -> Net.Client.unexpected name r))))

let insert_batch t pairs =
  batched_write t m_insert_batch "cluster.insert_batch"
    ~frame:(fun pairs -> Net.Wire.Insert_batch { pairs })
    pairs fst

let remove_batch t keys =
  batched_write t m_remove_batch "cluster.remove_batch"
    ~frame:(fun keys -> Net.Wire.Remove_batch { keys })
    keys Fun.id

(* ---- ranged scan: shard-ordered pages ---- *)

(* Shards own contiguous ascending key ranges, so walking positions
   from [lo] upward streams the whole range to [f] in ascending key
   order. Each shard's pages are buffered until that shard succeeds, so
   a mid-scan failover retries the shard range on the next replica
   without re-delivering pairs. The closure keeps the first undelivered
   position, so a chase (a live reshard renumbered the map mid-scan)
   resumes from there — never from a shard index, which the reshard
   may have re-pointed at a different range. *)
let scan_range t ?version ?limit ~lo ~hi f =
  let stop = min hi (1 lsl Topology.key_bits t.topo) in
  let pos = ref (max lo 0) and total = ref 0 in
  chased t (fun () ->
      let rec walk () =
        if !pos >= stop then Ok !total
        else
          let shard = Topology.owner t.topo !pos in
          let range = Topology.range t.topo shard in
          let hi = min stop (snd range) in
          let buf = ref [] in
          match
            on_shard t ~write:false ~range shard (fun c ->
                buf := [];
                ignore
                  (Net.Client.scan c ?version ?limit ~lo:!pos ~hi (fun key value ->
                       buf := (key, value) :: !buf)))
          with
          | Error _ as e -> e
          | Ok () ->
              let pairs = List.rev !buf in
              List.iter (fun (key, value) -> f key value) pairs;
              pos := hi;
              total := !total + List.length pairs;
              walk ()
      in
      walk ())

let scan t ?version ?limit ~lo ~hi f =
  traced t m_scan "cluster.scan" (fun () ->
      Result.map
        (fun n ->
          Obs.Metric.add c_scan_pairs n;
          n)
        (scan_range t ?version ?limit ~lo ~hi f))

(* ---- cluster-wide tag ---- *)

let tag t =
  traced t m_tag "cluster.tag" (fun () ->
      match versions t with
      | Error _ as e -> e
      | Ok vs ->
          let target = Array.fold_left max 0 vs + 1 in
          let rec verify shard = function
            | [] -> Ok target
            | ack :: rest ->
                if ack = target then verify (shard + 1) rest
                else Error (Tag_mismatch { shard; expected = target; got = ack })
          in
          Result.bind
            (broadcast t (fun c -> Net.Client.tag_at c ~version:target))
            (verify 0))

(* ---- cluster-wide compaction ---- *)

let compact t ~keep =
  traced t m_compact "cluster.compact" (fun () ->
      match versions t with
      | Error _ as e -> e
      | Ok vs ->
          (* Same shape as [tag]: probe every shard's clock first, then
             broadcast one absolute horizon. Anchoring [before] below
             the minimum clock keeps the last [keep] versions of every
             shard observable, so consistent cluster snapshots at or
             after [before] stay faithful even when shard clocks have
             drifted apart. *)
          let vmin = Array.fold_left min max_int vs in
          let before = max 0 (vmin - keep) in
          if before = 0 then Ok (0, 0)
          else
            Result.map
              (fun dropped -> (before, List.fold_left ( + ) 0 dropped))
              (broadcast t (fun c -> Net.Client.compact c ~before)))

(* ---- per-key history ---- *)

let history t key =
  traced t m_history "cluster.history" (fun () ->
      (* The owner holds the key's complete history: a reshard ships
         whole version chains, and the previous owner keeps a stale
         (unreachable) copy until its own GC — so this must be a
         single-shard read, never a scatter-gather that would
         double-count those leftovers. *)
      routed t ~write:false key (fun c -> Net.Client.history c key))

(* ---- distributed extract_snapshot ---- *)

(* A scan of the whole key space: every shard's range is paged in key
   order, so no reply has to hold a shard's whole state, and a range a
   reshard moved is read only from its owner. *)
let snapshot t ?version () =
  traced t m_snapshot "cluster.snapshot" (fun () ->
      let acc = ref [] in
      Result.map
        (fun n ->
          Obs.Metric.add c_snapshot_pairs n;
          Array.of_list (List.rev !acc))
        (scan_range t ?version ~lo:0 ~hi:(1 lsl Topology.key_bits t.topo) (fun k v ->
             acc := (k, v) :: !acc)))

(* ---- fleet aggregation ---- *)

(* Every replica of every shard, best effort: a node that cannot answer
   is reported, never fatal — a fleet view with one dead backup must
   still render the other N-1 nodes. *)

type node_snap = { shard : int; slot : int; snap : (Obs.Snap.t, string) result }

let each_replica t f =
  let k = Topology.shards t.topo in
  List.concat
    (List.init k (fun shard ->
         List.init (Topology.replica_count t.topo shard) (fun slot -> f shard slot)))

let replica_label shard slot =
  if slot = 0 then Printf.sprintf "shard%d" shard
  else Printf.sprintf "shard%d.b%d" shard slot

(* One replica's answer to [f], its JSON parsed, or why there is
   none. *)
let replica_json t shard slot f ~what =
  match attempt t shard slot f with
  | `Ok s ->
      Result.map_error
        (Printf.sprintf "bad %s JSON: %s" what)
        (Obs.Json.of_string s)
  | `Stale reason -> Error ("stale epoch: " ^ reason)
  | `Moved (_, endpoint) -> Error ("moved to " ^ endpoint)
  | `Down reason -> Error reason

let fleet_snaps t =
  each_replica t (fun shard slot ->
      let snap =
        Result.bind
          (replica_json t shard slot Net.Client.registry_snap ~what:"snapshot")
          Obs.Snap.of_json
      in
      { shard; slot; snap })

(* One Prometheus page for the whole fleet: each node's snapshot
   becomes a label set {shard,replica}, rendered by [Obs.Snap] with one
   preamble per metric family. Unreachable nodes come back in the
   second component. *)
let fleet_metrics t =
  let parts, skipped =
    List.partition_map
      (fun { shard; slot; snap } ->
        match snap with
        | Ok s ->
            Either.Left ([ ("shard", string_of_int shard); ("replica", string_of_int slot) ], s)
        | Error e -> Either.Right (replica_label shard slot, e))
      (fleet_snaps t)
  in
  (Obs.Snap.prometheus parts, skipped)

(* Drain every node's span ring and merge onto one timeline. Each dump
   is stamped with its node's monotonic clock at dump time ("clockNs");
   rebasing by [our now - clockNs] aligns "just happened there" with
   "just happened here", which is what makes one client op's spans line
   up causally across lanes even though every node runs its own
   monotonic clock. *)
let fleet_trace ?(clear = true) ?local t =
  let parts, skipped =
    List.partition_map Fun.id
      (each_replica t (fun shard slot ->
           let label = replica_label shard slot in
           match
             replica_json t shard slot (Net.Client.trace_dump ~clear) ~what:"trace"
           with
           | Ok doc ->
               let delta =
                 match Obs.Json.member "clockNs" doc with
                 | Some (Obs.Json.Int ns) -> Obs.Clock.now_ns () - ns
                 | _ -> 0
               in
               Either.Left (label, doc, delta)
           | Error e -> Either.Right (label, e)))
  in
  let parts =
    match local with
    | None -> parts
    | Some ring ->
        (* The router's own ring (origination spans) needs no rebasing:
           it is already on the collector's clock. *)
        ("router", Obs.Tracebuf.to_chrome_json ring, 0) :: parts
  in
  (Obs.Tracebuf.merge_chrome parts, skipped)
