(* See router.mli. The router is deliberately a plain blocking client:
   shard fan-outs are sequential over shards but pipelined within each
   shard, which on a single-core host is within noise of a threaded
   fan-out and keeps every failure path synchronous and typed.

   Replica awareness: every key range is a replica set (primary +
   backups, see Topology). Writes are pinned to the primary — the only
   replica whose chain forwards to the others — while reads prefer a
   sticky slot and walk the rest of the set when it is down, so a dead
   primary costs readers one failover, not an outage. Every connection
   stamps its requests with the topology epoch; a [Bad_epoch] error
   frame means a promotion happened behind our back, and the router
   reloads the topology (via the [reload] closure) and retries once
   before surfacing a typed [Stale_epoch]. *)

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
  mutable conns : Net.Client.t option array array;
      (** lazily dialled; [conns.(shard).(slot)], slot 0 = primary *)
  mutable dialled : bool array array;
      (** whether [conns.(shard).(slot)] was ever up — a fresh dial
          after that is a re-dial and counted as such *)
  mutable preferred : int array;
      (** sticky read slot per shard; updated on successful failover *)
}

(* ---- observability ---- *)

let c_requests = Obs.Registry.counter "cluster.requests"
let c_shard_down = Obs.Registry.counter "cluster.shard_down"
let c_redials = Obs.Registry.counter "cluster.redials"
let c_snapshot_pairs = Obs.Registry.counter "cluster.snapshot.pairs"
let h_bulk_keys = Obs.Registry.histogram "cluster.find_bulk.keys"
let c_read_failovers = Obs.Registry.counter "repl.read_failovers"
let c_stale_epochs = Obs.Registry.counter "repl.stale_epochs"
let c_topo_reloads = Obs.Registry.counter "repl.topology_reloads"
let c_moved_chases = Obs.Registry.counter "cluster.moved_chases"
let c_conns_kept = Obs.Registry.counter "cluster.conns_kept"
let w_failovers = Obs.Registry.window "repl.rate.read_failovers"
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

let conn_arrays topo =
  let k = Topology.shards topo in
  ( Array.init k (fun i -> Array.make (Topology.replica_count topo i) None),
    Array.init k (fun i -> Array.make (Topology.replica_count topo i) false),
    Array.make k 0 )

let create ?timeout_ms ?(retries = 2) ?(trace_sample = 1.0) ?reload topo =
  let conns, dialled, preferred = conn_arrays topo in
  { topo; timeout_ms; retries; trace_sample; reload; conns; dialled; preferred }

let topology t = t.topo

let close t =
  Array.iter
    (fun slots ->
      Array.iteri
        (fun j c ->
          (match c with
          | Some c -> ( try Net.Client.close c with _ -> ())
          | None -> ());
          slots.(j) <- None)
        slots)
    t.conns

(* Swap in a new topology, keeping still-valid live connections: an
   endpoint that appears in both maps keeps its socket (re-stamped with
   the new epoch — the server adopts it on the next request), so a
   migration of one range does not force redials (and repl.redials
   noise) on every other shard. Dial bookkeeping transfers with the
   endpoint; connections to endpoints that left the map are closed. *)
let set_topology t topo =
  let old = Hashtbl.create 16 in
  Array.iteri
    (fun shard slots ->
      Array.iteri
        (fun slot conn ->
          let ep = Net.Sockaddr.to_string (Topology.replica t.topo shard slot) in
          Hashtbl.replace old ep (conn, t.dialled.(shard).(slot));
          slots.(slot) <- None)
        slots)
    t.conns;
  let conns, dialled, preferred = conn_arrays topo in
  Array.iteri
    (fun shard slots ->
      Array.iteri
        (fun slot _ ->
          let ep = Net.Sockaddr.to_string (Topology.replica topo shard slot) in
          match Hashtbl.find_opt old ep with
          | None -> ()
          | Some (conn, was_dialled) ->
              Hashtbl.remove old ep;
              dialled.(shard).(slot) <- was_dialled;
              (match conn with
              | None -> ()
              | Some c ->
                  Net.Client.set_epoch c (Topology.epoch topo);
                  Obs.Metric.incr c_conns_kept;
                  slots.(slot) <- Some c))
        slots)
    conns;
  Hashtbl.iter
    (fun _ (conn, _) ->
      match conn with
      | Some c -> ( try Net.Client.close c with _ -> ())
      | None -> ())
    old;
  t.topo <- topo;
  t.conns <- conns;
  t.dialled <- dialled;
  t.preferred <- preferred

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

let drop_conn t shard slot =
  match t.conns.(shard).(slot) with
  | Some c ->
      (try Net.Client.close c with _ -> ());
      t.conns.(shard).(slot) <- None
  | None -> ()

(* Run [f client] against one replica slot. Three outcomes: the value;
   [`Stale] for a Bad_epoch frame (the connection stays up — the server
   is healthy, our map is old); [`Down reason] for everything else, with
   the cached connection torn down so the next call re-dials from
   scratch instead of reusing a half-dead fd. *)
let attempt t shard slot f =
  let conn =
    match t.conns.(shard).(slot) with
    | Some c -> Ok c
    | None -> (
        if t.dialled.(shard).(slot) then Obs.Metric.incr c_redials;
        match
          Net.Client.connect ~retries:t.retries ?timeout_ms:t.timeout_ms
            ~epoch:(Topology.epoch t.topo)
            (Topology.replica t.topo shard slot)
        with
        | c ->
            t.dialled.(shard).(slot) <- true;
            t.conns.(shard).(slot) <- Some c;
            Ok c
        | exception e -> Error (Net.Client.describe_exn e))
  in
  match conn with
  | Error reason -> `Down reason
  | Ok c -> (
      match f c with
      | v -> `Ok v
      | exception Net.Client.Remote_error (Net.Wire.Bad_epoch, msg) -> `Stale msg
      | exception Net.Client.Remote_error (Net.Wire.Moved, msg) -> (
          (* The range is sealed for migration: the server is healthy
             (connection stays up) but this key now belongs elsewhere —
             chase via a topology reload, not a failover. *)
          match Net.Wire.parse_moved msg with
          | Some (epoch, endpoint) -> `Moved (epoch, endpoint)
          | None -> `Moved (Topology.epoch t.topo + 1, msg))
      | exception
          (( Net.Client.Remote_error _ | Net.Client.Protocol_error _
           | Unix.Unix_error _ | End_of_file | Failure _ ) as e) ->
          drop_conn t shard slot;
          `Down (Net.Client.describe_exn e))

let shard_down t shard slot reason =
  Obs.Metric.incr c_shard_down;
  Error
    (Shard_down
       {
         shard;
         endpoint = Net.Sockaddr.to_string (Topology.replica t.topo shard slot);
         reason;
       })

let stale_epoch t shard reason =
  Obs.Metric.incr c_stale_epochs;
  Error (Stale_epoch { shard; epoch = Topology.epoch t.topo; reason })

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

(* A topology reload may renumber shards (a split inserts an id, a
   merge removes one): retrying the same shard index against the new
   map could hit a different range's primary, and an acked write would
   strand on a node its key never routes to again. Retry in place only
   when the index still denotes the same key range after the reload. *)
let reload_keeps_shard t shard =
  let before = Topology.range t.topo shard in
  if not (reload_topology t) then `No_reload
  else if
    shard < Topology.shards t.topo && Topology.range t.topo shard = before
  then `Same
  else `Renumbered

(* The renumbered case surfaces as [Moved]: the chased/batched/scan
   retry loops all respond by re-routing from the key against the
   already-reloaded map (so the chase terminates immediately). *)
let renumbered_moved t shard =
  let shard' = min shard (Topology.shards t.topo - 1) in
  Error
    (Moved
       {
         shard;
         epoch = Topology.epoch t.topo;
         endpoint = Net.Sockaddr.to_string (Topology.primary t.topo shard');
       })

(* Writes go to the primary, and only the primary — slot 0 is the one
   replica whose chain forwards to the rest. A down primary or a stale
   epoch both trigger one topology reload + retry: after a promotion the
   fix for either is the same new map. A [Moved] rejection is NOT
   retried here: shard ids may have been renumbered by a split, so the
   retry must re-route from the key — [chased] (below) wraps whole
   routed ops for that. *)
let on_primary t shard f =
  Obs.Metric.incr c_requests;
  let rec go ~reloaded =
    match attempt t shard 0 f with
    | `Ok v -> Ok v
    | `Stale reason -> (
        if reloaded then stale_epoch t shard reason
        else
          match reload_keeps_shard t shard with
          | `Same -> go ~reloaded:true
          | `Renumbered -> renumbered_moved t shard
          | `No_reload -> stale_epoch t shard reason)
    | `Moved (epoch, endpoint) -> Error (Moved { shard; epoch; endpoint })
    | `Down reason -> (
        if reloaded then shard_down t shard 0 reason
        else
          match reload_keeps_shard t shard with
          | `Same -> go ~reloaded:true
          | `Renumbered -> renumbered_moved t shard
          | `No_reload -> shard_down t shard 0 reason)
  in
  go ~reloaded:false

(* Op-level Moved chasing: re-run the whole routed operation (routing
   included — ownership and even shard numbering changed) against the
   chased topology. Bounded: concurrent moves can bounce an op at most
   [attempts] times before the typed error surfaces. *)
let chased ?(attempts = 4) t op =
  let rec go attempts =
    match op () with
    | Error (Moved { epoch; _ }) as e when attempts > 0 ->
        Obs.Metric.incr c_moved_chases;
        if chase_moved t ~min_epoch:epoch then go (attempts - 1) else e
    | r -> r
  in
  go attempts

(* Reads walk the replica set starting from the sticky preferred slot;
   a successful failover moves the preference so every later read pays
   nothing. All replicas down → reload + retry once (the set may have
   changed), then a typed [Shard_down] carrying the last failure. *)
let on_read t shard f =
  Obs.Metric.incr c_requests;
  let rec go ~reloaded =
    let n = Topology.replica_count t.topo shard in
    let pref = t.preferred.(shard) mod n in
    let t0 = Obs.Clock.now_ns () in
    let rec try_slot i last =
      if i >= n then `All_down last
      else
        let slot = (pref + i) mod n in
        match attempt t shard slot f with
        | `Ok v ->
            if i > 0 then begin
              Obs.Metric.incr c_read_failovers;
              Obs.Window.add w_failovers 1;
              Obs.Histogram.record h_failover_ns (Obs.Clock.now_ns () - t0);
              t.preferred.(shard) <- slot
            end;
            `Ok v
        | `Stale reason -> `Stale reason
        | `Moved (epoch, endpoint) -> `Moved (epoch, endpoint)
        | `Down reason -> try_slot (i + 1) (slot, reason)
    in
    match try_slot 0 (0, "no replicas") with
    | `Ok v -> Ok v
    | `Stale reason -> (
        if reloaded then stale_epoch t shard reason
        else
          match reload_keeps_shard t shard with
          | `Same -> go ~reloaded:true
          | `Renumbered -> renumbered_moved t shard
          | `No_reload -> stale_epoch t shard reason)
    | `Moved (epoch, endpoint) ->
        (* Reads are never sealed, so this only happens if a caller
           routes a mutation through [on_read]; surface it typed. *)
        Error (Moved { shard; epoch; endpoint })
    | `All_down (slot, reason) -> (
        if reloaded then shard_down t shard slot reason
        else
          match reload_keeps_shard t shard with
          | `Same -> go ~reloaded:true
          | `Renumbered -> renumbered_moved t shard
          | `No_reload -> shard_down t shard slot reason)
  in
  go ~reloaded:false

(* Left-to-right fan-out over every shard's primary, first shard
   failure wins. *)
let each_primary t f =
  let k = Topology.shards t.topo in
  let rec go i acc =
    if i >= k then Ok (List.rev acc)
    else
      match on_primary t i f with
      | Ok v -> go (i + 1) (v :: acc)
      | Error _ as e -> e
  in
  go 0 []

(* Broadcast an absolute, idempotent operation to every primary,
   chasing [Moved]: a sealed shard rejects clock/GC mutations, so after
   the chase the {e same} operation is re-broadcast over the
   post-reshard topology — shards that already applied it ack the same
   answer (the ops are advance-to/below-horizon absolute). *)
let broadcast_chased ?(attempts = 4) t f =
  let rec go attempts =
    match each_primary t f with
    | Error (Moved { epoch; _ }) when attempts > 0 && chase_moved t ~min_epoch:epoch
      ->
        go (attempts - 1)
    | r -> r
  in
  go attempts

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

let insert t ~key ~value =
  traced t m_insert "cluster.insert" (fun () ->
      chased t (fun () ->
          Result.bind (check_key t key) (fun shard ->
              on_primary t shard (fun c -> Net.Client.insert c ~key ~value))))

let remove t ~key =
  traced t m_remove "cluster.remove" (fun () ->
      chased t (fun () ->
          Result.bind (check_key t key) (fun shard ->
              on_primary t shard (fun c -> Net.Client.remove c ~key))))

let find t ?version key =
  traced t m_find "cluster.find" (fun () ->
      chased t (fun () ->
          Result.bind (check_key t key) (fun shard ->
              on_read t shard (fun c -> Net.Client.find c ?version key))))

(* ---- broadcast ops ---- *)

let ping t =
  Result.map (fun _ -> ()) (broadcast_chased t (fun c -> Net.Client.ping c))

(* Clock probes feed tag/compact horizons, which are then written at
   the primaries — so probe the primaries, not a possibly-lagging
   backup. *)
let versions t =
  Result.map Array.of_list
    (broadcast_chased t (fun c -> Net.Client.tag_at c ~version:0))

(* ---- find_bulk: per-shard batches, answers in input order ---- *)

let find_bulk t ?version keys =
  traced t m_find_bulk "cluster.find_bulk" (fun () ->
      Obs.Histogram.record h_bulk_keys (Array.length keys);
      (* The whole bucket-and-fan-out runs under [chased]: a [Moved]
         bounce (live reshard, possibly renumbering shards) re-buckets
         every key against the chased topology. Reads are idempotent,
         so re-running the full fan-out is safe. *)
      chased t @@ fun () ->
      let k = Topology.shards t.topo in
      (* positions of each shard's keys, in input order *)
      let buckets = Array.make k [] in
      let bad = ref None in
      Array.iteri
        (fun pos key ->
          if !bad = None then
            match check_key t key with
            | Ok shard -> buckets.(shard) <- pos :: buckets.(shard)
            | Error e -> bad := Some e)
        keys;
      match !bad with
      | Some e -> Error e
      | None ->
          let out = Array.make (Array.length keys) None in
          let rec per_shard shard =
            if shard >= k then Ok out
            else
              let positions = Array.of_list (List.rev buckets.(shard)) in
              if Array.length positions = 0 then per_shard (shard + 1)
              else begin
                (* one pipelined call_batch of <=batch_chunk-key frames *)
                let n = Array.length positions in
                let reqs =
                  List.map
                    (fun chunk -> Net.Wire.Find_bulk { keys = chunk; version })
                    (Net.Wire.chunks (Array.map (fun pos -> keys.(pos)) positions))
                in
                match
                  on_read t shard (fun c ->
                      let resps = Net.Client.call_batch c reqs in
                      let filled = ref 0 in
                      List.iter
                        (fun resp ->
                          match resp with
                          | Net.Wire.Values vs ->
                              Array.iter
                                (fun v ->
                                  out.(positions.(!filled)) <- v;
                                  incr filled)
                                vs
                          | Net.Wire.Error { code; message } ->
                              raise (Net.Client.Remote_error (code, message))
                          | r ->
                              raise
                                (Net.Client.Protocol_error
                                   (Format.asprintf "unexpected find_bulk response: %a"
                                      Net.Wire.pp_response r)))
                        resps;
                      if !filled <> n then
                        raise (Net.Client.Protocol_error "find_bulk value count mismatch"))
                with
                | Ok () -> per_shard (shard + 1)
                | Error _ as e -> e
              end
          in
          per_shard 0)

(* ---- batched writes: per-shard buckets, pipelined frames ---- *)

(* Shared bucketing for batched writes: every item lands in its owning
   shard's bucket (arrival order preserved), or the whole batch fails
   with the first out-of-space key before anything is sent. *)
let bucket_by_shard t items key_of =
  let k = Topology.shards t.topo in
  let buckets = Array.make k [] in
  let bad = ref None in
  List.iter
    (fun it ->
      if !bad = None then
        match check_key t (key_of it) with
        | Ok shard -> buckets.(shard) <- it :: buckets.(shard)
        | Error e -> bad := Some e)
    items;
  match !bad with
  | Some e -> Error e
  | None -> Ok (Array.map List.rev buckets)

(* One pipelined [call_batch] per shard that owns anything: each shard's
   bucket goes out as <=batch_chunk-element batch frames written in one
   buffered send, so a K-shard batch costs K round trips, not one per
   key. Each frame is one store-level batch (one version bump) on its
   shard — cluster batches are per-shard-chunk atomic, not
   cluster-atomic. First shard failure wins; earlier shards keep their
   writes (at-least-once under reconnect, like the single-key path). *)
let batched_write t m name ~frame items key_of =
  traced t m name (fun () ->
      Obs.Histogram.record h_batch_pairs (List.length items);
      let send_one shard items =
        let reqs = List.map frame (Net.Wire.chunks (Array.of_list items)) in
        on_primary t shard (fun c ->
            List.iter
              (function
                | Net.Wire.Ack -> ()
                | Net.Wire.Error { code; message } ->
                    raise (Net.Client.Remote_error (code, message))
                | r ->
                    raise
                      (Net.Client.Protocol_error
                         (Format.asprintf "unexpected batch response: %a"
                            Net.Wire.pp_response r)))
              (Net.Client.call_batch c reqs))
      in
      (* A [Moved] bounce re-routes only the not-yet-acked remainder
         (the bounced shard's bucket plus every later one): shard ids
         may have been renumbered by a split, so the remainder is
         re-bucketed from its keys against the chased topology. Acked
         buckets are never resent — no duplicate history events. *)
      let rec send ~attempts items =
        match bucket_by_shard t items key_of with
        | Error e -> Error e
        | Ok buckets ->
            let k = Array.length buckets in
            let rec per_shard shard =
              if shard >= k then Ok ()
              else
                match buckets.(shard) with
                | [] -> per_shard (shard + 1)
                | shard_items -> (
                    match send_one shard shard_items with
                    | Ok () -> per_shard (shard + 1)
                    | Error (Moved { epoch; _ }) as e when attempts > 0 ->
                        Obs.Metric.incr c_moved_chases;
                        if chase_moved t ~min_epoch:epoch then
                          send ~attempts:(attempts - 1)
                            (List.concat
                               (List.init (k - shard) (fun i ->
                                    buckets.(shard + i))))
                        else e
                    | Error _ as e -> e)
            in
            per_shard 0
      in
      send ~attempts:4 items)

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
   order. Each shard's pages are buffered until that shard succeeds: a
   mid-scan failover retries the shard range on the next replica
   without re-delivering pairs, and a [Moved] bounce (a live reshard
   renumbered the map mid-scan) chases the topology and resumes from
   the first undelivered position — never from a shard index, which the
   reshard may have re-pointed at a different range. *)
let scan_range t ?version ?limit ~lo ~hi f =
  let stop = min hi (1 lsl Topology.key_bits t.topo) in
  let rec walk ~attempts pos total =
    if pos >= stop then Ok total
    else
      let shard = Topology.owner t.topo pos in
      let _, shi = Topology.range t.topo shard in
      let hi' = min stop shi in
      let buf = ref [] in
      match
        on_read t shard (fun c ->
            buf := [];
            ignore
              (Net.Client.scan c ?version ?limit ~lo:pos ~hi:hi'
                 (fun key value -> buf := (key, value) :: !buf)))
      with
      | Ok () ->
          let pairs = List.rev !buf in
          List.iter (fun (key, value) -> f key value) pairs;
          walk ~attempts hi' (total + List.length pairs)
      | Error (Moved { epoch; _ }) as e when attempts > 0 ->
          Obs.Metric.incr c_moved_chases;
          if chase_moved t ~min_epoch:epoch then
            walk ~attempts:(attempts - 1) pos total
          else e
      | Error _ as e -> e
  in
  walk ~attempts:4 (max lo 0) 0

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
            (broadcast_chased t (fun c -> Net.Client.tag_at c ~version:target))
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
              (broadcast_chased t (fun c -> Net.Client.compact c ~before)))

(* ---- per-key history ---- *)

let history t key =
  traced t m_history "cluster.history" (fun () ->
      chased t (fun () ->
          Result.bind (check_key t key) (fun owner ->
              (* The owner holds the key's complete history: a reshard
                 ships whole version chains, and the previous owner
                 keeps a stale (unreachable) copy until its own GC — so
                 this must be a single-shard read, never a
                 scatter-gather that would double-count those
                 leftovers. *)
              on_read t owner (fun c -> Net.Client.history c key))))

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
         List.init (Topology.replica_count t.topo shard) (fun slot ->
             f shard slot)))

let replica_label shard slot =
  if slot = 0 then Printf.sprintf "shard%d" shard
  else Printf.sprintf "shard%d.b%d" shard slot

let fleet_snaps t =
  each_replica t (fun shard slot ->
      let snap =
        match attempt t shard slot Net.Client.registry_snap with
        | `Ok s -> (
            match Obs.Json.of_string s with
            | Ok j -> Obs.Snap.of_json j
            | Error e -> Error (Printf.sprintf "bad snapshot JSON: %s" e))
        | `Stale reason -> Error (Printf.sprintf "stale epoch: %s" reason)
        | `Moved (_, endpoint) -> Error (Printf.sprintf "moved to %s" endpoint)
        | `Down reason -> Error reason
      in
      { shard; slot; snap })

(* One Prometheus page for the whole fleet: each node's snapshot
   becomes a label set {shard,replica}, rendered by [Obs.Snap] with one
   preamble per metric family. Unreachable nodes come back in the
   second component. *)
let fleet_metrics t =
  let snaps = fleet_snaps t in
  let parts =
    List.filter_map
      (fun { shard; slot; snap } ->
        match snap with
        | Ok s ->
            Some
              ( [ ("shard", string_of_int shard); ("replica", string_of_int slot) ],
                s )
        | Error _ -> None)
      snaps
  in
  let skipped =
    List.filter_map
      (fun { shard; slot; snap } ->
        match snap with
        | Ok _ -> None
        | Error e -> Some (replica_label shard slot, e))
      snaps
  in
  (Obs.Snap.prometheus parts, skipped)

(* Drain every node's span ring and merge onto one timeline. Each dump
   is stamped with its node's monotonic clock at dump time ("clockNs");
   rebasing by [our now - clockNs] aligns "just happened there" with
   "just happened here", which is what makes one client op's spans line
   up causally across lanes even though every node runs its own
   monotonic clock. *)
let fleet_trace ?(clear = true) ?local t =
  let skipped = ref [] in
  let parts =
    List.filter_map Fun.id
      (each_replica t (fun shard slot ->
           match attempt t shard slot (Net.Client.trace_dump ~clear) with
           | `Ok s -> (
               match Obs.Json.of_string s with
               | Ok doc ->
                   let delta =
                     match Obs.Json.member "clockNs" doc with
                     | Some (Obs.Json.Int ns) -> Obs.Clock.now_ns () - ns
                     | _ -> 0
                   in
                   Some (replica_label shard slot, doc, delta)
               | Error e ->
                   skipped :=
                     ( replica_label shard slot,
                       Printf.sprintf "bad trace JSON: %s" e )
                     :: !skipped;
                   None)
           | `Stale reason ->
               skipped :=
                 (replica_label shard slot, "stale epoch: " ^ reason) :: !skipped;
               None
           | `Moved (_, endpoint) ->
               skipped :=
                 (replica_label shard slot, "moved to " ^ endpoint) :: !skipped;
               None
           | `Down reason ->
               skipped := (replica_label shard slot, reason) :: !skipped;
               None))
  in
  let parts =
    match local with
    | None -> parts
    | Some ring ->
        (* The router's own ring (origination spans) needs no rebasing:
           it is already on the collector's clock. *)
        ("router", Obs.Tracebuf.to_chrome_json ring, 0) :: parts
  in
  (Obs.Tracebuf.merge_chrome parts, List.rev !skipped)
