(* mvkv — command-line front end for the persistent multi-version store.

   Each data command is defined once, in one table, over the target its
   connection flags name: an open pool, one server, or a cluster.

     mvkv insert                 --pool /tmp/pool.mvkv --key 10 --value 100
     mvkv client insert          --port 7787 --key 10 --value 100
     mvkv cluster client insert  --topology topo.txt --key 10 --value 100

   A pool command opens the file-backed heap, applies one operation and
   exits, so every call runs recovery. `mvkv serve` keeps the heap open
   behind the lib/net wire protocol; `mvkv cluster serve` serves one
   replica of a shard in a topology file, and cluster commands route
   through lib/cluster's router. *)

module Store = Mvdict.Pskiplist.Make (Mvdict.Codec.Int_key) (Mvdict.Codec.Int_value)
open Cmdliner

(* Latencies in the registry, the slowlog, and `partial_since` timeouts
   all read [Obs.Clock]; back it with a real monotonic clock so they
   survive wall-clock jumps. *)
let () =
  Obs.Clock.set_source (fun () -> Int64.to_int (Monotonic_clock.now ()))

let pool_arg =
  let doc = "Path of the persistent heap file." in
  Arg.(required & opt (some string) None & info [ "pool"; "p" ] ~docv:"FILE" ~doc)

let required_int names ~docv doc =
  Arg.(required & opt (some int) None & info names ~docv ~doc)

let key_arg = required_int [ "key"; "k" ] ~docv:"KEY" "Key (non-negative integer)."
let value_arg = required_int [ "value"; "v" ] ~docv:"VALUE" "Value (integer)."

let version_arg =
  let doc = "Snapshot version to read (defaults to the current state)." in
  Arg.(value & opt (some int) None & info [ "at" ] ~docv:"V" ~doc)

let pairs_arg =
  let doc = "Comma-separated KEY=VALUE pairs, e.g. $(b,1=10,2=20)." in
  Arg.(required & opt (some string) None & info [ "pairs" ] ~docv:"PAIRS" ~doc)

let keys_arg =
  let doc = "Comma-separated keys, e.g. $(b,1,2,3)." in
  Arg.(required & opt (some string) None & info [ "keys" ] ~docv:"KEYS" ~doc)

let lo_arg = required_int [ "lo" ] ~docv:"LO" "Scan range start (inclusive)."
let hi_arg = required_int [ "hi" ] ~docv:"HI" "Scan range end (exclusive)."

let limit_arg =
  let doc = "Pairs per scan page (0 = server-chosen)." in
  Arg.(value & opt int 0 & info [ "limit" ] ~docv:"N" ~doc)

let threads_arg =
  let doc = "Index reconstruction threads." in
  Arg.(value & opt int 1 & info [ "threads"; "t" ] ~docv:"T" ~doc)

let size_arg =
  let doc = "Heap capacity in bytes (init only)." in
  Arg.(value & opt int (1 lsl 24) & info [ "size" ] ~docv:"BYTES" ~doc)

let stats_arg =
  let doc = "Dump the observability registry (op counters, latency \
             histograms, pmem totals) after the command." in
  Arg.(value & flag & info [ "stats" ] ~doc)

(* The one JSON rendering of a registry snapshot: `client stats` prints
   a server's, `--stats` and `stats` this process's. *)
let print_snap snap =
  print_endline (Obs.Json.to_string ~indent:true (Obs.Snap.to_json snap))

let print_registry () =
  Format.printf "-- observability registry --@.";
  print_snap (Obs.Snap.of_registry ())

(* Every command runs under this wrapper so `--stats` can report the
   registry populated by the single operation this invocation did. *)
let maybe_stats dump = if dump then print_registry ()

(* A missing or corrupt pool is an expected user error: one line on
   stderr and a nonzero exit, never an exception backtrace. *)
let die fmt = Printf.ksprintf (fun msg -> prerr_endline msg; exit 2) fmt

let parse_pairs s =
  List.map
    (fun item ->
      let bad () = die "mvkv: bad pair %S (expected KEY=VALUE)" item in
      match String.index_opt item '=' with
      | None -> bad ()
      | Some i -> (
          let k = String.trim (String.sub item 0 i) in
          let v = String.trim (String.sub item (i + 1) (String.length item - i - 1)) in
          match (int_of_string_opt k, int_of_string_opt v) with
          | Some k, Some v -> (k, v)
          | _ -> bad ()))
    (String.split_on_char ',' s)

let parse_keys s =
  List.map
    (fun item ->
      match int_of_string_opt (String.trim item) with
      | Some k -> k
      | None -> die "mvkv: bad key %S" item)
    (String.split_on_char ',' s)

let open_store pool threads =
  match
    let heap = Pmem.Pheap.open_file ~path:pool in
    Store.open_existing ~threads heap
  with
  | store -> store
  | exception Unix.Unix_error (e, _, _) ->
      die "mvkv: cannot open pool %s: %s" pool (Unix.error_message e)
  | exception Sys_error msg -> die "mvkv: cannot open pool %s: %s" pool msg
  | exception (Invalid_argument msg | Failure msg) ->
      die "mvkv: pool %s is not a usable mvkv heap: %s" pool msg

let init pool size dump =
  match
    let heap = Pmem.Pheap.create_file ~path:pool ~capacity:size in
    let _store = Store.create heap in
    Pmem.Pheap.close heap
  with
  | () ->
      Printf.printf "initialised %s (%d bytes)\n" pool size;
      maybe_stats dump
  | exception Unix.Unix_error (e, _, _) ->
      die "mvkv: cannot create pool %s: %s" pool (Unix.error_message e)
  | exception Sys_error msg -> die "mvkv: cannot create pool %s: %s" pool msg
  | exception (Invalid_argument msg | Failure msg) ->
      die "mvkv: cannot create pool %s: %s" pool msg

let before_arg =
  let doc =
    "Compact away history no snapshot at or after version $(docv) \
     observes."
  in
  Arg.(value & opt (some int) None & info [ "before" ] ~docv:"V" ~doc)

let retain_arg =
  let doc = "Compact so the last $(docv) versions stay fully observable." in
  Arg.(value & opt (some int) None & info [ "retain" ] ~docv:"N" ~doc)

(* ---- serving over the network (lib/net) ---- *)

let socket_arg =
  let doc = "Serve/connect on a Unix-domain socket at $(docv) instead of TCP." in
  Arg.(value & opt (some string) None & info [ "socket" ] ~docv:"PATH" ~doc)

let host_arg =
  let doc = "TCP host to serve/connect on." in
  Arg.(value & opt string "127.0.0.1" & info [ "host" ] ~docv:"HOST" ~doc)

let port_arg =
  let doc = "TCP port to serve/connect on (0 picks an ephemeral port)." in
  Arg.(value & opt int 7787 & info [ "port" ] ~docv:"PORT" ~doc)

let workers_arg =
  let doc = "Worker domains serving connections." in
  Arg.(value & opt int 4 & info [ "workers" ] ~docv:"W" ~doc)

let max_conns_arg =
  let doc = "Connection limit; excess connects are refused with a busy frame." in
  Arg.(value & opt int 256 & info [ "max-conns" ] ~docv:"N" ~doc)

let timeout_arg =
  let doc =
    "Per-request timeout (seconds) for completing a started frame, and for a \
     reply the client leaves unread."
  in
  Arg.(value & opt float 5.0 & info [ "timeout" ] ~docv:"SECONDS" ~doc)

let addr_of socket host port =
  match socket with
  | Some path -> Net.Sockaddr.Unix_sock path
  | None -> Net.Sockaddr.Tcp (host, port)

let slowlog_ms_arg =
  let doc =
    "Slow-op log threshold in milliseconds; requests at or above it are \
     kept in a ring fetchable with $(b,mvkv slowlog). 0 disables."
  in
  Arg.(value & opt float 10.0 & info [ "slowlog-ms" ] ~docv:"MS" ~doc)

let trace_cap_arg =
  let doc = "Span trace ring capacity (overwrite-oldest); dump with $(b,mvkv trace)." in
  Arg.(value & opt int 4096 & info [ "trace-cap" ] ~docv:"N" ~doc)

let slo_arg =
  let doc =
    "Per-op latency objectives, e.g. $(b,find=1ms,insert=5ms) (suffixes \
     ns/us/ms/s), evaluated against each node's $(b,net.<op>.ns) \
     latency histogram: a column shows the worst-attained objective per \
     node, conservative by at most one log bucket (1/16 relative)."
  in
  Arg.(value & opt (some string) None & info [ "slo" ] ~docv:"SPEC" ~doc)

let parse_objectives spec =
  match Obs.Slo.parse spec with
  | Ok objectives -> objectives
  | Error e -> die "mvkv: bad --slo: %s" e

let serve_retain_arg =
  let doc =
    "Run a background GC domain keeping only the last $(docv) versions \
     observable (omit to keep the full history)."
  in
  Arg.(value & opt (some int) None & info [ "retain" ] ~docv:"N" ~doc)

let gc_interval_arg =
  let doc = "Seconds between background GC passes (with $(b,--retain))." in
  Arg.(value & opt float 1.0 & info [ "gc-interval" ] ~docv:"SECONDS" ~doc)

let interval_arg =
  let doc = "Seconds between refreshes." in
  Arg.(value & opt float 2.0 & info [ "interval"; "i" ] ~docv:"SECONDS" ~doc)

let count_arg =
  let doc = "Stop after this many refreshes (default: run until interrupted)." in
  Arg.(value & opt (some int) None & info [ "count" ] ~docv:"N" ~doc)

let trace_out_arg =
  let doc = "Write the Chrome trace JSON to $(docv) instead of stdout." in
  Arg.(value & opt (some string) None & info [ "out"; "o" ] ~docv:"FILE" ~doc)

let keep_arg =
  let doc =
    "Peek without draining: leave the span ring(s) intact after dumping \
     (default clears them, so each fetch is a fresh window)."
  in
  Arg.(value & flag & info [ "keep" ] ~doc)

let entries_arg =
  let doc = "Number of slowlog entries to fetch (newest first)." in
  Arg.(value & opt int 32 & info [ "entries"; "n" ] ~docv:"N" ~doc)

(* Shared by `mvkv serve` and `mvkv cluster serve`: open the pool,
   listen on [listen], and block until SIGINT/SIGTERM. [epoch_cell] and
   [hooks] are the replication attachment points: [hooks store] builds
   the server's mutation hook and a periodic maintenance closure (the
   chain's catch-up tick) once the store is open. *)
let run_server ~banner ?epoch_cell ?(hooks = fun _ -> (None, None)) pool threads
    listen workers max_conns timeout slowlog_ms trace_cap retain gc_interval =
  (* Install the trace ring before opening the store, so the recovery
     rebuild's spans are already in it when the first `mvkv trace`
     arrives. *)
  let trace = Obs.Tracebuf.create ~capacity:trace_cap in
  Obs.Tracebuf.install trace;
  let store = open_store pool threads in
  let gc =
    match retain with
    | None -> None
    | Some keep ->
        if keep < 0 then die "mvkv: --retain must be non-negative";
        if gc_interval <= 0. then die "mvkv: --gc-interval must be positive";
        Some
          (Store.gc_start store
             ~interval_ms:(max 1 (int_of_float (gc_interval *. 1000.)))
             ~keep ())
  in
  let on_mutation, tick = hooks store in
  let server =
    match
      Net.Server.start ~store ~workers ~max_conns ~request_timeout:timeout
        ~slowlog_threshold_ns:(int_of_float (slowlog_ms *. 1e6))
        ~trace ?epoch_cell ?on_mutation ~listen ()
    with
    | server -> server
    | exception Unix.Unix_error (e, _, _) ->
        die "mvkv: cannot listen on %s: %s" (Net.Sockaddr.to_string listen)
          (Unix.error_message e)
  in
  Format.printf "mvkv: serving %s%s on %a (workers=%d, max-conns=%d%s)@."
    pool banner Net.Sockaddr.pp (Net.Server.addr server) workers max_conns
    (match retain with
    | Some keep -> Printf.sprintf ", retain=%d" keep
    | None -> "");
  let stop = ref false in
  let handler = Sys.Signal_handle (fun _ -> stop := true) in
  Sys.set_signal Sys.sigint handler;
  Sys.set_signal Sys.sigterm handler;
  let rounds = ref 0 in
  while not !stop do
    (try Unix.sleepf 0.2 with Unix.Unix_error (Unix.EINTR, _, _) -> ());
    incr rounds;
    (* Roughly once a second: cheap when everything is in sync, and a
       down backup is not hammered with redials every 200 ms. *)
    match tick with
    | Some tick when !rounds mod 5 = 0 && not !stop -> tick ()
    | _ -> ()
  done;
  Format.printf "mvkv: draining connections and shutting down@.";
  (match gc with Some gc -> Store.gc_stop gc | None -> ());
  Net.Server.stop server

let serve pool threads socket host port workers max_conns timeout slowlog_ms
    trace_cap retain gc_interval =
  run_server ~banner:"" pool threads (addr_of socket host port) workers max_conns
    timeout slowlog_ms trace_cap retain gc_interval

let timeout_ms_arg =
  let doc =
    "Per-call socket timeout in milliseconds. A reply not arriving in \
     time counts against the retry budget; when that is exhausted the \
     command exits 2 with a one-line message."
  in
  Arg.(value & opt (some int) None & info [ "timeout-ms" ] ~docv:"MS" ~doc)

let retries_arg =
  let doc = "Connect/retry budget before giving up on a server." in
  Arg.(value & opt int 3 & info [ "retries" ] ~docv:"N" ~doc)

let with_client ?timeout_ms ?(retries = 3) socket host port f =
  let addr = addr_of socket host port in
  match Net.Client.connect ~retries ?timeout_ms addr with
  | exception Unix.Unix_error (e, _, _) ->
      die "mvkv: cannot connect to %s: %s" (Net.Sockaddr.to_string addr)
        (Unix.error_message e)
  | client -> (
      match f client with
      | () -> Net.Client.close client
      | exception e -> (
          Net.Client.close client;
          match e with
          | Net.Client.Remote_error (code, msg) ->
              die "mvkv: server error (%s): %s" (Net.Wire.error_code_name code) msg
          | Net.Client.Protocol_error msg -> die "mvkv: protocol error: %s" msg
          (* EAGAIN/EWOULDBLOCK surface when --timeout-ms expires and the
             retry budget is spent; name the cause rather than the errno. *)
          | Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.ETIMEDOUT), _, _) ->
              die "mvkv: request timed out after %d retr%s" retries
                (if retries = 1 then "y" else "ies")
          | Unix.Unix_error (e, _, _) -> die "mvkv: connection lost: %s" (Unix.error_message e)
          | End_of_file -> die "mvkv: server closed the connection"
          | e -> raise e))

let client_ping socket host port timeout_ms retries =
  with_client ?timeout_ms ~retries socket host port (fun c ->
      Net.Client.ping c;
      print_endline "pong")

(* The server's whole lib/obs registry as a mergeable snapshot — the
   one registry export, rendered here as JSON, Prometheus text or the
   top table. A garbled payload exits nonzero instead of echoing junk. *)
let registry_snap c =
  Result.bind (Obs.Json.of_string (Net.Client.registry_snap c)) Obs.Snap.of_json

let fetch_snap c =
  match registry_snap c with
  | Ok snap -> snap
  | Error e -> die "mvkv: server returned an invalid registry snapshot: %s" e

let client_stats socket host port timeout_ms retries =
  with_client ?timeout_ms ~retries socket host port (fun c ->
      print_snap (fetch_snap c))

(* ---- sharded cluster (lib/cluster) ---- *)

let topology_arg =
  let doc = "Cluster topology spec file (key_bits + shard endpoints)." in
  Arg.(
    required
    & opt (some string) None
    & info [ "topology"; "T" ] ~docv:"FILE" ~doc)

let shard_arg =
  let doc = "Serve as the $(i,primary) of shard $(docv) of the topology." in
  Arg.(value & opt (some int) None & info [ "shard" ] ~docv:"I" ~doc)

let replica_of_arg =
  let doc =
    "Serve as a $(i,backup) of shard $(docv) (see $(b,--slot)); mutually \
     exclusive with $(b,--shard)."
  in
  Arg.(value & opt (some int) None & info [ "replica-of" ] ~docv:"I" ~doc)

let slot_arg =
  let doc = "Backup slot to serve with $(b,--replica-of) (1 = first backup)." in
  Arg.(value & opt int 1 & info [ "slot" ] ~docv:"J" ~doc)

let promote_shard_arg =
  required_int [ "shard" ] ~docv:"I" "Shard whose primary is being replaced."

let promote_to_arg =
  let doc =
    "Backup slot to promote (default: the reachable backup with the \
     highest version)."
  in
  Arg.(value & opt (some int) None & info [ "to" ] ~docv:"J" ~doc)

let move_shard_arg =
  required_int [ "shard" ] ~docv:"I" "Shard whose range is being moved / split / merged."

let move_dest_arg =
  let doc =
    "Destination replica set, repeated (first = new primary), e.g. \
     $(b,--dest tcp://host:port --dest unix:///path)."
  in
  Arg.(value & opt_all string [] & info [ "dest" ] ~docv:"ENDPOINT" ~doc)

let split_at_arg =
  required_int [ "at" ] ~docv:"KEY" "Split point: the new shard owns keys at or above $(docv)."

let load_topology file =
  match Cluster.Topology.of_file file with
  | Ok topo -> topo
  | Error msg -> die "mvkv: %s: %s" file msg
  | exception Sys_error msg -> die "mvkv: cannot read topology: %s" msg

let check_shard_id topo topo_file shard =
  if shard < 0 || shard >= Cluster.Topology.shards topo then
    die "mvkv: no shard %d in %s (%d shards)" shard topo_file
      (Cluster.Topology.shards topo)

let cluster_serve topo_file shard replica_of slot pool threads workers max_conns
    timeout slowlog_ms trace_cap retain gc_interval =
  let topo = load_topology topo_file in
  (* Both roles share the topology's epoch as the server's fencing
     floor; the primary additionally owns a replication chain feeding
     its backups, sharing the same epoch cell so forwarded frames carry
     whatever epoch the server has adopted since. *)
  let epoch_cell = Atomic.make (Cluster.Topology.epoch topo) in
  match (shard, replica_of) with
  | Some _, Some _ -> die "mvkv: pass either --shard or --replica-of, not both"
  | None, None -> die "mvkv: cluster serve needs --shard or --replica-of"
  | Some shard, None ->
      check_shard_id topo topo_file shard;
      let backups = Cluster.Topology.backups topo shard in
      let hooks store =
        if Array.length backups = 0 then (None, None)
        else begin
          let chain =
            Repl.Chain.create ~epoch_cell ~store backups
          in
          ( Some (Repl.Chain.on_mutation chain),
            Some (fun () -> Repl.Chain.tick chain) )
        end
      in
      run_server
        ~banner:
          (Printf.sprintf " as shard %d/%d primary (%d backup%s, epoch %d)" shard
             (Cluster.Topology.shards topo)
             (Array.length backups)
             (if Array.length backups = 1 then "" else "s")
             (Cluster.Topology.epoch topo))
        ~epoch_cell ~hooks pool threads
        (Cluster.Topology.primary topo shard)
        workers max_conns timeout slowlog_ms trace_cap retain gc_interval
  | None, Some shard ->
      check_shard_id topo topo_file shard;
      let nslots = Cluster.Topology.replica_count topo shard in
      if slot < 1 || slot >= nslots then
        die "mvkv: shard %d has no backup slot %d (%d replica%s)" shard slot
          nslots
          (if nslots = 1 then "" else "s");
      run_server
        ~banner:
          (Printf.sprintf " as shard %d/%d backup slot %d (epoch %d)" shard
             (Cluster.Topology.shards topo)
             slot
             (Cluster.Topology.epoch topo))
        ~epoch_cell pool threads
        (Cluster.Topology.replica topo shard slot)
        workers max_conns timeout slowlog_ms trace_cap retain gc_interval

(* One short-lived connection for an inspection: [f]'s answer, or the
   exception that stopped it. Inspections time out after 2 s by
   default. *)
let probe ?epoch ~retries timeout_ms ep f =
  let timeout_ms = Option.value timeout_ms ~default:2000 in
  match Net.Client.connect ~retries ~timeout_ms ?epoch ep with
  | exception e -> Error e
  | c ->
      let r = try Ok (f c) with e -> Error e in
      Net.Client.close c;
      r

(* `cluster promote`: pick (or validate) the replacement backup, bump
   the epoch, fence every reachable member of the set with the new
   epoch, and atomically rewrite the topology file. Routers learn
   lazily — their next stamped request is answered Bad_epoch and they
   reload this file. Ordering matters: fence BEFORE save, so by the
   time a reloading router sees the new map, the members already
   reject the old epoch. *)
let cluster_promote topo_file timeout_ms retries shard to_slot =
  let topo = load_topology topo_file in
  check_shard_id topo topo_file shard;
  let nslots = Cluster.Topology.replica_count topo shard in
  if nslots < 2 then die "mvkv: shard %d has no backups to promote" shard;
  let slot =
    match to_slot with
    | Some j ->
        if j < 1 || j >= nslots then
          die "mvkv: shard %d has no backup slot %d" shard j;
        j
    | None -> (
        (* The freshest reachable backup loses the least history. *)
        let best = ref None in
        for j = 1 to nslots - 1 do
          match
            probe ~retries timeout_ms (Cluster.Topology.replica topo shard j)
              Net.Client.clock
          with
          | Ok version -> (
              match !best with
              | Some (_, v) when v >= version -> ()
              | _ -> best := Some (j, version))
          | Error _ -> ()
        done;
        match !best with
        | Some (j, _) -> j
        | None -> die "mvkv: no backup of shard %d is reachable" shard)
  in
  let promoted = Cluster.Topology.promote topo ~shard ~replica:slot in
  let epoch = Cluster.Topology.epoch promoted in
  (* Fence: one stamped ping per reachable member adopts the new epoch. *)
  let fenced = ref 0 in
  Array.iter
    (fun ep ->
      if Result.is_ok (probe ~epoch ~retries timeout_ms ep Net.Client.ping) then incr fenced)
    (Cluster.Topology.replicas promoted shard);
  (match Cluster.Topology.save promoted topo_file with
  | Ok () -> ()
  | Error msg -> die "mvkv: %s" msg);
  Printf.printf
    "promoted shard %d slot %d to primary (%s): epoch %d, fenced %d/%d replicas\n"
    shard slot
    (Net.Sockaddr.to_string (Cluster.Topology.primary promoted shard))
    epoch !fenced
    (Cluster.Topology.replica_count promoted shard)

(* ---- live resharding: cluster move / split / merge / moves ---- *)

let parse_endpoints specs =
  Array.of_list
    (List.map
       (fun s ->
         match Net.Sockaddr.of_string s with
         | Ok ep -> ep
         | Error m -> die "mvkv: %s" m)
       specs)

let print_move_progress (p : Cluster.Move.progress) =
  match p.phase with
  | "copy" ->
      Printf.printf "round %d: copied %d key(s), %d event(s)\n%!" p.round p.keys
        p.events
  | "cutover" ->
      Printf.printf "cutover: final diff %d key(s), %d event(s)\n%!" p.keys
        p.events
  | _ -> ()

let print_move_outcome verb (o : Cluster.Move.outcome) =
  Printf.printf
    "%s: %d key(s), %d event(s) in %d round(s); copy %.1fms, write pause \
     %.1fms; now at epoch %d\n"
    verb o.keys_copied o.events_copied o.rounds
    (float_of_int o.copy_ns /. 1e6)
    (float_of_int o.pause_ns /. 1e6)
    o.new_epoch

(* One reshard step on a checked shard of the topology file; a failure
   exits 2 with one line. *)
let reshard topo_file shard step =
  let topo = load_topology topo_file in
  check_shard_id topo topo_file shard;
  match step topo with
  | Ok o -> o
  | Error e -> die "mvkv: %s" (Cluster.Move.error_to_string e)

let cluster_move topo_file timeout_ms retries shard dest =
  let o =
    reshard topo_file shard (fun topo ->
        if dest = [] then die "mvkv: cluster move needs at least one --dest";
        Cluster.Move.move ?timeout_ms ~retries ~notify:print_move_progress
          ~topo_path:topo_file topo ~shard ~dest:(parse_endpoints dest) ())
  in
  if o.rounds = 0 && o.events_copied = 0 && o.copy_ns = 0 then
    Printf.printf "shard %d already lives at the destination (epoch %d); re-fenced\n"
      shard o.new_epoch
  else print_move_outcome (Printf.sprintf "moved shard %d" shard) o

let cluster_split topo_file timeout_ms retries shard at dest =
  reshard topo_file shard (fun topo ->
      if dest = [] then die "mvkv: cluster split needs at least one --dest";
      Cluster.Move.split ?timeout_ms ~retries ~notify:print_move_progress
        ~topo_path:topo_file topo ~shard ~at ~dest:(parse_endpoints dest) ())
  |> print_move_outcome (Printf.sprintf "split shard %d at %d" shard at)

let cluster_merge topo_file timeout_ms retries shard =
  reshard topo_file shard (fun topo ->
      Cluster.Move.merge ?timeout_ms ~retries ~notify:print_move_progress
        ~topo_path:topo_file topo ~shard ())
  |> print_move_outcome (Printf.sprintf "merged shard %d into shard %d" (shard + 1) shard)

let cluster_moves topo_file timeout_ms retries =
  let topo = load_topology topo_file in
  let timeout_ms = Some (Option.value timeout_ms ~default:2000) in
  Printf.printf "%-5s %-38s %s\n" "shard" "endpoint" "seals";
  List.iter
    (fun (shard, ep, r) ->
      match r with
      | Ok json -> Printf.printf "%-5d %-38s %s\n" shard ep json
      | Error reason -> Printf.printf "%-5d %-38s down (%s)\n" shard ep reason)
    (Cluster.Move.status ?timeout_ms ~retries topo)

(* `cluster client status`: one row per replica, probed with
   ping + epoch_probe; exits 1 when any primary is unreachable (the
   condition that loses writes until someone promotes). A backup whose
   clock trails its answering primary's reads `behind N`: it has not
   caught up, so a failover to it would lose N versions. *)
let cluster_status topo_file timeout_ms retries slo =
  let topo = load_topology topo_file in
  (* --slo find=1ms,...: evaluate the objectives against each node's
     latency histograms (fetched as a registry snapshot) and add a
     column showing the worst-attained objective per node. The nodes
     need not know the objectives — attainment is computed client-side. *)
  let objectives = Option.map parse_objectives slo in
  let slo_of c =
    match objectives with
    | None -> ""
    | Some objs -> (
        match registry_snap c with
        | Ok snap -> (
            match Obs.Slo.attainment objs snap with
            | Some (op, f) -> Printf.sprintf "  slo %s %.2f%%" op (100. *. f)
            | None -> "  slo (no samples)")
        | Error _ -> "  slo (bad snapshot)"
        | exception _ -> "  slo (unavailable)")
  in
  Printf.printf "%-5s %-8s %-38s %-7s %-7s %s\n" "shard" "role" "endpoint" "epoch"
    "clock" "state";
  let primaries_down = ref 0 in
  for i = 0 to Cluster.Topology.shards topo - 1 do
    (* stays min_int when the primary does not answer *)
    let primary_clock = ref min_int in
    for j = 0 to Cluster.Topology.replica_count topo i - 1 do
      let ep = Cluster.Topology.replica topo i j in
      let role = if j = 0 then "primary" else Printf.sprintf "backup%d" j in
      let status =
        probe ~retries timeout_ms ep (fun c ->
            Net.Client.ping c;
            let epoch, version, _ = Net.Client.epoch_probe c in
            (epoch, version, slo_of c))
      in
      match status with
      | Ok (epoch, version, slo_col) ->
          if j = 0 then primary_clock := version;
          Printf.printf "%-5d %-8s %-38s %-7d %-7d %s%s\n" i role
            (Net.Sockaddr.to_string ep) epoch version
            (if version < !primary_clock then
               Printf.sprintf "behind %d" (!primary_clock - version)
             else "up")
            slo_col
      | Error e ->
          if j = 0 then incr primaries_down;
          Printf.printf "%-5d %-8s %-38s %-7s %-7s down (%s)\n" i role
            (Net.Sockaddr.to_string ep) "-" "-"
            (match e with
            | Net.Client.Remote_error (code, _) -> Net.Wire.error_code_name code
            | Unix.Unix_error (err, _, _) -> Unix.error_message err
            | e -> Printexc.to_string e)
    done
  done;
  if !primaries_down > 0 then begin
    Printf.eprintf "mvkv: %d primar%s down\n" !primaries_down
      (if !primaries_down = 1 then "y is" else "ies are");
    exit 1
  end

(* Router errors are expected operational conditions (a shard down, a
   key off the map): one line and exit 2, same contract as `die`. *)
let with_router topo_file timeout_ms retries f =
  let topo = load_topology topo_file in
  (* Re-read the spec file when a shard fences us out: a promotion
     rewrote it with a newer epoch. *)
  let reload () = Result.to_option (Cluster.Topology.of_file topo_file) in
  let router = Cluster.Router.create ?timeout_ms ~retries ~reload topo in
  let result = f router in
  Cluster.Router.close router;
  match result with
  | Ok () -> ()
  | Error e -> die "mvkv: %s" (Cluster.Router.error_to_string e)

let cluster_ping topo timeout_ms retries =
  with_router topo timeout_ms retries (fun r ->
      Result.map (fun () -> print_endline "pong") (Cluster.Router.ping r))

let cluster_versions topo timeout_ms retries =
  with_router topo timeout_ms retries (fun r ->
      Result.map
        (Array.iteri (fun shard v -> Printf.printf "shard %d\tversion %d\n" shard v))
        (Cluster.Router.versions r))

(* ---- data commands: one table over a pool, a server or a cluster ---- *)

(* The paper's API (Table 1) on whatever store a data command's
   connection flags name. An operation returns or exits 2 with its
   target's one-line message; [word] is what the target's messages
   print before "version". [compact] takes an absolute horizon or a
   number of versions to keep below the clock, and returns the horizon
   and the entries dropped. *)
type target = {
  word : string;
  insert : int -> int -> unit;
  remove : int -> unit;
  insert_batch : (int * int) list -> unit;
  remove_batch : int list -> unit;
  tag : unit -> int;
  find : ?version:int -> int -> int option;
  history : int -> (int * int Mvdict.Dict_intf.event) list;
  snapshot : ?version:int -> unit -> (int * int) array;
  scan : ?version:int -> limit:int -> lo:int -> hi:int -> (int -> int -> unit) -> unit;
  compact : [ `Before of int | `Retain of int ] -> int * int;
}

(* A horizon of 0 compacts nothing, so it is not sent. *)
let compact_below ~clock compact horizon =
  let before = match horizon with `Before b -> b | `Retain n -> max 0 (clock () - n) in
  (before, if before > 0 then compact before else 0)

let pool_target store =
  { word = "";
    insert = Store.insert store;
    remove = Store.remove store;
    insert_batch = Store.insert_batch store;
    remove_batch = Store.remove_batch store;
    tag = (fun () -> Store.tag store);
    find = Store.find store;
    history = Store.extract_history store;
    snapshot = Store.extract_snapshot store;
    scan = (fun ?version ~limit:_ ~lo ~hi f -> Store.iter_range store ?version ~lo ~hi f);
    compact =
      compact_below ~clock:(fun () -> Store.current_version store) (fun before ->
          Store.compact store ~before) }

(* --retain N probes the server's clock with [Epoch_probe] and sends
   the absolute horizon clock - N. *)
let server_target c =
  { word = "";
    insert = (fun key value -> Net.Client.insert c ~key ~value);
    remove = (fun key -> Net.Client.remove c ~key);
    insert_batch = Net.Client.insert_batch c;
    remove_batch = Net.Client.remove_batch c;
    tag = (fun () -> Net.Client.tag c);
    find = Net.Client.find c;
    history = Net.Client.history c;
    snapshot = Net.Client.snapshot c;
    scan = (fun ?version ~limit ~lo ~hi f -> ignore (Net.Client.scan c ?version ~limit ~lo ~hi f));
    compact =
      compact_below ~clock:(fun () -> Net.Client.clock c) (fun before ->
          Net.Client.compact c ~before) }

let cluster_target r =
  let ok = function Ok v -> v | Error e -> die "mvkv: %s" (Cluster.Router.error_to_string e) in
  { word = "cluster ";
    insert = (fun key value -> ok (Cluster.Router.insert r ~key ~value));
    remove = (fun key -> ok (Cluster.Router.remove r ~key));
    insert_batch = (fun pairs -> ok (Cluster.Router.insert_batch r pairs));
    remove_batch = (fun keys -> ok (Cluster.Router.remove_batch r keys));
    tag = (fun () -> ok (Cluster.Router.tag r));
    find = (fun ?version key -> ok (Cluster.Router.find r ?version key));
    history = (fun key -> ok (Cluster.Router.history r key));
    snapshot = (fun ?version () -> ok (Cluster.Router.snapshot r ?version ()));
    scan =
      (fun ?version ~limit ~lo ~hi f ->
        ignore (ok (Cluster.Router.scan r ?version ~limit ~lo ~hi f)));
    compact =
      (function
      | `Retain keep -> ok (Cluster.Router.compact r ~keep)
      | `Before _ -> invalid_arg "the cluster compacts by --retain only") }

(* Each kind's connection flags, as a term that runs a command body on
   its target and then closes it. The pool dumps --stats afterwards,
   also when the body found a key absent. *)
type kind = Pool | Server | Cluster

exception Absent

let on_pool =
  Term.(
    const (fun pool threads dump body ->
        let store = open_store pool threads in
        Fun.protect ~finally:(fun () -> maybe_stats dump) (fun () -> body (pool_target store)))
    $ pool_arg $ threads_arg $ stats_arg)

let on_server =
  Term.(
    const (fun socket host port timeout_ms retries body ->
        with_client ?timeout_ms ~retries socket host port (fun c -> body (server_target c)))
    $ socket_arg $ host_arg $ port_arg $ timeout_ms_arg $ retries_arg)

let on_cluster =
  Term.(
    const (fun topo timeout_ms retries body ->
        with_router topo timeout_ms retries (fun r -> Ok (body (cluster_target r))))
    $ topology_arg $ timeout_ms_arg $ retries_arg)

let print_pair k v = Printf.printf "%d\t%d\n" k v

(* Mutations tag explicitly to commit their snapshot: a pool's clock is
   recovered from persisted versions. *)
let committed t fmt =
  Printf.ksprintf (fun what -> Printf.printf "%s at %sversion %d\n" what t.word (t.tag ())) fmt

(* Every data command, defined once: a command exists for the kinds
   that have a doc for it. *)
let data_cmds kind on =
  let cmd ?pool ~server ~cluster name body =
    match (match kind with Pool -> pool | Server -> Some server | Cluster -> Some cluster) with
    | None -> []
    | Some doc ->
        let run body on = try on body with Absent -> prerr_endline "(absent)"; exit 1 in
        [ Cmd.v (Cmd.info name ~doc) Term.(const run $ body $ on) ]
  in
  let compact_flags =
    match kind with
    | Cluster -> Term.(const (fun retain -> (None, retain, "--retain")) $ retain_arg)
    | Pool | Server ->
        Term.(const (fun b r -> (b, r, "--before or --retain")) $ before_arg $ retain_arg)
  in
  List.concat
    [ cmd "insert" ~pool:"Insert or update a key." ~server:"Insert or update a key remotely."
        ~cluster:"Insert on the owning shard and cut a cluster tag."
        Term.(
          const (fun key value t ->
              t.insert key value;
              committed t "inserted %d -> %d" key value)
          $ key_arg $ value_arg);
      cmd "remove" ~pool:"Remove a key." ~server:"Remove a key remotely."
        ~cluster:"Remove on the owning shard and cut a cluster tag."
        Term.(const (fun key t -> t.remove key; committed t "removed %d" key) $ key_arg);
      cmd "insert-batch" ~server:"Install many pairs in one frame (one version bump server-side)."
        ~cluster:
          "Bucket pairs per owning shard, one pipelined batch per shard, then cut a \
           cluster tag."
        Term.(
          const (fun pairs t ->
              let pairs = parse_pairs pairs in
              t.insert_batch pairs;
              committed t "inserted %d pair(s)" (List.length pairs))
          $ pairs_arg);
      cmd "remove-batch" ~server:"Remove many keys in one frame (one version bump server-side)."
        ~cluster:
          "Bucket keys per owning shard, one pipelined batch per shard, then cut a \
           cluster tag."
        Term.(
          const (fun keys t ->
              let keys = parse_keys keys in
              t.remove_batch keys;
              committed t "removed %d key(s)" (List.length keys))
          $ keys_arg);
      cmd "scan" ~server:"Stream the live pairs of [--lo, --hi) in key order, paged."
        ~cluster:"Stream the live pairs of [--lo, --hi) across shards in key order, paged."
        Term.(
          const (fun lo hi version limit t ->
              if hi <= lo then die "mvkv: scan needs --lo < --hi";
              t.scan ?version ~limit ~lo ~hi print_pair)
          $ lo_arg $ hi_arg $ version_arg $ limit_arg);
      cmd "tag" ~pool:"Commit a snapshot and print its version."
        ~server:"Commit a snapshot remotely and print its version."
        ~cluster:"Cut a cluster-wide snapshot version on every shard."
        Term.(const (fun t -> Printf.printf "version %d\n" (t.tag ())));
      cmd "find" ~pool:"Look a key up (optionally in a past snapshot)."
        ~server:"Look a key up remotely (optionally in a past snapshot)."
        ~cluster:"Route a lookup to the owning shard."
        Term.(
          const (fun key version t ->
              match t.find ?version key with
              | Some value -> Printf.printf "%d\n" value
              | None -> raise Absent)
          $ key_arg $ version_arg);
      cmd "history" ~pool:"Print the evolution of a key."
        ~server:"Print the evolution of a key remotely."
        ~cluster:"Gather a key's history across shards."
        Term.(
          const (fun key t ->
              List.iter
                (function
                  | v, Mvdict.Dict_intf.Put x -> Printf.printf "v%d\tput\t%d\n" v x
                  | v, Mvdict.Dict_intf.Del -> Printf.printf "v%d\tdel\n" v)
                (t.history key))
          $ key_arg);
      cmd "snapshot" ~pool:"Print all live pairs of a snapshot in key order."
        ~server:"Print all live pairs of a snapshot remotely."
        ~cluster:"Page every shard's range through Scan, in key order."
        Term.(
          const (fun version t -> Array.iter (fun (k, v) -> print_pair k v) (t.snapshot ?version ()))
          $ version_arg);
      cmd "compact" ~pool:"Garbage-collect history (offline): --before V or --retain N."
        ~server:"Garbage-collect the server's history: --before V or --retain N."
        ~cluster:
          "Cluster-wide GC: probe shard clocks, compact below the safe horizon (--retain N)."
        Term.(
          const (fun (before, retain, needs) t ->
              let before, dropped =
                t.compact
                  (match (before, retain) with
                  | Some _, Some _ -> die "mvkv: pass either --before or --retain, not both"
                  | Some b, None ->
                      if b < 0 then die "mvkv: --before must be non-negative";
                      `Before b
                  | None, Some n ->
                      if n < 0 then die "mvkv: --retain must be non-negative";
                      `Retain n
                  | None, None -> die "mvkv: %scompact needs %s" t.word needs)
              in
              Printf.printf "compacted %sbefore version %d: dropped %d entries\n" t.word
                before dropped)
          $ compact_flags) ]

(* ---- fleet-wide inspection: cluster top / metrics / trace ---- *)

let warn_skipped skipped =
  List.iter
    (fun (node, reason) -> Printf.eprintf "mvkv: skipped %s: %s\n%!" node reason)
    skipped

(* Print a Chrome trace [json] (whose text is [text]), or write it to
   [out] and say how many [what] it holds. *)
let emit_trace ~what out json text =
  match out with
  | None -> print_endline text
  | Some path ->
      let n =
        match Obs.Json.member "traceEvents" json with
        | Some (Obs.Json.List evs) -> List.length evs
        | _ -> 0
      in
      let oc = open_out path in
      output_string oc text;
      output_char oc '\n';
      close_out oc;
      Printf.printf "wrote %d %s to %s (open in chrome://tracing or ui.perfetto.dev)\n" n
        what path

(* `mvkv cluster metrics`: every replica's registry as one Prometheus
   page, each node a {shard,replica} label set — point one scrape
   config at the router's host instead of N exporters. *)
let cluster_metrics topo timeout_ms retries =
  with_router topo timeout_ms retries (fun r ->
      let page, skipped = Cluster.Router.fleet_metrics r in
      print_string page;
      warn_skipped skipped;
      Ok ())

(* `mvkv cluster trace`: drain every node's span ring into one Chrome
   trace — a lane per node, clocks rebased — so a traced request can be
   followed across the whole fleet in one chrome://tracing load. *)
let cluster_trace topo timeout_ms retries out keep =
  with_router topo timeout_ms retries (fun r ->
      let doc, skipped = Cluster.Router.fleet_trace ~clear:(not keep) r in
      warn_skipped skipped;
      emit_trace ~what:"event(s)" out doc (Obs.Json.to_string doc);
      Ok ())

(* The dashboards' refresh loop: [count] rounds (default: until
   interrupted), [interval] seconds apart. *)
let refresh ~interval ~count f =
  let rounds = Option.value count ~default:max_int in
  for i = 1 to rounds do
    f ();
    if i < rounds then
      try Unix.sleepf interval with Unix.Unix_error (Unix.EINTR, _, _) -> ()
  done

(* Snapshot queries shared by `mvkv top` and `mvkv cluster top`. A
   rate is a counter's delta per second since the previous poll
   [prev = (time, snapshot)], "-" until there is one. Counters only
   move forward on a live server, so a negative delta means the server
   restarted between polls (fresh registry): clamp it, so a rate can be
   stale for one refresh, never negative. A percentile reads "-" when
   no sample was timed. *)
let rate ~prev ~now snap name =
  match prev with
  | Some (t0, s0) when now > t0 ->
      Printf.sprintf "%.1f"
        (float_of_int (max 0 (Obs.Snap.counter snap name - Obs.Snap.counter s0 name))
        /. (now -. t0))
  | _ -> "-"

let pct snap op q =
  match Obs.Snap.find_hist snap (Printf.sprintf "net.%s.ns" op) with
  | Some h when h.Obs.Snap.hcount > 0 ->
      Printf.sprintf "%.1fus" (float_of_int (Obs.Snap.hist_percentile h q) /. 1e3)
  | _ -> "-"

(* `mvkv cluster top`: one row per replica plus a cluster-wide
   aggregate, refreshed like `mvkv top`. Rates are counter deltas
   against each row's previous poll, percentiles come from the per-node
   histograms; the aggregate row merges every snapshot first, so its
   p50/p99 are computed on the summed log-buckets, not averaged
   per-node percentiles. *)
let cluster_top topo_file timeout_ms retries interval count =
  if interval <= 0. then die "mvkv: --interval must be positive";
  with_router topo_file timeout_ms retries @@ fun router ->
  let prevs = Hashtbl.create 8 in
  let row_rate ~now label snap name =
    rate ~prev:(Hashtbl.find_opt prevs label) ~now snap name
  in
  let row ~now label snap =
    Printf.printf "%-12s %10d %8s %10s %10s %10s %10s %5d %9s\n" label
      (Obs.Snap.counter snap "net.requests")
      (row_rate ~now label snap "net.requests")
      (pct snap "find" 0.5) (pct snap "find" 0.99) (pct snap "insert" 0.5)
      (pct snap "insert" 0.99)
      (Obs.Snap.gauge snap "repl.lagging_backups")
      (let bytes =
         Obs.Snap.counter snap "pmem.alloc_bytes"
         - Obs.Snap.counter snap "pmem.free_bytes"
       in
       if bytes >= 1 lsl 20 then
         Printf.sprintf "%.1fMiB" (float_of_int bytes /. float_of_int (1 lsl 20))
       else Printf.sprintf "%dB" bytes)
  in
  Ok (refresh ~interval ~count @@ fun () ->
    let snaps = Cluster.Router.fleet_snaps router in
    let now = Unix.gettimeofday () in
    print_string "\027[H\027[J";
    let tm = Unix.localtime now in
    Printf.printf "mvkv cluster top — %02d:%02d:%02d\n\n" tm.Unix.tm_hour
      tm.Unix.tm_min tm.Unix.tm_sec;
    Printf.printf "%-12s %10s %8s %10s %10s %10s %10s %5s %9s\n" "node" "reqs"
      "req/s" "find p50" "find p99" "ins p50" "ins p99" "lag" "pmem";
    let up = ref [] in
    List.iter
      (fun { Cluster.Router.shard; slot; snap } ->
        let label =
          if slot = 0 then Printf.sprintf "shard%d" shard
          else Printf.sprintf "shard%d.b%d" shard slot
        in
        match snap with
        | Ok snap ->
            up := (label, snap) :: !up;
            row ~now label snap
        | Error reason -> Printf.printf "%-12s down (%s)\n" label reason)
      snaps;
    (match List.rev !up with
    | [] -> Printf.printf "\n(no node reachable)\n"
    | up ->
        let m = Obs.Snap.merge_all (List.map snd up) in
        if List.length up > 1 then begin
          print_newline ();
          row ~now "cluster" m
        end;
        (* Fleet-wide migration line: live seals and copy traffic show a
           reshard in flight; sealed rejects count writers bouncing off a
           Moved answer (each one a router chase, not a failure). *)
        let installed = Obs.Snap.counter m "move.install.events" in
        let sealed = Obs.Snap.gauge m "move.sealed_ranges" in
        let rejects = Obs.Snap.counter m "move.sealed_rejects" in
        if installed > 0 || sealed > 0 || rejects > 0 then
          Printf.printf
            "\nmove: %d sealed range(s)   installed %d event(s) (%s/s)  \
             sealed rejects %d\n"
            sealed installed
            (row_rate ~now "cluster" m "move.install.events")
            rejects;
        (* Each row's rates need its previous poll. *)
        List.iter
          (fun (label, snap) -> Hashtbl.replace prevs label (now, snap))
          (("cluster", m) :: up));
    Printf.printf "%!")

(* ---- live inspection: metrics / trace / slowlog / top ---- *)

let metrics socket host port =
  with_client socket host port (fun c ->
      print_string (Obs.Snap.prometheus [ ([], fetch_snap c) ]))

let trace socket host port out keep =
  with_client socket host port (fun c ->
      let text = Net.Client.trace_dump ~clear:(not keep) c in
      (* Validate before writing: a garbled trace exits nonzero instead
         of leaving an unloadable file behind. *)
      match Obs.Json.of_string text with
      | Error e -> die "mvkv: server returned invalid trace JSON: %s" e
      | Ok json -> emit_trace ~what:"span(s)" out json text)

let slowlog socket host port n =
  with_client socket host port (fun c ->
      let text = Net.Client.slowlog c ~n in
      match Obs.Json.of_string text with
      | Error e -> die "mvkv: server returned invalid slowlog JSON: %s" e
      | Ok (Obs.Json.List entries) ->
          if entries = [] then print_endline "(slowlog empty)"
          else begin
            Printf.printf "%-24s %-10s %-12s %s\n" "wall time" "op" "latency" "key";
            List.iter
              (fun e ->
                let str k =
                  match Obs.Json.member k e with
                  | Some (Obs.Json.String s) -> s
                  | _ -> "?"
                in
                let num k =
                  match Obs.Json.member k e with
                  | Some (Obs.Json.Int n) -> float_of_int n
                  | Some (Obs.Json.Float f) -> f
                  | _ -> nan
                in
                let ts = num "wall_ts" in
                let tm = Unix.localtime ts in
                Printf.printf "%04d-%02d-%02d %02d:%02d:%02d.%03d  %-10s %9.3fms %s\n"
                  (tm.Unix.tm_year + 1900) (tm.Unix.tm_mon + 1) tm.Unix.tm_mday
                  tm.Unix.tm_hour tm.Unix.tm_min tm.Unix.tm_sec
                  (int_of_float (Float.rem ts 1.0 *. 1000.))
                  (str "op")
                  (num "latency_ns" /. 1e6)
                  (match Obs.Json.member "key" e with
                  | Some (Obs.Json.Int k) -> string_of_int k
                  | _ -> "-"))
              entries
          end
      | Ok _ -> die "mvkv: server returned a non-list slowlog payload")

(* `mvkv top`: poll the registry snapshot and render a refreshing
   per-operation table — every rate a counter delta between polls,
   percentiles from the live histograms. *)
let render_top ~prev ~now snap =
  let counter = Obs.Snap.counter snap and gauge = Obs.Snap.gauge snap in
  let rate = rate ~prev ~now snap in
  (* Home the cursor and clear to the end of the screen: a flicker-free
     refresh for a table of constant height. *)
  print_string "\027[H\027[J";
  let tm = Unix.localtime now in
  Printf.printf "mvkv top — %02d:%02d:%02d   active conns %d   reqs/s %s   in %s B/s   out %s B/s\n"
    tm.Unix.tm_hour tm.Unix.tm_min tm.Unix.tm_sec
    (gauge "net.active_connections")
    (rate "net.requests") (rate "net.bytes_in") (rate "net.bytes_out");
  Printf.printf "\n%-13s %12s %10s %12s %12s\n" "op" "total" "ops/s" "p50" "p99";
  List.iter
    (fun op ->
      let ops = Printf.sprintf "net.%s.ops" op in
      if counter ops > 0 then
        Printf.printf "%-13s %12d %10s %12s %12s\n" op (counter ops) (rate ops)
          (pct snap op 0.5) (pct snap op 0.99))
    Net.Wire.request_labels;
  Printf.printf "\npmem: %d lines flushed (%s/s)   %d fences (%s/s)\n"
    (counter "pmem.flushed_lines")
    (rate "pmem.flushed_lines")
    (counter "pmem.fences")
    (rate "pmem.fences");
  (* Batching effectiveness: how much durability work batch scopes
     coalesced away, and how many frames the server drains per
     wakeup. *)
  Printf.printf
    "      saved by batching: %d lines (%s/s)   %d fences (%s/s)\n"
    (counter "pmem.flushes_saved")
    (rate "pmem.flushes_saved")
    (counter "pmem.fences_saved")
    (rate "pmem.fences_saved");
  Printf.printf "net:  batch p50 %s frames\n"
    (match Obs.Snap.find_hist snap "net.batch_size" with
    | Some h when h.Obs.Snap.hcount > 0 ->
        string_of_int (Obs.Snap.hist_percentile h 0.5)
    | _ -> "-");
  (* Replication health: forwarding/catch-up are primary-side. Redials
     count every client in the polled process that reconnected: a
     primary's replication chain redialling its backups, or a router.
     Read failovers appear when the process runs a router (and stay 0
     on a plain shard). *)
  Printf.printf
    "repl: forwarded %d (%s/s)   catchups %d   lagging backups %d   \
     redials %d   read failovers %d   bad epochs %d\n"
    (counter "repl.forwarded")
    (rate "repl.forwarded")
    (counter "repl.catchups")
    (gauge "repl.lagging_backups")
    (counter "net.client.redials")
    (counter "repl.read_failovers")
    (counter "net.bad_epoch");
  Printf.printf "%!"

let top socket host port interval count =
  if interval <= 0. then die "mvkv: --interval must be positive";
  with_client socket host port (fun c ->
      let prev = ref None in
      refresh ~interval ~count @@ fun () ->
        let snap = fetch_snap c in
        let now = Unix.gettimeofday () in
        (* A restart zeroes every counter; the previous poll would make
           every rate negative. Reseed the baseline instead. *)
        (match !prev with
        | Some (_, s0)
          when Obs.Snap.counter snap "net.requests"
               < Obs.Snap.counter s0 "net.requests" ->
            prev := None
        | _ -> ());
        render_top ~prev:!prev ~now snap;
        prev := Some (now, snap))

let stats pool threads =
  let store = open_store pool threads in
  let heap_stats = Pmem.Pheap.stats (Store.heap store) in
  Printf.printf "keys: %d\ncurrent version: %d\n" (Store.key_count store)
    (Store.current_version store);
  Format.printf "pmem: %a@." Pmem.Pstats.pp heap_stats;
  (* The same registry `--stats` dumps after any command: op counters
     and latency histograms from this invocation (including the
     recovery rebuild span) plus the global pmem totals. *)
  print_registry ()

let cmd_of name doc term = Cmd.v (Cmd.info name ~doc) term

let () =
  let cmds =
    [
      cmd_of "init" "Create and format a pool file."
        Term.(const init $ pool_arg $ size_arg $ stats_arg);
      cmd_of "stats" "Pool statistics."
        Term.(const stats $ pool_arg $ threads_arg);
      cmd_of "serve"
        "Serve the pool's dict API over a socket until SIGINT/SIGTERM."
        Term.(
          const serve $ pool_arg $ threads_arg $ socket_arg $ host_arg $ port_arg
          $ workers_arg $ max_conns_arg $ timeout_arg $ slowlog_ms_arg
          $ trace_cap_arg $ serve_retain_arg $ gc_interval_arg);
      cmd_of "top" "Live per-operation dashboard for a running server."
        Term.(const top $ socket_arg $ host_arg $ port_arg $ interval_arg $ count_arg);
      cmd_of "metrics" "Dump a running server's metrics in Prometheus text format."
        Term.(const metrics $ socket_arg $ host_arg $ port_arg);
      cmd_of "trace"
        "Fetch a running server's span ring as Chrome trace JSON (clears it \
         unless --keep)."
        Term.(const trace $ socket_arg $ host_arg $ port_arg $ trace_out_arg $ keep_arg);
      cmd_of "slowlog" "Print a running server's slowest recent requests."
        Term.(const slowlog $ socket_arg $ host_arg $ port_arg $ entries_arg);
      Cmd.group
        (Cmd.info "client" ~doc:"Drive a running mvkv server over the wire protocol.")
        ([
           cmd_of "ping" "Round-trip liveness check."
             Term.(
               const client_ping $ socket_arg $ host_arg $ port_arg $ timeout_ms_arg
               $ retries_arg);
           cmd_of "stats" "Fetch the server's observability registry as JSON."
             Term.(
               const client_stats $ socket_arg $ host_arg $ port_arg
               $ timeout_ms_arg $ retries_arg);
         ]
        @ data_cmds Server on_server);
      Cmd.group
        (Cmd.info "cluster"
           ~doc:
             "Sharded serving: one pool per shard, key-range routing and \
              distributed snapshots through a topology file.")
        [
          cmd_of "serve"
            "Serve one replica of a topology: --shard I (primary, forwards \
             to its backups) or --replica-of I --slot J (backup)."
            Term.(
              const cluster_serve $ topology_arg $ shard_arg $ replica_of_arg
              $ slot_arg $ pool_arg $ threads_arg $ workers_arg
              $ max_conns_arg $ timeout_arg $ slowlog_ms_arg $ trace_cap_arg
              $ serve_retain_arg $ gc_interval_arg);
          cmd_of "promote"
            "Promote a backup to primary: bump the epoch, fence the replica \
             set, rewrite the topology file."
            Term.(
              const cluster_promote $ topology_arg $ timeout_ms_arg
              $ retries_arg $ promote_shard_arg $ promote_to_arg);
          cmd_of "move"
            "Hand a shard's whole range to a new replica set under \
             traffic: copy + catch-up rounds, sealed cutover, epoch bump. \
             Re-run the same command to resume after a coordinator crash."
            Term.(
              const cluster_move $ topology_arg $ timeout_ms_arg $ retries_arg
              $ move_shard_arg $ move_dest_arg);
          cmd_of "split"
            "Split a shard's range at --at: the upper half moves to --dest \
             as a new shard (later shard ids shift up)."
            Term.(
              const cluster_split $ topology_arg $ timeout_ms_arg $ retries_arg
              $ move_shard_arg $ split_at_arg $ move_dest_arg);
          cmd_of "merge"
            "Fold shard I+1's range into shard I (its left neighbour), \
             then drop it from the topology."
            Term.(
              const cluster_merge $ topology_arg $ timeout_ms_arg $ retries_arg
              $ move_shard_arg);
          cmd_of "moves"
            "Per-shard migration status: active range seals, their age and \
             redirect target."
            Term.(
              const cluster_moves $ topology_arg $ timeout_ms_arg $ retries_arg);
          cmd_of "top"
            "Live fleet dashboard: one row per replica plus a cluster-wide \
             aggregate (rates, p50/p99, lagging backups, pmem footprint)."
            Term.(
              const cluster_top $ topology_arg $ timeout_ms_arg $ retries_arg
              $ interval_arg $ count_arg);
          cmd_of "metrics"
            "One Prometheus page for the whole fleet, each node a \
             {shard,replica} label set."
            Term.(
              const cluster_metrics $ topology_arg $ timeout_ms_arg
              $ retries_arg);
          cmd_of "trace"
            "Drain every node's span ring into one merged Chrome trace \
             (clears them unless --keep)."
            Term.(
              const cluster_trace $ topology_arg $ timeout_ms_arg $ retries_arg
              $ trace_out_arg $ keep_arg);
          Cmd.group
            (Cmd.info "client" ~doc:"Drive a running sharded cluster.")
            ([
               cmd_of "ping" "Round-trip every shard."
                 Term.(
                   const cluster_ping $ topology_arg $ timeout_ms_arg $ retries_arg);
               cmd_of "status"
                 "Per-replica health table (role, epoch, clock, up/behind/down, \
                  optional --slo attainment); exits 1 if any primary is down."
                 Term.(
                   const cluster_status $ topology_arg $ timeout_ms_arg
                   $ retries_arg $ slo_arg);
               cmd_of "versions" "Print every shard's current version."
                 Term.(
                   const cluster_versions $ topology_arg $ timeout_ms_arg
                   $ retries_arg);
             ]
            @ data_cmds Cluster on_cluster);
        ];
    ]
    @ data_cmds Pool on_pool
  in
  let info =
    Cmd.info "mvkv"
      ~version:(Printf.sprintf "1.0.0 (heap layout %d)" Pmem.Pheap.layout_version)
      ~doc:"Persistent multi-version ordered key-value store"
  in
  exit (Cmd.eval (Cmd.group info cmds))
