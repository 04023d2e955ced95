(* mvkv — command-line front end for the persistent multi-version store.

   The store lives in a file-backed persistent heap; every invocation
   opens (or creates) the heap, applies one operation, and exits — so
   the persistence path (including index reconstruction) is exercised on
   every call.

     mvkv init     --pool /tmp/pool.mvkv --size 16777216
     mvkv insert   --pool /tmp/pool.mvkv --key 10 --value 100
     mvkv tag      --pool /tmp/pool.mvkv
     mvkv find     --pool /tmp/pool.mvkv --key 10 [--at 3]
     mvkv history  --pool /tmp/pool.mvkv --key 10
     mvkv snapshot --pool /tmp/pool.mvkv [--at 3]
     mvkv stats    --pool /tmp/pool.mvkv

   `mvkv serve` instead keeps the heap open and serves the whole dict
   API over a socket (lib/net wire protocol); `mvkv client <op>` is the
   matching remote front end:

     mvkv serve                --pool /tmp/pool.mvkv --port 7787
     mvkv client insert        --port 7787 --key 10 --value 100
     mvkv client insert-batch  --port 7787 --pairs 1=10,2=20,3=30
     mvkv client scan          --port 7787 --lo 0 --hi 100 [--at 3]
     mvkv client find          --port 7787 --key 10 [--at 3]
     mvkv client stats         --port 7787

   `mvkv cluster` scales that to K shard processes: each shard is a
   `serve` bound to its slot in a shared topology file, and the client
   side routes through lib/cluster's coordinator:

     mvkv cluster serve            --topology topo.txt --shard 0 --pool s0.mvkv
     mvkv cluster client insert    --topology topo.txt --key 10 --value 100
     mvkv cluster client snapshot  --topology topo.txt --mode opt *)

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

let key_arg =
  let doc = "Key (non-negative integer)." in
  Arg.(required & opt (some int) None & info [ "key"; "k" ] ~docv:"KEY" ~doc)

let value_arg =
  let doc = "Value (integer)." in
  Arg.(required & opt (some int) None & info [ "value"; "v" ] ~docv:"VALUE" ~doc)

let version_arg =
  let doc = "Snapshot version to read (defaults to the current state)." in
  Arg.(value & opt (some int) None & info [ "at" ] ~docv:"V" ~doc)

let pairs_arg =
  let doc = "Comma-separated KEY=VALUE pairs, e.g. $(b,1=10,2=20)." in
  Arg.(required & opt (some string) None & info [ "pairs" ] ~docv:"PAIRS" ~doc)

let keys_arg =
  let doc = "Comma-separated keys, e.g. $(b,1,2,3)." in
  Arg.(required & opt (some string) None & info [ "keys" ] ~docv:"KEYS" ~doc)

let lo_arg =
  let doc = "Scan range start (inclusive)." in
  Arg.(required & opt (some int) None & info [ "lo" ] ~docv:"LO" ~doc)

let hi_arg =
  let doc = "Scan range end (exclusive)." in
  Arg.(required & opt (some int) None & info [ "hi" ] ~docv:"HI" ~doc)

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

(* The tag clock is recovered from persisted versions, so mutating
   commands tag explicitly to commit their snapshot. *)

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

let insert pool threads key value dump =
  let store = open_store pool threads in
  Store.insert store key value;
  let version = Store.tag store in
  Printf.printf "inserted %d -> %d at version %d\n" key value version;
  maybe_stats dump

let remove pool threads key dump =
  let store = open_store pool threads in
  Store.remove store key;
  let version = Store.tag store in
  Printf.printf "removed %d at version %d\n" key version;
  maybe_stats dump

let tag pool threads dump =
  let store = open_store pool threads in
  Printf.printf "version %d\n" (Store.tag store);
  maybe_stats dump

let find pool threads key version dump =
  let store = open_store pool threads in
  (match Store.find store ?version key with
  | Some value -> Printf.printf "%d\n" value
  | None ->
      maybe_stats dump;
      prerr_endline "(absent)";
      exit 1);
  maybe_stats dump

let history pool threads key dump =
  let store = open_store pool threads in
  List.iter
    (fun (version, event) ->
      match event with
      | Mvdict.Dict_intf.Put v -> Printf.printf "v%d\tput\t%d\n" version v
      | Mvdict.Dict_intf.Del -> Printf.printf "v%d\tdel\n" version)
    (Store.extract_history store key);
  maybe_stats dump

let snapshot pool threads version dump =
  let store = open_store pool threads in
  let pairs = match version with
    | Some version -> Store.extract_snapshot store ~version ()
    | None -> Store.extract_snapshot store ()
  in
  Array.iter (fun (k, v) -> Printf.printf "%d\t%d\n" k v) pairs;
  maybe_stats dump

let before_arg =
  let doc =
    "Compact away history no snapshot at or after version $(docv) \
     observes."
  in
  Arg.(value & opt (some int) None & info [ "before" ] ~docv:"V" ~doc)

let retain_arg =
  let doc = "Compact so the last $(docv) versions stay fully observable." in
  Arg.(value & opt (some int) None & info [ "retain" ] ~docv:"N" ~doc)

let compact pool threads before retain dump =
  let store = open_store pool threads in
  let before =
    match (before, retain) with
    | Some b, None -> b
    | None, Some n ->
        if n < 0 then die "mvkv: --retain must be non-negative";
        max 0 (Store.current_version store - n)
    | Some _, Some _ -> die "mvkv: pass either --before or --retain, not both"
    | None, None -> die "mvkv: compact needs --before or --retain"
  in
  if before < 0 then die "mvkv: --before must be non-negative";
  let dropped = if before > 0 then Store.compact store ~before else 0 in
  Printf.printf "compacted before version %d: dropped %d entries\n" before dropped;
  maybe_stats dump

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

let batch_arg =
  let doc = "Max pipelined requests applied per batch." in
  Arg.(value & opt int 64 & info [ "batch" ] ~docv:"B" ~doc)

let max_conns_arg =
  let doc = "Connection limit; excess connects are refused with a busy frame." in
  Arg.(value & opt int 256 & info [ "max-conns" ] ~docv:"N" ~doc)

let timeout_arg =
  let doc = "Per-request timeout (seconds) for completing a started frame." in
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
     ns/us/ms/s). The server classifies every timed request against its \
     objective, maintaining $(b,slo.<op>.ok)/$(b,slo.<op>.violations) \
     counters and a violations-per-second burn window scrapers can alert \
     on."
  in
  Arg.(value & opt (some string) None & info [ "slo" ] ~docv:"SPEC" ~doc)

let parse_slo = function
  | None -> None
  | Some spec -> (
      match Obs.Slo.parse spec with
      | Ok objectives -> Some (Obs.Slo.create objectives)
      | Error e -> die "mvkv: bad --slo: %s" e)

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
    listen workers batch max_conns timeout slowlog_ms trace_cap retain
    gc_interval slo_spec =
  let slo = parse_slo slo_spec in
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
      Net.Server.start ~store ~workers ~batch ~max_conns ~request_timeout:timeout
        ~slowlog_threshold_ns:(int_of_float (slowlog_ms *. 1e6))
        ~trace ?slo ?epoch_cell ?on_mutation ~listen ()
    with
    | server -> server
    | exception Unix.Unix_error (e, _, _) ->
        die "mvkv: cannot listen on %s: %s" (Net.Sockaddr.to_string listen)
          (Unix.error_message e)
  in
  Format.printf "mvkv: serving %s%s on %a (workers=%d, batch=%d, max-conns=%d%s%s)@."
    pool banner Net.Sockaddr.pp (Net.Server.addr server) workers batch max_conns
    (match retain with
    | Some keep -> Printf.sprintf ", retain=%d" keep
    | None -> "")
    (match slo with
    | Some slo -> ", slo=" ^ Obs.Slo.to_string (Obs.Slo.objectives slo)
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

let serve pool threads socket host port workers batch max_conns timeout slowlog_ms
    trace_cap retain gc_interval slo =
  run_server ~banner:"" pool threads (addr_of socket host port) workers batch
    max_conns timeout slowlog_ms trace_cap retain gc_interval slo

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
      | exception Net.Client.Remote_error (code, msg) ->
          Net.Client.close client;
          die "mvkv: server error (%s): %s" (Net.Wire.error_code_name code) msg
      | exception Net.Client.Protocol_error msg ->
          Net.Client.close client;
          die "mvkv: protocol error: %s" msg
      (* EAGAIN/EWOULDBLOCK surface when --timeout-ms expires and the
         retry budget is spent; name the cause rather than the errno. *)
      | exception
          Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.ETIMEDOUT), _, _)
        ->
          Net.Client.close client;
          die "mvkv: request timed out after %d retr%s" retries
            (if retries = 1 then "y" else "ies")
      | exception Unix.Unix_error (e, _, _) ->
          Net.Client.close client;
          die "mvkv: connection lost: %s" (Unix.error_message e)
      | exception End_of_file ->
          Net.Client.close client;
          die "mvkv: server closed the connection")

let client_ping socket host port timeout_ms retries =
  with_client ?timeout_ms ~retries socket host port (fun c ->
      Net.Client.ping c;
      print_endline "pong")

let client_insert socket host port timeout_ms retries key value =
  with_client ?timeout_ms ~retries socket host port (fun c ->
      Net.Client.insert c ~key ~value;
      let version = Net.Client.tag c in
      Printf.printf "inserted %d -> %d at version %d\n" key value version)

let client_remove socket host port timeout_ms retries key =
  with_client ?timeout_ms ~retries socket host port (fun c ->
      Net.Client.remove c ~key;
      let version = Net.Client.tag c in
      Printf.printf "removed %d at version %d\n" key version)

let client_insert_batch socket host port timeout_ms retries pairs =
  let pairs = parse_pairs pairs in
  with_client ?timeout_ms ~retries socket host port (fun c ->
      Net.Client.insert_batch c pairs;
      let version = Net.Client.tag c in
      Printf.printf "inserted %d pair(s) at version %d\n" (List.length pairs)
        version)

let client_remove_batch socket host port timeout_ms retries keys =
  let keys = parse_keys keys in
  with_client ?timeout_ms ~retries socket host port (fun c ->
      Net.Client.remove_batch c keys;
      let version = Net.Client.tag c in
      Printf.printf "removed %d key(s) at version %d\n" (List.length keys) version)

let client_scan socket host port timeout_ms retries lo hi version limit =
  if hi <= lo then die "mvkv: scan needs --lo < --hi";
  with_client ?timeout_ms ~retries socket host port (fun c ->
      ignore
        (Net.Client.scan c ?version ~limit ~lo ~hi (fun k v ->
             Printf.printf "%d\t%d\n" k v)))

let client_tag socket host port timeout_ms retries =
  with_client ?timeout_ms ~retries socket host port (fun c ->
      Printf.printf "version %d\n" (Net.Client.tag c))

let client_find socket host port timeout_ms retries key version =
  with_client ?timeout_ms ~retries socket host port (fun c ->
      match Net.Client.find c ?version key with
      | Some value -> Printf.printf "%d\n" value
      | None ->
          prerr_endline "(absent)";
          exit 1)

let client_history socket host port timeout_ms retries key =
  with_client ?timeout_ms ~retries socket host port (fun c ->
      List.iter
        (fun (version, event) ->
          match event with
          | Mvdict.Dict_intf.Put v -> Printf.printf "v%d\tput\t%d\n" version v
          | Mvdict.Dict_intf.Del -> Printf.printf "v%d\tdel\n" version)
        (Net.Client.history c key))

(* --retain N probes the server's clock with [Tag_at 0] and sends the
   absolute horizon clock - N, the same shape as `cluster compact`. *)
let client_compact socket host port timeout_ms retries before retain =
  with_client ?timeout_ms ~retries socket host port (fun c ->
      let before =
        match (before, retain) with
        | Some _, Some _ -> die "mvkv: pass either --before or --retain, not both"
        | Some before, None ->
            if before < 0 then die "mvkv: --before must be non-negative";
            before
        | None, Some keep ->
            if keep < 0 then die "mvkv: --retain must be non-negative";
            max 0 (Net.Client.tag_at c ~version:0 - keep)
        | None, None -> die "mvkv: compact needs --before or --retain"
      in
      let dropped = if before > 0 then Net.Client.compact c ~before else 0 in
      Printf.printf "compacted before version %d: dropped %d entries\n" before
        dropped)

let client_snapshot socket host port timeout_ms retries version =
  with_client ?timeout_ms ~retries socket host port (fun c ->
      Array.iter
        (fun (k, v) -> Printf.printf "%d\t%d\n" k v)
        (Net.Client.snapshot c ?version ()))

(* The server's whole lib/obs registry as a mergeable snapshot — the
   one registry export, rendered here as JSON, Prometheus text or the
   top table. A garbled payload exits nonzero instead of echoing junk. *)
let fetch_snap c =
  match
    Result.bind (Obs.Json.of_string (Net.Client.registry_snap c)) Obs.Snap.of_json
  with
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
  let doc = "Shard whose primary is being replaced." in
  Arg.(required & opt (some int) None & info [ "shard" ] ~docv:"I" ~doc)

let promote_to_arg =
  let doc =
    "Backup slot to promote (default: the reachable backup with the \
     highest version)."
  in
  Arg.(value & opt (some int) None & info [ "to" ] ~docv:"J" ~doc)

let move_shard_arg =
  let doc = "Shard whose range is being moved / split / merged." in
  Arg.(required & opt (some int) None & info [ "shard" ] ~docv:"I" ~doc)

let move_dest_arg =
  let doc =
    "Destination replica set, repeated (first = new primary), e.g. \
     $(b,--dest tcp://host:port --dest unix:///path)."
  in
  Arg.(value & opt_all string [] & info [ "dest" ] ~docv:"ENDPOINT" ~doc)

let split_at_arg =
  let doc = "Split point: the new shard owns keys at or above $(docv)." in
  Arg.(required & opt (some int) None & info [ "at" ] ~docv:"KEY" ~doc)

let move_page_arg =
  let doc = "Events per migration frame during the copy phase." in
  Arg.(value & opt int 4096 & info [ "page" ] ~docv:"N" ~doc)

let move_lag_arg =
  let doc =
    "Cut over once a whole catch-up round ships at most $(docv) events."
  in
  Arg.(value & opt int 64 & info [ "lag" ] ~docv:"N" ~doc)

let move_rounds_arg =
  let doc = "Catch-up round budget before cutover happens regardless." in
  Arg.(value & opt int 16 & info [ "max-rounds" ] ~docv:"N" ~doc)

let load_topology file =
  match Cluster.Topology.of_file file with
  | Ok topo -> topo
  | Error msg -> die "mvkv: %s: %s" file msg
  | exception Sys_error msg -> die "mvkv: cannot read topology: %s" msg

let check_shard_id topo topo_file shard =
  if shard < 0 || shard >= Cluster.Topology.shards topo then
    die "mvkv: no shard %d in %s (%d shards)" shard topo_file
      (Cluster.Topology.shards topo)

let cluster_serve topo_file shard replica_of slot pool threads workers batch
    max_conns timeout slowlog_ms trace_cap retain gc_interval slo =
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
            Repl.Chain.create ~epoch_cell
              ~snapshot:(fun ?version () -> Store.extract_snapshot store ?version ())
              ~current_version:(fun () -> Store.current_version store)
              backups
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
        workers batch max_conns timeout slowlog_ms trace_cap retain gc_interval
        slo
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
        workers batch max_conns timeout slowlog_ms trace_cap retain gc_interval
        slo

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
  let timeout_ms = Some (Option.value timeout_ms ~default:2000) in
  let probe ep =
    match Net.Client.connect ~retries ?timeout_ms ep with
    | exception _ -> None
    | c ->
        let r =
          match Net.Client.epoch_probe c with
          | epoch, version -> Some (epoch, version)
          | exception _ -> None
        in
        Net.Client.close c;
        r
  in
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
          match probe (Cluster.Topology.replica topo shard j) with
          | Some (_, version) -> (
              match !best with
              | Some (_, v) when v >= version -> ()
              | _ -> best := Some (j, version))
          | None -> ()
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
      match Net.Client.connect ~retries ?timeout_ms ~epoch ep with
      | exception _ -> ()
      | c ->
          (match Net.Client.ping c with () -> incr fenced | exception _ -> ());
          Net.Client.close c)
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

let cluster_move topo_file timeout_ms retries shard dest page lag max_rounds =
  let topo = load_topology topo_file in
  check_shard_id topo topo_file shard;
  if dest = [] then die "mvkv: cluster move needs at least one --dest";
  match
    Cluster.Move.move ?timeout_ms ~retries ~page ~lag ~max_rounds
      ~notify:print_move_progress ~topo_path:topo_file topo ~shard
      ~dest:(parse_endpoints dest) ()
  with
  | Ok o when o.rounds = 0 && o.events_copied = 0 && o.copy_ns = 0 ->
      Printf.printf
        "shard %d already lives at the destination (epoch %d); re-fenced\n"
        shard o.new_epoch
  | Ok o -> print_move_outcome (Printf.sprintf "moved shard %d" shard) o
  | Error e -> die "mvkv: %s" (Cluster.Move.error_to_string e)

let cluster_split topo_file timeout_ms retries shard at dest page lag max_rounds
    =
  let topo = load_topology topo_file in
  check_shard_id topo topo_file shard;
  if dest = [] then die "mvkv: cluster split needs at least one --dest";
  match
    Cluster.Move.split ?timeout_ms ~retries ~page ~lag ~max_rounds
      ~notify:print_move_progress ~topo_path:topo_file topo ~shard ~at
      ~dest:(parse_endpoints dest) ()
  with
  | Ok o ->
      print_move_outcome (Printf.sprintf "split shard %d at %d" shard at) o
  | Error e -> die "mvkv: %s" (Cluster.Move.error_to_string e)

let cluster_merge topo_file timeout_ms retries shard page lag max_rounds =
  let topo = load_topology topo_file in
  check_shard_id topo topo_file shard;
  match
    Cluster.Move.merge ?timeout_ms ~retries ~page ~lag ~max_rounds
      ~notify:print_move_progress ~topo_path:topo_file topo ~shard ()
  with
  | Ok o ->
      print_move_outcome
        (Printf.sprintf "merged shard %d into shard %d" (shard + 1) shard)
        o
  | Error e -> die "mvkv: %s" (Cluster.Move.error_to_string e)

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
   condition that loses writes until someone promotes). *)
let cluster_status topo_file timeout_ms retries slo =
  let topo = load_topology topo_file in
  let timeout_ms = Some (Option.value timeout_ms ~default:2000) in
  (* --slo find=1ms,...: evaluate the objectives against each node's
     latency histograms (fetched as a registry snapshot) and add a
     column showing the worst-attained objective per node. The nodes
     need not know the objectives — attainment is computed client-side. *)
  let objectives =
    match slo with
    | None -> None
    | Some spec -> (
        match Obs.Slo.parse spec with
        | Ok objectives -> Some objectives
        | Error e -> die "mvkv: bad --slo: %s" e)
  in
  let slo_of c =
    match objectives with
    | None -> ""
    | Some objs -> (
        match
          let text = Net.Client.registry_snap c in
          Result.bind (Obs.Json.of_string text) Obs.Snap.of_json
        with
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
    for j = 0 to Cluster.Topology.replica_count topo i - 1 do
      let ep = Cluster.Topology.replica topo i j in
      let role = if j = 0 then "primary" else Printf.sprintf "backup%d" j in
      let status =
        match Net.Client.connect ~retries ?timeout_ms ep with
        | exception e ->
            `Down
              (match e with
              | Unix.Unix_error (err, _, _) -> Unix.error_message err
              | _ -> Printexc.to_string e)
        | c ->
            let r =
              match
                Net.Client.ping c;
                Net.Client.epoch_probe c
              with
              | epoch, version -> `Up (epoch, version, slo_of c)
              | exception e ->
                  `Down
                    (match e with
                    | Net.Client.Remote_error (code, _) ->
                        Net.Wire.error_code_name code
                    | Unix.Unix_error (err, _, _) -> Unix.error_message err
                    | _ -> Printexc.to_string e)
            in
            Net.Client.close c;
            r
      in
      match status with
      | `Up (epoch, version, slo_col) ->
          Printf.printf "%-5d %-8s %-38s %-7d %-7d up%s\n" i role
            (Net.Sockaddr.to_string ep) epoch version slo_col
      | `Down reason ->
          if j = 0 then incr primaries_down;
          Printf.printf "%-5d %-8s %-38s %-7s %-7s down (%s)\n" i role
            (Net.Sockaddr.to_string ep) "-" "-" reason
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

let ( let* ) = Result.bind

let cluster_ping topo timeout_ms retries =
  with_router topo timeout_ms retries (fun r ->
      let* () = Cluster.Router.ping r in
      print_endline "pong";
      Ok ())

let cluster_versions topo timeout_ms retries =
  with_router topo timeout_ms retries (fun r ->
      let* versions = Cluster.Router.versions r in
      Array.iteri (fun shard v -> Printf.printf "shard %d\tversion %d\n" shard v)
        versions;
      Ok ())

let cluster_insert topo timeout_ms retries key value =
  with_router topo timeout_ms retries (fun r ->
      let* () = Cluster.Router.insert r ~key ~value in
      let* version = Cluster.Router.tag r in
      Printf.printf "inserted %d -> %d at cluster version %d\n" key value version;
      Ok ())

let cluster_remove topo timeout_ms retries key =
  with_router topo timeout_ms retries (fun r ->
      let* () = Cluster.Router.remove r ~key in
      let* version = Cluster.Router.tag r in
      Printf.printf "removed %d at cluster version %d\n" key version;
      Ok ())

let cluster_insert_batch topo timeout_ms retries pairs =
  let pairs = parse_pairs pairs in
  with_router topo timeout_ms retries (fun r ->
      let* () = Cluster.Router.insert_batch r pairs in
      let* version = Cluster.Router.tag r in
      Printf.printf "inserted %d pair(s) at cluster version %d\n"
        (List.length pairs) version;
      Ok ())

let cluster_remove_batch topo timeout_ms retries keys =
  let keys = parse_keys keys in
  with_router topo timeout_ms retries (fun r ->
      let* () = Cluster.Router.remove_batch r keys in
      let* version = Cluster.Router.tag r in
      Printf.printf "removed %d key(s) at cluster version %d\n" (List.length keys)
        version;
      Ok ())

let cluster_scan topo timeout_ms retries lo hi version limit =
  if hi <= lo then die "mvkv: scan needs --lo < --hi";
  with_router topo timeout_ms retries (fun r ->
      let* _count =
        Cluster.Router.scan r ?version ~limit ~lo ~hi (fun k v ->
            Printf.printf "%d\t%d\n" k v)
      in
      Ok ())

let cluster_tag topo timeout_ms retries =
  with_router topo timeout_ms retries (fun r ->
      let* version = Cluster.Router.tag r in
      Printf.printf "version %d\n" version;
      Ok ())

let cluster_find topo timeout_ms retries key version =
  with_router topo timeout_ms retries (fun r ->
      let* found = Cluster.Router.find r ?version key in
      match found with
      | Some value ->
          Printf.printf "%d\n" value;
          Ok ()
      | None ->
          prerr_endline "(absent)";
          exit 1)

let cluster_history topo timeout_ms retries key =
  with_router topo timeout_ms retries (fun r ->
      let* events = Cluster.Router.history r key in
      List.iter
        (fun (version, event) ->
          match event with
          | Mvdict.Dict_intf.Put v -> Printf.printf "v%d\tput\t%d\n" version v
          | Mvdict.Dict_intf.Del -> Printf.printf "v%d\tdel\n" version)
        events;
      Ok ())

let cluster_compact topo timeout_ms retries retain =
  with_router topo timeout_ms retries (fun r ->
      match retain with
      | None -> die "mvkv: cluster compact needs --retain"
      | Some keep ->
          if keep < 0 then die "mvkv: --retain must be non-negative";
          let* before, dropped = Cluster.Router.compact r ~keep in
          Printf.printf
            "compacted cluster before version %d: dropped %d entries\n" before
            dropped;
          Ok ())

let cluster_snapshot topo timeout_ms retries version =
  with_router topo timeout_ms retries (fun r ->
      let* pairs = Cluster.Router.snapshot r ?version () in
      Array.iter (fun (k, v) -> Printf.printf "%d\t%d\n" k v) pairs;
      Ok ())

(* ---- fleet-wide inspection: cluster top / metrics / trace ---- *)

let warn_skipped skipped =
  List.iter
    (fun (node, reason) -> Printf.eprintf "mvkv: skipped %s: %s\n%!" node reason)
    skipped

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
      let n =
        match Obs.Json.member "traceEvents" doc with
        | Some (Obs.Json.List evs) -> List.length evs
        | _ -> 0
      in
      let text = Obs.Json.to_string doc in
      (match out with
      | None -> print_endline text
      | Some path ->
          let oc = open_out path in
          output_string oc text;
          output_char oc '\n';
          close_out oc;
          Printf.printf
            "wrote %d event(s) to %s (open in chrome://tracing or ui.perfetto.dev)\n"
            n path);
      Ok ())

(* `mvkv cluster top`: one row per replica plus a cluster-wide
   aggregate, refreshed like `mvkv top`. Rates come from each node's
   sliding windows (no cross-poll deltas needed), percentiles from the
   per-node histograms; the aggregate row merges every snapshot first,
   so its p50/p99 are computed on the summed log-buckets, not averaged
   per-node percentiles. *)
(* Snapshot queries shared by `mvkv top` and `mvkv cluster top`: a
   window's 10 s rate, and an op's latency percentile ("-" when no
   sample was timed). *)
let rate10 snap name =
  match Obs.Snap.window_sums snap name with
  | Some (_, s10, _) -> float_of_int s10 /. 10.
  | None -> 0.

let pct snap op q =
  match Obs.Snap.find_hist snap (Printf.sprintf "net.%s.ns" op) with
  | Some h when h.Obs.Snap.hcount > 0 ->
      Printf.sprintf "%.1fus" (float_of_int (Obs.Snap.hist_percentile h q) /. 1e3)
  | _ -> "-"

let cluster_top topo_file timeout_ms retries interval count =
  if interval <= 0. then die "mvkv: --interval must be positive";
  let topo = load_topology topo_file in
  let reload () = Result.to_option (Cluster.Topology.of_file topo_file) in
  let router = Cluster.Router.create ?timeout_ms ~retries ~reload topo in
  Fun.protect ~finally:(fun () -> Cluster.Router.close router) @@ fun () ->
  let row label snap =
    Printf.printf "%-12s %10d %8.1f %10s %10s %10s %10s %5d %9s\n" label
      (Obs.Snap.counter snap "net.requests")
      (rate10 snap "net.rate.requests")
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
  let rounds = match count with Some n -> n | None -> max_int in
  let i = ref 0 in
  while !i < rounds do
    incr i;
    let snaps = Cluster.Router.fleet_snaps router in
    print_string "\027[H\027[J";
    let tm = Unix.localtime (Unix.gettimeofday ()) in
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
            up := snap :: !up;
            row label snap
        | Error reason -> Printf.printf "%-12s down (%s)\n" label reason)
      snaps;
    (match List.rev !up with
    | [] -> Printf.printf "\n(no node reachable)\n"
    | [ _ ] -> ()
    | snaps ->
        print_newline ();
        row "cluster" (Obs.Snap.merge_all snaps));
    (* Fleet-wide migration line: live seals and copy traffic show a
       reshard in flight; sealed rejects count writers bouncing off a
       Moved answer (each one a router chase, not a failure). *)
    (match List.rev !up with
    | [] -> ()
    | snaps ->
        let m = Obs.Snap.merge_all snaps in
        let installed = Obs.Snap.counter m "move.install.events" in
        let sealed = Obs.Snap.gauge m "move.sealed_ranges" in
        let rejects = Obs.Snap.counter m "move.sealed_rejects" in
        if installed > 0 || sealed > 0 || rejects > 0 then
          Printf.printf
            "\nmove: %d sealed range(s)   installed %d event(s) (%.1f/s 10s)  \
             sealed rejects %d\n"
            sealed installed
            (rate10 m "move.rate.install.events")
            rejects);
    Printf.printf "%!";
    if !i < rounds then
      try Unix.sleepf interval with Unix.Unix_error (Unix.EINTR, _, _) -> ()
  done

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
      | Ok json -> (
          let n =
            match Obs.Json.member "traceEvents" json with
            | Some (Obs.Json.List evs) -> List.length evs
            | _ -> 0
          in
          match out with
          | None -> print_endline text
          | Some path ->
              let oc = open_out path in
              output_string oc text;
              output_char oc '\n';
              close_out oc;
              Printf.printf "wrote %d span(s) to %s (open in chrome://tracing or ui.perfetto.dev)\n"
                n path))

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
   per-operation table — rates from counter deltas between polls,
   percentiles from the live histograms, plus the server-side sliding
   windows and pmem flush/fence deltas. *)
let render_top ~prev ~now snap =
  let counter = Obs.Snap.counter snap and gauge = Obs.Snap.gauge snap in
  (* Home the cursor and clear to the end of the screen: a flicker-free
     refresh for a table of constant height. *)
  print_string "\027[H\027[J";
  let tm = Unix.localtime now in
  Printf.printf "mvkv top — %02d:%02d:%02d   active conns %d   reqs/s %.1f (10s)   in %.0f B/s   out %.0f B/s\n"
    tm.Unix.tm_hour tm.Unix.tm_min tm.Unix.tm_sec
    (gauge "net.active_connections")
    (rate10 snap "net.rate.requests")
    (rate10 snap "net.rate.bytes_in")
    (rate10 snap "net.rate.bytes_out");
  Printf.printf "\n%-13s %12s %10s %12s %12s\n" "op" "total" "ops/s" "p50" "p99";
  let dt = match prev with Some (t0, _) when now > t0 -> now -. t0 | _ -> 0. in
  (* Counters only move forward on a live server, so a negative delta
     means the server restarted between polls (fresh registry). Clamp:
     a rate can be stale for one refresh, never negative. *)
  let delta name =
    match prev with
    | Some (_, s0) when dt > 0. ->
        float_of_int (max 0 (counter name - Obs.Snap.counter s0 name)) /. dt
    | _ -> 0.
  in
  List.iter
    (fun op ->
      let ops = Printf.sprintf "net.%s.ops" op in
      if counter ops > 0 then
        Printf.printf "%-13s %12d %10.1f %12s %12s\n" op (counter ops) (delta ops)
          (pct snap op 0.5) (pct snap op 0.99))
    Net.Wire.request_labels;
  Printf.printf "\npmem: %d lines flushed (%.0f/s)   %d fences (%.0f/s)\n"
    (counter "pmem.flushed_lines")
    (delta "pmem.flushed_lines")
    (counter "pmem.fences")
    (delta "pmem.fences");
  (* Batching effectiveness: how much durability work batch scopes
     coalesced away, and how hard the server is batching/coalescing its
     request stream. *)
  Printf.printf
    "      saved by batching: %d lines (%.0f/s)   %d fences (%.0f/s)\n"
    (counter "pmem.flushes_saved")
    (delta "pmem.flushes_saved")
    (counter "pmem.fences_saved")
    (delta "pmem.fences_saved");
  Printf.printf "net:  batch p50 %s frames   coalesced %d frames (%.0f/s)\n"
    (match Obs.Snap.find_hist snap "net.batch_size" with
    | Some h when h.Obs.Snap.hcount > 0 ->
        string_of_int (Obs.Snap.hist_percentile h 0.5)
    | _ -> "-")
    (counter "net.coalesced_frames")
    (delta "net.coalesced_frames");
  (* Replication health: forwarding/catch-up are primary-side, the
     redial and read-failover counters appear when the polled process
     also runs a router (and stay 0 on a plain shard). *)
  Printf.printf
    "repl: forwarded %d (%.1f/s 10s)   catchups %d   lagging backups %d   \
     redials %d   read failovers %d   bad epochs %d\n"
    (counter "repl.forwarded")
    (rate10 snap "repl.rate.forwarded")
    (counter "repl.catchups")
    (gauge "repl.lagging_backups")
    (counter "cluster.redials")
    (counter "repl.read_failovers")
    (counter "net.bad_epoch");
  Printf.printf "%!"

let top socket host port interval count =
  if interval <= 0. then die "mvkv: --interval must be positive";
  with_client socket host port (fun c ->
      let rounds = match count with Some n -> n | None -> max_int in
      let prev = ref None in
      let i = ref 0 in
      while !i < rounds do
        incr i;
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
        prev := Some (now, snap);
        if !i < rounds then
          try Unix.sleepf interval
          with Unix.Unix_error (Unix.EINTR, _, _) -> ()
      done)

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
      cmd_of "insert" "Insert or update a key."
        Term.(const insert $ pool_arg $ threads_arg $ key_arg $ value_arg $ stats_arg);
      cmd_of "remove" "Remove a key."
        Term.(const remove $ pool_arg $ threads_arg $ key_arg $ stats_arg);
      cmd_of "tag" "Commit a snapshot and print its version."
        Term.(const tag $ pool_arg $ threads_arg $ stats_arg);
      cmd_of "find" "Look a key up (optionally in a past snapshot)."
        Term.(const find $ pool_arg $ threads_arg $ key_arg $ version_arg $ stats_arg);
      cmd_of "history" "Print the evolution of a key."
        Term.(const history $ pool_arg $ threads_arg $ key_arg $ stats_arg);
      cmd_of "snapshot" "Print all live pairs of a snapshot in key order."
        Term.(const snapshot $ pool_arg $ threads_arg $ version_arg $ stats_arg);
      cmd_of "stats" "Pool statistics."
        Term.(const stats $ pool_arg $ threads_arg);
      cmd_of "compact"
        "Garbage-collect history (offline): --before V or --retain N."
        Term.(
          const compact $ pool_arg $ threads_arg $ before_arg $ retain_arg
          $ stats_arg);
      cmd_of "serve"
        "Serve the pool's dict API over a socket until SIGINT/SIGTERM."
        Term.(
          const serve $ pool_arg $ threads_arg $ socket_arg $ host_arg $ port_arg
          $ workers_arg $ batch_arg $ max_conns_arg $ timeout_arg $ slowlog_ms_arg
          $ trace_cap_arg $ serve_retain_arg $ gc_interval_arg $ slo_arg);
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
        [
          cmd_of "ping" "Round-trip liveness check."
            Term.(
              const client_ping $ socket_arg $ host_arg $ port_arg $ timeout_ms_arg
              $ retries_arg);
          cmd_of "insert" "Insert or update a key remotely."
            Term.(
              const client_insert $ socket_arg $ host_arg $ port_arg $ timeout_ms_arg
              $ retries_arg $ key_arg $ value_arg);
          cmd_of "remove" "Remove a key remotely."
            Term.(
              const client_remove $ socket_arg $ host_arg $ port_arg $ timeout_ms_arg
              $ retries_arg $ key_arg);
          cmd_of "insert-batch"
            "Install many pairs in one frame (one version bump server-side)."
            Term.(
              const client_insert_batch $ socket_arg $ host_arg $ port_arg
              $ timeout_ms_arg $ retries_arg $ pairs_arg);
          cmd_of "remove-batch"
            "Remove many keys in one frame (one version bump server-side)."
            Term.(
              const client_remove_batch $ socket_arg $ host_arg $ port_arg
              $ timeout_ms_arg $ retries_arg $ keys_arg);
          cmd_of "scan"
            "Stream the live pairs of [--lo, --hi) in key order, paged."
            Term.(
              const client_scan $ socket_arg $ host_arg $ port_arg $ timeout_ms_arg
              $ retries_arg $ lo_arg $ hi_arg $ version_arg $ limit_arg);
          cmd_of "tag" "Commit a snapshot remotely and print its version."
            Term.(
              const client_tag $ socket_arg $ host_arg $ port_arg $ timeout_ms_arg
              $ retries_arg);
          cmd_of "find" "Look a key up remotely (optionally in a past snapshot)."
            Term.(
              const client_find $ socket_arg $ host_arg $ port_arg $ timeout_ms_arg
              $ retries_arg $ key_arg $ version_arg);
          cmd_of "history" "Print the evolution of a key remotely."
            Term.(
              const client_history $ socket_arg $ host_arg $ port_arg $ timeout_ms_arg
              $ retries_arg $ key_arg);
          cmd_of "snapshot" "Print all live pairs of a snapshot remotely."
            Term.(
              const client_snapshot $ socket_arg $ host_arg $ port_arg
              $ timeout_ms_arg $ retries_arg $ version_arg);
          cmd_of "compact"
            "Garbage-collect the server's history: --before V or --retain N."
            Term.(
              const client_compact $ socket_arg $ host_arg $ port_arg
              $ timeout_ms_arg $ retries_arg $ before_arg $ retain_arg);
          cmd_of "stats" "Fetch the server's observability registry as JSON."
            Term.(
              const client_stats $ socket_arg $ host_arg $ port_arg $ timeout_ms_arg
              $ retries_arg);
        ];
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
              $ slot_arg $ pool_arg $ threads_arg $ workers_arg $ batch_arg
              $ max_conns_arg $ timeout_arg $ slowlog_ms_arg $ trace_cap_arg
              $ serve_retain_arg $ gc_interval_arg $ slo_arg);
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
              $ move_shard_arg $ move_dest_arg $ move_page_arg $ move_lag_arg
              $ move_rounds_arg);
          cmd_of "split"
            "Split a shard's range at --at: the upper half moves to --dest \
             as a new shard (later shard ids shift up)."
            Term.(
              const cluster_split $ topology_arg $ timeout_ms_arg $ retries_arg
              $ move_shard_arg $ split_at_arg $ move_dest_arg $ move_page_arg
              $ move_lag_arg $ move_rounds_arg);
          cmd_of "merge"
            "Fold shard I+1's range into shard I (its left neighbour), \
             then drop it from the topology."
            Term.(
              const cluster_merge $ topology_arg $ timeout_ms_arg $ retries_arg
              $ move_shard_arg $ move_page_arg $ move_lag_arg $ move_rounds_arg);
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
            [
              cmd_of "ping" "Round-trip every shard."
                Term.(const cluster_ping $ topology_arg $ timeout_ms_arg $ retries_arg);
              cmd_of "status"
                "Per-replica health table (role, epoch, clock, up/down, \
                 optional --slo attainment); exits 1 if any primary is down."
                Term.(
                  const cluster_status $ topology_arg $ timeout_ms_arg
                  $ retries_arg $ slo_arg);
              cmd_of "versions" "Print every shard's current version."
                Term.(
                  const cluster_versions $ topology_arg $ timeout_ms_arg
                  $ retries_arg);
              cmd_of "insert" "Insert on the owning shard and cut a cluster tag."
                Term.(
                  const cluster_insert $ topology_arg $ timeout_ms_arg $ retries_arg
                  $ key_arg $ value_arg);
              cmd_of "remove" "Remove on the owning shard and cut a cluster tag."
                Term.(
                  const cluster_remove $ topology_arg $ timeout_ms_arg $ retries_arg
                  $ key_arg);
              cmd_of "insert-batch"
                "Bucket pairs per owning shard, one pipelined batch per \
                 shard, then cut a cluster tag."
                Term.(
                  const cluster_insert_batch $ topology_arg $ timeout_ms_arg
                  $ retries_arg $ pairs_arg);
              cmd_of "remove-batch"
                "Bucket keys per owning shard, one pipelined batch per \
                 shard, then cut a cluster tag."
                Term.(
                  const cluster_remove_batch $ topology_arg $ timeout_ms_arg
                  $ retries_arg $ keys_arg);
              cmd_of "scan"
                "Stream the live pairs of [--lo, --hi) across shards in key \
                 order, paged."
                Term.(
                  const cluster_scan $ topology_arg $ timeout_ms_arg
                  $ retries_arg $ lo_arg $ hi_arg $ version_arg $ limit_arg);
              cmd_of "tag" "Cut a cluster-wide snapshot version on every shard."
                Term.(const cluster_tag $ topology_arg $ timeout_ms_arg $ retries_arg);
              cmd_of "find" "Route a lookup to the owning shard."
                Term.(
                  const cluster_find $ topology_arg $ timeout_ms_arg $ retries_arg
                  $ key_arg $ version_arg);
              cmd_of "history" "Gather a key's history across shards."
                Term.(
                  const cluster_history $ topology_arg $ timeout_ms_arg $ retries_arg
                  $ key_arg);
              cmd_of "snapshot"
                "Gather every shard's snapshot, in key order."
                Term.(
                  const cluster_snapshot $ topology_arg $ timeout_ms_arg
                  $ retries_arg $ version_arg);
              cmd_of "compact"
                "Cluster-wide GC: probe shard clocks, compact below the \
                 safe horizon (--retain N)."
                Term.(
                  const cluster_compact $ topology_arg $ timeout_ms_arg
                  $ retries_arg $ retain_arg);
            ];
        ];
    ]
  in
  let info =
    Cmd.info "mvkv" ~version:"1.0.0"
      ~doc:"Persistent multi-version ordered key-value store"
  in
  exit (Cmd.eval (Cmd.group info cmds))
