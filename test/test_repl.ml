(* Tests for lib/repl: the primary chain forwarding over real Unix
   sockets (convergence, anti-entropy catch-up after a backup restart),
   the kill-primary failover path end to end (no acknowledged write
   lost, qcheck parity with a single PSkipList across find / history /
   snapshot at every version after promotion), the stale-epoch
   contract (typed Bad_epoch surfaced as Router.Stale_epoch, recovery
   via topology reload), exact replicas (forwards in apply order,
   catch-up by version chains above and below the compaction horizon,
   with a GC pass mid-copy or a backup restarted over its own pool, its
   wire bytes, drains beside writers), and fault schedules on the
   real chain (partition then heal, slow replica, crash + promote +
   rejoin), with faults injected from the test side only: a relay
   thread that delays or severs the chain's bytes, and server stops
   and restarts. The
   frame-limit cases move a store too large for one frame through the
   router's snapshot, the client and the chain's catch-up. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

module Store = Mvdict.Pskiplist.Make (Mvdict.Codec.Int_key) (Mvdict.Codec.Int_value)

let fresh_store () = Store.create (Pmem.Pheap.create_ram ~capacity:(1 lsl 22) ())

let ok what = function
  | Ok v -> v
  | Error e -> Alcotest.failf "%s: %s" what (Cluster.Router.error_to_string e)

let sock_path tag = Printf.sprintf "test_repl_%s_%d.sock" tag (Unix.getpid ())

(* ---- one replicated range: primary + chain + backup, real sockets ---- *)

type range = {
  primary_store : Store.t;
  backup_store : Store.t;
  p_path : string;
  b_path : string;
  primary : Net.Server.t;
  backup : Net.Server.t;
  chain : Repl.Chain.t;
  epoch_cell : int Atomic.t;
  mutable primary_up : bool;
}

(* A server over [store] at [path] with no chain: a backup, or a
   promoted backup as `mvkv cluster serve --replica-of` runs it. *)
let serve ?(epoch = 0) store path =
  Net.Server.start ~store ~workers:2 ~epoch_cell:(Atomic.make epoch)
    ~listen:(Net.Sockaddr.Unix_sock path) ()

(* A primary over [store] at [path] whose chain forwards to [backups],
   sharing the server's epoch cell as `mvkv cluster serve --shard`
   does. *)
let serve_primary ?(epoch = 0) store path backups =
  let epoch_cell = Atomic.make epoch in
  let chain =
    Repl.Chain.create ~epoch_cell ~store
      (Array.map (fun p -> Net.Sockaddr.Unix_sock p) backups)
  in
  let server =
    Net.Server.start ~store ~workers:2 ~epoch_cell
      ~on_mutation:(Repl.Chain.on_mutation chain)
      ~listen:(Net.Sockaddr.Unix_sock path) ()
  in
  (server, chain, epoch_cell)

let start_range tag =
  let p_path = sock_path (tag ^ "_p") and b_path = sock_path (tag ^ "_b") in
  let primary_store = fresh_store () and backup_store = fresh_store () in
  let backup = serve backup_store b_path in
  let primary, chain, epoch_cell = serve_primary primary_store p_path [| b_path |] in
  {
    primary_store;
    backup_store;
    p_path;
    b_path;
    primary;
    backup;
    chain;
    epoch_cell;
    primary_up = true;
  }

let stop_range r =
  if r.primary_up then (try Net.Server.stop r.primary with _ -> ());
  Repl.Chain.close r.chain;
  (try Net.Server.stop r.backup with _ -> ());
  List.iter
    (fun p -> try Sys.remove p with Sys_error _ -> ())
    [ r.p_path; r.b_path ]

let with_range tag f =
  let r = start_range tag in
  Fun.protect ~finally:(fun () -> stop_range r) (fun () -> f r)

let topo_of r ~key_bits =
  Cluster.Topology.create_replicated ~key_bits
    [| [| Net.Sockaddr.Unix_sock r.p_path; Net.Sockaddr.Unix_sock r.b_path |] |]

(* Kill the primary and promote the backup, the way `mvkv promote`
   does: rotate the set, bump the epoch, fence the new primary with a
   stamped ping. Returns the post-promotion topology. *)
let kill_and_promote r topo =
  Net.Server.stop r.primary;
  r.primary_up <- false;
  Repl.Chain.close r.chain;
  (try Sys.remove r.p_path with Sys_error _ -> ());
  let topo = Cluster.Topology.promote topo ~shard:0 ~replica:1 in
  let c =
    Net.Client.connect
      ~epoch:(Cluster.Topology.epoch topo)
      (Cluster.Topology.primary topo 0)
  in
  Net.Client.ping c;
  Net.Client.close c;
  topo

(* ---- chain: replication and catch-up ---- *)

let chain_forwards_and_converges () =
  with_range "fwd" (fun r ->
      let client = Net.Client.connect (Net.Sockaddr.Unix_sock r.p_path) in
      for k = 0 to 19 do
        Net.Client.insert client ~key:k ~value:(k * 3)
      done;
      Net.Client.remove client ~key:7;
      let v = Net.Client.tag client in
      check_int "tag acked" 1 v;
      Net.Client.close client;
      (* forwarding is synchronous: by the time the acks are in, the
         backup holds the same state at the same clock *)
      check_bool "chain in sync" true (Repl.Chain.in_sync r.chain);
      check_int "backup clock aligned" 1 (Store.current_version r.backup_store);
      check_bool "backup state = primary state" true
        (Store.extract_snapshot r.backup_store ()
        = Store.extract_snapshot r.primary_store ());
      (* fresh pair: the first-contact catch-up preserved history too *)
      check_bool "backup history = primary history" true
        (Store.extract_history r.backup_store 7
        = Store.extract_history r.primary_store 7))

let chain_catchup_after_backup_restart () =
  let tag = "catchup" in
  let r = start_range tag in
  Fun.protect ~finally:(fun () -> stop_range r) @@ fun () ->
  let client = Net.Client.connect (Net.Sockaddr.Unix_sock r.p_path) in
  Fun.protect ~finally:(fun () -> Net.Client.close client) @@ fun () ->
  for k = 0 to 9 do
    Net.Client.insert client ~key:k ~value:k
  done;
  ignore (Net.Client.tag client);
  check_bool "in sync before the bounce" true (Repl.Chain.in_sync r.chain);
  (* the backup dies and loses everything *)
  Net.Server.stop r.backup;
  (try Sys.remove r.b_path with Sys_error _ -> ());
  (* writes during the outage are acked anyway (availability over
     blocking) and the peer is marked out of sync *)
  for k = 10 to 19 do
    Net.Client.insert client ~key:k ~value:k
  done;
  ignore (Net.Client.tag client);
  check_bool "peer marked lagging" false (Repl.Chain.in_sync r.chain);
  (* it comes back empty on the same address; the next tick repairs it
     by shipping every version chain above its clock 0 *)
  let backup_store' = fresh_store () in
  let backup' = serve backup_store' r.b_path in
  Fun.protect ~finally:(fun () -> try Net.Server.stop backup' with _ -> ())
  @@ fun () ->
  Repl.Chain.tick r.chain;
  check_bool "caught up after tick" true (Repl.Chain.in_sync r.chain);
  check_bool "restarted backup converged" true
    (Store.extract_snapshot backup_store' ()
    = Store.extract_snapshot r.primary_store ());
  check_int "clock aligned after catch-up"
    (Store.current_version r.primary_store)
    (Store.current_version backup_store');
  (* and it is a live chain member again: the next write reaches it *)
  Net.Client.insert client ~key:99 ~value:990;
  check_bool "forwarding resumed" true (Store.find backup_store' 99 = Some 990)

(* ---- stale epoch: typed error, recovery via reload ---- *)

let stale_epoch_is_typed_and_recoverable () =
  with_range "stale" (fun r ->
      let topo = topo_of r ~key_bits:6 in
      let router = Cluster.Router.create ~retries:1 topo in
      Fun.protect ~finally:(fun () -> Cluster.Router.close router)
      @@ fun () ->
      ok "insert at epoch 0" (Cluster.Router.insert router ~key:1 ~value:10);
      (* a promotion elsewhere moves the primary to epoch 3 *)
      let fencer =
        Net.Client.connect ~epoch:3 (Net.Sockaddr.Unix_sock r.p_path)
      in
      Net.Client.ping fencer;
      Net.Client.close fencer;
      check_int "server adopted the newer epoch" 3 (Atomic.get r.epoch_cell);
      (* the old router's stamped requests are now fenced out: a typed
         Stale_epoch, never an exception, and no reload closure means
         no recovery *)
      (match Cluster.Router.insert router ~key:2 ~value:20 with
      | Error (Cluster.Router.Stale_epoch { shard = 0; epoch = 0; _ }) -> ()
      | Ok () -> Alcotest.fail "fenced-out write was accepted"
      | Error e ->
          Alcotest.failf "expected Stale_epoch, got %s"
            (Cluster.Router.error_to_string e));
      (* reads walk the replica set and hit the same fence *)
      (match Cluster.Router.find router 1 with
      | Error (Cluster.Router.Stale_epoch _) -> ()
      | _ -> Alcotest.fail "expected Stale_epoch from read");
      (* a router with a reload closure recovers: one reload, one retry *)
      let reloaded =
        Cluster.Router.create ~retries:1
          ~reload:(fun () ->
            Some (Cluster.Topology.with_epoch topo 3))
          topo
      in
      Fun.protect ~finally:(fun () -> Cluster.Router.close reloaded)
      @@ fun () ->
      ok "write after reload" (Cluster.Router.insert reloaded ~key:2 ~value:20);
      check_int "router adopted the reloaded epoch" 3
        (Cluster.Topology.epoch (Cluster.Router.topology reloaded));
      check_bool "read after reload" true
        (ok "find" (Cluster.Router.find reloaded 1) = Some 10))

(* ---- kill-primary failover: qcheck parity with a single store ---- *)

type op = Insert of int * int | Remove of int | Tag

let pp_op = function
  | Insert (k, v) -> Printf.sprintf "insert %d %d" k v
  | Remove k -> Printf.sprintf "remove %d" k
  | Tag -> "tag"

let gen_ops =
  QCheck.Gen.(
    list_size (int_range 5 25)
      (frequency
         [
           (6, map2 (fun k v -> Insert (k, v)) (int_bound 63) small_signed_int);
           (2, map (fun k -> Remove k) (int_bound 63));
           (2, return Tag);
         ]))

let arb_ops =
  QCheck.make gen_ops ~print:(fun ops -> String.concat "; " (List.map pp_op ops))

let apply_op reference router op =
  match op with
  | Insert (key, value) ->
      Store.insert reference key value;
      ok "insert" (Cluster.Router.insert router ~key ~value)
  | Remove key ->
      Store.remove reference key;
      ok "remove" (Cluster.Router.remove router ~key)
  | Tag ->
      let local = Store.tag reference in
      let cluster = ok "tag" (Cluster.Router.tag router) in
      if local <> cluster then
        QCheck.Test.fail_reportf "tag parity: local %d cluster %d" local cluster

let check_parity reference router ops =
  let final = Store.current_version reference in
  let keys = Array.init 64 (fun i -> i) in
  let check_cut ?version () =
    let got = ok "find_bulk" (Cluster.Router.find_bulk router ?version keys) in
    Array.iteri
      (fun key g ->
        if g <> Store.find reference ?version key then
          QCheck.Test.fail_reportf "find parity: key %d at %s" key
            (match version with None -> "now" | Some v -> string_of_int v))
      got
  in
  check_cut ();
  for v = 1 to final do
    check_cut ~version:v ()
  done;
  let touched =
    List.filter_map (function Insert (k, _) | Remove k -> Some k | Tag -> None) ops
    |> List.sort_uniq compare
  in
  List.iter
    (fun key ->
      if
        ok "history" (Cluster.Router.history router key)
        <> Store.extract_history reference key
      then QCheck.Test.fail_reportf "history parity: key %d" key)
    touched;
  if
    ok "snapshot" (Cluster.Router.snapshot router ())
    <> Store.extract_snapshot reference ()
  then QCheck.Test.fail_report "snapshot parity";
  for v = 1 to final do
    if
      ok "snapshot@v"
        (Cluster.Router.snapshot router ~version:v ())
      <> Store.extract_snapshot reference ~version:v ()
    then QCheck.Test.fail_reportf "snapshot parity at version %d" v
  done

let failover_parity_property ops =
  let reference = fresh_store () in
  let r = start_range "parity" in
  Fun.protect ~finally:(fun () -> stop_range r) @@ fun () ->
  let topo = ref (topo_of r ~key_bits:6) in
  let router =
    Cluster.Router.create ~retries:1 ~reload:(fun () -> Some !topo) !topo
  in
  Fun.protect ~finally:(fun () -> Cluster.Router.close router) @@ fun () ->
  (* phase 1: the acknowledged prefix, against the live primary *)
  List.iter (apply_op reference router) ops;
  (* phase 2: primary dies, the backup is promoted and fenced *)
  topo := kill_and_promote r !topo;
  (* phase 3: every acknowledged write must still be there, at every
     version, through the same router (which recovers via reload) *)
  check_parity reference router ops;
  (* phase 4: the promoted primary keeps serving writes *)
  let more = [ Insert (0, 1000); Insert (63, 2000); Tag; Remove 0 ] in
  List.iter (apply_op reference router) more;
  check_parity reference router (ops @ more);
  true

let failover_parity =
  QCheck.Test.make ~count:5
    ~name:"kill-primary failover keeps every acknowledged write" arb_ops
    failover_parity_property

(* ---- fault schedules on the real chain ---- *)

(* Run [f defer]; every cleanup it registers with [defer] runs, last
   registered first, however [f] exits. *)
let with_cleanup f =
  let stack = ref [] in
  Fun.protect
    ~finally:(fun () -> List.iter (fun g -> try g () with _ -> ()) !stack)
    (fun () -> f (fun g -> stack := g :: !stack))

(* A byte relay between the chain and one backup, on test threads: the
   chain dials [path] and each accepted connection is piped to
   [upstream], waiting [delay] seconds before passing on each chunk it
   reads (a slow link). While [cut] is set, the relay has severed its
   connections and hangs up on new ones (a partition). [tap] runs
   before each chunk toward the backup is passed on: a test's way to
   act between two frames of one catch-up. *)
type relay = {
  path : string;
  upstream : string;
  delay : float;
  cut : bool Atomic.t;
  tap : (unit -> unit) Atomic.t;
  closing : bool Atomic.t;
  m : Mutex.t;
  mutable live : Unix.file_descr list;
  mutable threads : Thread.t list;
}

let locked m f =
  Mutex.lock m;
  Fun.protect ~finally:(fun () -> Mutex.unlock m) f

let sever fds =
  List.iter
    (fun fd -> try Unix.shutdown fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ())
    fds

let pump relay ~on_chunk src dst =
  let buf = Bytes.create 65536 in
  let rec go () =
    match Unix.read src buf 0 (Bytes.length buf) with
    | 0 -> ()
    | n ->
        on_chunk ();
        Thread.delay relay.delay;
        ignore (Unix.write dst buf 0 n);
        go ()
  in
  (try go () with Unix.Unix_error _ -> ());
  sever [ src; dst ]

let relay_conn relay down =
  match Net.Sockaddr.connect (Net.Sockaddr.Unix_sock relay.upstream) with
  | exception Unix.Unix_error _ -> Unix.close down
  | up ->
      locked relay.m (fun () -> relay.live <- down :: up :: relay.live);
      let back = Thread.create (fun () -> pump relay ~on_chunk:ignore up down) () in
      pump relay ~on_chunk:(fun () -> Atomic.get relay.tap ()) down up;
      Thread.join back;
      locked relay.m (fun () ->
          relay.live <- List.filter (fun fd -> fd <> down && fd <> up) relay.live);
      Unix.close down;
      Unix.close up

let relay_accept relay listen_fd =
  while not (Atomic.get relay.closing) do
    match Unix.select [ listen_fd ] [] [] 0.02 with
    | [], _, _ -> ()
    | _ ->
        let fd, _ = Unix.accept listen_fd in
        if Atomic.get relay.cut then Unix.close fd
        else
          let th = Thread.create (relay_conn relay) fd in
          locked relay.m (fun () -> relay.threads <- th :: relay.threads)
  done;
  Unix.close listen_fd

let start_relay ?(delay = 0.) ~path ~upstream () =
  let relay =
    {
      path;
      upstream;
      delay;
      cut = Atomic.make false;
      tap = Atomic.make ignore;
      closing = Atomic.make false;
      m = Mutex.create ();
      live = [];
      threads = [];
    }
  in
  let listen_fd = Net.Sockaddr.listen (Net.Sockaddr.Unix_sock path) in
  let acceptor = Thread.create (relay_accept relay) listen_fd in
  locked relay.m (fun () -> relay.threads <- [ acceptor ]);
  relay

let partition relay =
  Atomic.set relay.cut true;
  sever (locked relay.m (fun () -> relay.live))

let heal relay = Atomic.set relay.cut false

let stop_relay relay =
  Atomic.set relay.closing true;
  sever (locked relay.m (fun () -> relay.live));
  List.iter Thread.join (locked relay.m (fun () -> relay.threads));
  try Sys.remove relay.path with Sys_error _ -> ()

(* One client op, applied to the reference store and through [client]
   to the served primary: it is acknowledged when this returns. *)
let apply_via client reference = function
  | Insert (key, value) ->
      Store.insert reference key value;
      Net.Client.insert client ~key ~value
  | Remove key ->
      Store.remove reference key;
      Net.Client.remove client ~key
  | Tag -> check_int "tag parity" (Store.tag reference) (Net.Client.tag client)

(* Keys whose latest value [store] serves differently from the
   reference fed the same acknowledged ops: 0 means no acknowledged
   write (insert or remove) was lost. *)
let lost_acked_writes ~reference store =
  let keys s = List.map fst (Array.to_list (Store.extract_snapshot s ())) in
  List.sort_uniq compare (keys reference @ keys store)
  |> List.filter (fun k -> Store.find store k <> Store.find reference k)
  |> List.length

(* What a replica serves now: its current state and its clock. *)
let state store = (Store.extract_snapshot store (), Store.current_version store)

let partition_then_heal () =
  with_cleanup @@ fun defer ->
  let path role = sock_path ("part_" ^ role) in
  let reference = fresh_store () in
  let p_store = fresh_store () and b1_store = fresh_store ()
  and b2_store = fresh_store () in
  let b1 = serve b1_store (path "b1") and b2 = serve b2_store (path "b2") in
  defer (fun () -> Net.Server.stop b1);
  defer (fun () -> Net.Server.stop b2);
  (* backup 2 sits behind the relay: cutting it partitions backup 2
     from the primary while both processes keep running *)
  let relay = start_relay ~path:(path "relay") ~upstream:(path "b2") () in
  defer (fun () -> stop_relay relay);
  let primary, chain, _ =
    serve_primary p_store (path "p") [| path "b1"; path "relay" |]
  in
  defer (fun () -> Net.Server.stop primary);
  defer (fun () -> Repl.Chain.close chain);
  let client = Net.Client.connect (Net.Sockaddr.Unix_sock (path "p")) in
  defer (fun () -> Net.Client.close client);
  for k = 0 to 9 do
    apply_via client reference (Insert (k, k))
  done;
  apply_via client reference Tag;
  check_bool "all backups converged" true
    (Repl.Chain.in_sync chain
    && state b1_store = state p_store
    && state b2_store = state p_store);
  (* partition backup 2: forwards to it fail, acks keep flowing *)
  partition relay;
  let cut_off = state b2_store in
  for k = 10 to 19 do
    apply_via client reference (Insert (k, k))
  done;
  (* a key the cut-off backup holds: the heal must ship its removal
     marker *)
  apply_via client reference (Remove 3);
  apply_via client reference Tag;
  let peers = Repl.Chain.peers chain in
  check_bool "healthy backup kept up" true
    (peers.(0).in_sync && state b1_store = state p_store);
  check_bool "partitioned backup lagging" false peers.(1).in_sync;
  check_bool "partitioned backup kept its pre-partition state" true
    (state b2_store = cut_off);
  check_int "no acked write lost" 0 (lost_acked_writes ~reference p_store);
  (* heal + anti-entropy: the next tick ships the chains above the
     backup's clock *)
  heal relay;
  Repl.Chain.tick chain;
  check_bool "repaired after sync" true (Repl.Chain.in_sync chain);
  check_bool "converged after heal" true (state b2_store = state p_store);
  check_bool "repaired replica serves reads" true (Store.find b2_store 15 = Some 15)

let slow_replica_converges () =
  (* the same ops, forwarded directly and through a relay that delays
     every chunk: the slow link costs time on every forward, but both
     runs end in the reference's state, at every version *)
  let ops =
    List.init 20 (fun k -> Insert (k, k * 2))
    @ [ Tag; Remove 3; Insert (4, 40); Tag; Remove 19; Insert (20, 200) ]
  in
  let delay = 0.005 in
  let run_once ~slow =
    with_cleanup @@ fun defer ->
    let tag = if slow then "slow" else "direct" in
    let path role = sock_path (tag ^ "_" ^ role) in
    let reference = fresh_store () in
    let p_store = fresh_store () and b_store = fresh_store () in
    let backup = serve b_store (path "b") in
    defer (fun () -> Net.Server.stop backup);
    let dial =
      if slow then begin
        let relay = start_relay ~delay ~path:(path "relay") ~upstream:(path "b") () in
        defer (fun () -> stop_relay relay);
        path "relay"
      end
      else path "b"
    in
    let primary, chain, _ = serve_primary p_store (path "p") [| dial |] in
    defer (fun () -> Net.Server.stop primary);
    defer (fun () -> Repl.Chain.close chain);
    let client = Net.Client.connect (Net.Sockaddr.Unix_sock (path "p")) in
    defer (fun () -> Net.Client.close client);
    (* forwarding is synchronous, so each ack waits for its forward *)
    let fastest =
      List.fold_left
        (fun fastest op ->
          let t0 = Unix.gettimeofday () in
          apply_via client reference op;
          Float.min fastest (Unix.gettimeofday () -. t0))
        infinity ops
    in
    check_bool "converged" true
      (Repl.Chain.in_sync chain && state b_store = state p_store);
    (fastest, b_store, reference)
  in
  let _, direct, reference = run_once ~slow:false in
  let fastest_slow, relayed, _ = run_once ~slow:true in
  check_bool "every relayed forward takes at least the delay" true
    (fastest_slow >= delay);
  let final = Store.current_version reference in
  let same_at version =
    let want = Store.extract_snapshot reference ?version () in
    Store.extract_snapshot direct ?version () = want
    && Store.extract_snapshot relayed ?version () = want
  in
  check_bool "both runs hold the reference's snapshot at every version" true
    (same_at None && List.for_all (fun v -> same_at (Some v)) (List.init final succ));
  let touched =
    List.filter_map (function Insert (k, _) | Remove k -> Some k | Tag -> None) ops
  in
  check_bool "both runs hold the reference's history of every key" true
    (List.for_all
       (fun key ->
         let want = Store.extract_history reference key in
         Store.extract_history direct key = want
         && Store.extract_history relayed key = want)
       touched)

let crash_promote_rejoin () =
  with_cleanup @@ fun defer ->
  let path role = sock_path ("crash_" ^ role) in
  let reference = fresh_store () in
  let b_store = fresh_store () in
  let backup = ref (serve b_store (path "b")) in
  defer (fun () -> Net.Server.stop !backup);
  let primary, chain, _ = serve_primary (fresh_store ()) (path "p") [| path "b" |] in
  let crash = lazy (Net.Server.stop primary; Repl.Chain.close chain) in
  defer (fun () -> Lazy.force crash);
  let client = Net.Client.connect (Net.Sockaddr.Unix_sock (path "p")) in
  for k = 0 to 9 do
    apply_via client reference (Insert (k, k))
  done;
  apply_via client reference Tag;
  Net.Client.close client;
  check_bool "replicated before the crash" true
    (Repl.Chain.in_sync chain && lost_acked_writes ~reference b_store = 0);
  (* the primary's process dies, and its store with it *)
  Lazy.force crash;
  (* promote the backup the way `mvkv cluster promote` does: rotate the
     set, bump the epoch, fence the new primary *)
  let topo =
    Cluster.Topology.promote ~shard:0 ~replica:1
      (Cluster.Topology.create_replicated ~key_bits:6
         [| [| Net.Sockaddr.Unix_sock (path "p"); Net.Sockaddr.Unix_sock (path "b") |] |])
  in
  let epoch = Cluster.Topology.epoch topo in
  check_int "promotion bumps the epoch" 1 epoch;
  check_bool "backup is the new primary" true
    (Cluster.Topology.primary topo 0 = Net.Sockaddr.Unix_sock (path "b"));
  let client = Net.Client.connect ~epoch (Cluster.Topology.primary topo 0) in
  Net.Client.ping client;
  check_int "no acked write lost by the crash" 0 (lost_acked_writes ~reference b_store);
  (* the promoted node serves reads and writes; it runs no chain *)
  check_bool "acked write readable after promotion" true
    (Net.Client.find client 5 = Some 5);
  for k = 10 to 14 do
    apply_via client reference (Insert (k, k))
  done;
  Net.Client.close client;
  check_int "still nothing lost" 0 (lost_acked_writes ~reference b_store);
  (* rejoin: the old primary restarts empty in the slot it slid back
     to, and the promoted node restarts as a primary with a new chain
     over its store *)
  let rejoined = fresh_store () in
  let old_primary =
    match Cluster.Topology.replica topo 0 1 with
    | Net.Sockaddr.Unix_sock p -> p
    | _ -> Alcotest.fail "backup slot is not a unix socket"
  in
  let restarted = serve ~epoch rejoined old_primary in
  defer (fun () -> Net.Server.stop restarted);
  Net.Server.stop !backup;
  let promoted, chain', _ = serve_primary ~epoch b_store (path "b") [| old_primary |] in
  backup := promoted;
  defer (fun () -> Repl.Chain.close chain');
  check_bool "restarted node out of sync" false (Repl.Chain.in_sync chain');
  Repl.Chain.tick chain';
  check_bool "rejoined after sync" true (Repl.Chain.in_sync chain');
  check_bool "cluster converged again" true (state rejoined = state b_store);
  check_bool "rejoined node serves the full state" true
    (Store.find rejoined 12 = Some 12)

(* ---- exact replicas: apply order and catch-up by chains ---- *)

(* Run each of [fs] on its own thread; after all have returned, raise
   the first failure. *)
let in_threads fs =
  let failure = Atomic.make None in
  let run f () = try f () with e -> ignore (Atomic.compare_and_set failure None (Some e)) in
  List.iter Thread.join (List.map (fun f -> Thread.create (run f) ()) fs);
  Option.iter raise (Atomic.get failure)

(* [f] over a fresh client connection to the server at [path]. *)
let client_of path f () =
  let c = Net.Client.connect (Net.Sockaddr.Unix_sock path) in
  Fun.protect ~finally:(fun () -> Net.Client.close c) (fun () -> f c)

(* Positions at which two histories differ, the longer one's excess
   included. *)
let differing a b =
  let rec go n = function
    | x :: a, y :: b -> go (if x = y then n else n + 1) (a, b)
    | rest, [] | [], rest -> n + List.length rest
  in
  go 0 (a, b)

(* Two clients of a 2-worker primary, so each has a worker of its own
   and their applies interleave: every event of key 1 must reach the
   backup at the version and in the place the primary gave it. *)
let forward_order ~tagger () =
  let n = 5_000 in
  with_range (if tagger then "order_tag" else "order_ins") @@ fun r ->
  let writer value = client_of r.p_path (fun c ->
      for i = 1 to n do
        Net.Client.insert c ~key:1 ~value:(value i)
      done)
  in
  in_threads
    [
      writer (fun i -> 2 * i);
      (if tagger then client_of r.p_path (fun c -> for _ = 1 to n do ignore (Net.Client.tag c) done)
       else writer (fun i -> (2 * i) + 1));
    ];
  check_bool "chain in sync" true (Repl.Chain.in_sync r.chain);
  let primary = Store.extract_history r.primary_store 1 in
  check_int "events of key 1" (if tagger then n else 2 * n) (List.length primary);
  check_int "events whose version or place differ on the backup" 0
    (differing primary (Store.extract_history r.backup_store 1))

(* DESIGN.md §6's schedule: keys 0-9 at version 1, key 9 removed at 2,
   then, with the backup down, keys 0-18 rewritten at 3, and the backup
   restarted empty. One tick must make it answer every version as the
   primary does. *)
let design_schedule_is_exact () =
  let r = start_range "schedule" in
  Fun.protect ~finally:(fun () -> stop_range r) @@ fun () ->
  let client = Net.Client.connect (Net.Sockaddr.Unix_sock r.p_path) in
  Fun.protect ~finally:(fun () -> Net.Client.close client) @@ fun () ->
  for k = 0 to 9 do
    Net.Client.insert client ~key:k ~value:k
  done;
  check_int "version 1" 1 (Net.Client.tag client);
  Net.Client.remove client ~key:9;
  check_int "version 2" 2 (Net.Client.tag client);
  Net.Server.stop r.backup;
  (try Sys.remove r.b_path with Sys_error _ -> ());
  for k = 0 to 18 do
    Net.Client.insert client ~key:k ~value:(k + 100)
  done;
  check_int "version 3" 3 (Net.Client.tag client);
  let backup_store = fresh_store () in
  let backup = serve backup_store r.b_path in
  Fun.protect ~finally:(fun () -> Net.Server.stop backup) @@ fun () ->
  Repl.Chain.tick r.chain;
  check_bool "caught up" true (Repl.Chain.in_sync r.chain);
  for version = 1 to 3 do
    check_bool (Printf.sprintf "snapshots at v%d" version) true
      (Store.extract_snapshot backup_store ~version ()
      = Store.extract_snapshot r.primary_store ~version ())
  done;
  for key = 0 to 19 do
    check_bool (Printf.sprintf "history of key %d" key) true
      (Store.extract_history backup_store key = Store.extract_history r.primary_store key)
  done;
  check_bool "find 0 @v1 = 0 on the primary" true
    (Store.find r.primary_store ~version:1 0 = Some 0);
  check_bool "find 0 @v1 = 0 on the backup" true (Store.find backup_store ~version:1 0 = Some 0)

(* A backup restarted over its own pool recovers its clock as its
   highest version: 2, for a pending write it holds at version 2, while
   the primary, which wrote key 2 at version 2 during the outage, has
   since committed it. A copy from that clock would skip key 2. *)
let restart_over_own_pool () =
  let r = start_range "reopen" in
  Fun.protect ~finally:(fun () -> stop_range r) @@ fun () ->
  let client = Net.Client.connect (Net.Sockaddr.Unix_sock r.p_path) in
  Fun.protect ~finally:(fun () -> Net.Client.close client) @@ fun () ->
  for k = 0 to 9 do
    Net.Client.insert client ~key:k ~value:k
  done;
  ignore (Net.Client.tag client);
  Net.Client.insert client ~key:1 ~value:11;
  Net.Server.stop r.backup;
  (try Sys.remove r.b_path with Sys_error _ -> ());
  Net.Client.insert client ~key:2 ~value:22;
  check_int "the primary commits version 2" 2 (Net.Client.tag client);
  let backup_store = Store.open_existing (Pmem.Pheap.reopen (Store.heap r.backup_store)) in
  check_int "the reopened backup's clock" 2 (Store.current_version backup_store);
  let backup = serve backup_store r.b_path in
  Fun.protect ~finally:(fun () -> Net.Server.stop backup) @@ fun () ->
  Repl.Chain.tick r.chain;
  check_bool "caught up" true (Repl.Chain.in_sync r.chain);
  check_bool "the write of the outage reached the backup" true
    (Store.find backup_store 2 = Some 22);
  for version = 1 to 2 do
    check_bool (Printf.sprintf "snapshots at v%d" version) true
      (Store.extract_snapshot backup_store ~version ()
      = Store.extract_snapshot r.primary_store ~version ())
  done;
  for key = 0 to 9 do
    check_bool (Printf.sprintf "history of key %d" key) true
      (Store.extract_history backup_store key = Store.extract_history r.primary_store key)
  done

let counter name = Obs.Metric.value (Obs.Registry.counter name)

(* Batches reach the backup as the client sent them, unsorted and with
   repeated keys: the backup's store canonicalises each one as the
   primary's did, so both hold the same history for every key and the
   same snapshot at every version. The first tick makes the backup
   current, so all six mutations are forwarded, none caught up. *)
let forward_unsorted_batches () =
  with_range "batch" (fun r ->
      Repl.Chain.tick r.chain;
      check_bool "in sync before the batches" true (Repl.Chain.in_sync r.chain);
      let forwarded = counter "repl.forwarded" and catchups = counter "repl.catchups" in
      client_of r.p_path
        (fun c ->
          Net.Client.insert_batch c [ (5, 50); (1, 10); (5, 51); (3, 30); (1, 11); (9, 90) ];
          check_int "version 1" 1 (Net.Client.tag c);
          Net.Client.remove_batch c [ 9; 1; 9; 4; 1 ];
          check_int "version 2" 2 (Net.Client.tag c);
          Net.Client.insert_batch c [ (9, 91); (3, 31); (9, 92); (1, 12); (3, 32) ];
          check_int "version 3" 3 (Net.Client.tag c))
        ();
      check_bool "chain in sync" true (Repl.Chain.in_sync r.chain);
      check_int "mutations forwarded" 6 (counter "repl.forwarded" - forwarded);
      check_int "catch-ups" 0 (counter "repl.catchups" - catchups);
      for version = 1 to 3 do
        check_bool (Printf.sprintf "snapshots at v%d" version) true
          (Store.extract_snapshot r.backup_store ~version ()
          = Store.extract_snapshot r.primary_store ~version ())
      done;
      for key = 0 to 9 do
        check_bool (Printf.sprintf "history of key %d" key) true
          (Store.extract_history r.backup_store key = Store.extract_history r.primary_store key)
      done;
      check_bool "the later duplicate won on the backup" true
        (Store.find r.backup_store ~version:1 5 = Some 51))

(* The backup is cut off after a write at its pending version 2. The
   primary then removes that key and two more, tags to 21 and compacts
   at 19, which releases the removed keys: nothing above the backup's
   clock 1 says they are gone, so the catch-up must empty the backup
   and send everything. *)
let behind_the_horizon () =
  with_cleanup @@ fun defer ->
  let path role = sock_path ("horizon_" ^ role) in
  let p_store = fresh_store () and b_store = fresh_store () in
  let backup = serve b_store (path "b") in
  defer (fun () -> Net.Server.stop backup);
  let relay = start_relay ~path:(path "relay") ~upstream:(path "b") () in
  defer (fun () -> stop_relay relay);
  let primary, chain, _ = serve_primary p_store (path "p") [| path "relay" |] in
  defer (fun () -> Net.Server.stop primary);
  defer (fun () -> Repl.Chain.close chain);
  let client = Net.Client.connect (Net.Sockaddr.Unix_sock (path "p")) in
  defer (fun () -> Net.Client.close client);
  for k = 0 to 9 do
    Net.Client.insert client ~key:k ~value:k
  done;
  ignore (Net.Client.tag client);
  Net.Client.insert client ~key:5 ~value:55;
  check_bool "the backup holds the pending write" true
    (Repl.Chain.in_sync chain && Store.find b_store 5 = Some 55);
  partition relay;
  let released = [ 3; 4; 5 ] in
  List.iter (fun key -> Net.Client.remove client ~key) released;
  for _ = 1 to 20 do
    ignore (Net.Client.tag client)
  done;
  let horizon, _ = Store.retain p_store ~keep:2 in
  check_int "compacted at 19" 19 horizon;
  check_int "the primary holds 7 keys" 7 (Store.key_count p_store);
  heal relay;
  let resets = counter "repl.catchup_resets" in
  Repl.Chain.tick chain;
  check_bool "caught up" true (Repl.Chain.in_sync chain);
  for version = horizon to Store.current_version p_store do
    check_bool (Printf.sprintf "snapshots at v%d" version) true
      (Store.extract_snapshot b_store ~version () = Store.extract_snapshot p_store ~version ())
  done;
  for key = 0 to 9 do
    check_bool (Printf.sprintf "history of key %d" key) true
      (Store.extract_history b_store key = Store.extract_history p_store key)
  done;
  check_int "the released keys are gone from the backup" 7 (Store.key_count b_store);
  check_int "one catch-up emptied the backup" 1 (counter "repl.catchup_resets" - resets)

(* A GC pass on the primary while a catch-up's page is in flight. The
   relay runs it before passing the page on, after the chain pulled
   that page above the backup's clock 1, and it releases keys whose
   removal markers the page carries. The copy must be redone from an
   emptied backup, or those keys stay live there. *)
let gc_during_the_copy () =
  with_cleanup @@ fun defer ->
  let path role = sock_path ("gcmid_" ^ role) in
  let p_store = fresh_store () and b_store = fresh_store () in
  let backup = serve b_store (path "b") in
  defer (fun () -> Net.Server.stop backup);
  let relay = start_relay ~path:(path "relay") ~upstream:(path "b") () in
  defer (fun () -> stop_relay relay);
  let primary, chain, _ = serve_primary p_store (path "p") [| path "relay" |] in
  defer (fun () -> Net.Server.stop primary);
  defer (fun () -> Repl.Chain.close chain);
  let client = Net.Client.connect (Net.Sockaddr.Unix_sock (path "p")) in
  defer (fun () -> Net.Client.close client);
  let n = 3_000 in
  Net.Client.insert_batch client (List.init n (fun k -> (k, k)));
  ignore (Net.Client.tag client);
  partition relay;
  (* 3,100 events above version 1: one page of at most
     Net.Client.copy_page (4,096) *)
  Net.Client.insert_batch client (List.init n (fun k -> (k, -k)));
  Net.Client.remove_batch client (List.init 100 (fun i -> n - 100 + i));
  for _ = 1 to 20 do
    ignore (Net.Client.tag client)
  done;
  heal relay;
  let chunks = ref 0 in
  Atomic.set relay.tap (fun () ->
      incr chunks;
      (* chunk 1 is the clock probe, chunk 2 the page *)
      if !chunks = 2 then ignore (Store.retain p_store ~keep:2));
  let resets = counter "repl.catchup_resets" in
  Repl.Chain.tick chain;
  Atomic.set relay.tap ignore;
  check_bool "the pass ran during the copy" true (Store.horizon p_store = 19 && !chunks > 2);
  check_bool "caught up" true (Repl.Chain.in_sync chain);
  check_int "the released keys are gone from the backup" (n - 100) (Store.key_count b_store);
  for version = 19 to Store.current_version p_store do
    check_bool (Printf.sprintf "snapshots at v%d" version) true
      (Store.extract_snapshot b_store ~version () = Store.extract_snapshot p_store ~version ())
  done;
  check_bool "every history" true
    (List.for_all
       (fun key -> Store.extract_history b_store key = Store.extract_history p_store key)
       (List.init n Fun.id));
  check_int "the redo emptied the backup" 1 (counter "repl.catchup_resets" - resets)

(* The emptying copy cut off after its first page: the backup then
   holds the primary's events at version 21, far past its own clock 1.
   The next tick must empty it again, those events included, and copy
   everything, or the removal markers it appends leave histories the
   copy cannot line up. *)
let interrupted_reset_resumes () =
  with_cleanup @@ fun defer ->
  let path role = sock_path ("resume_" ^ role) in
  let p_store = fresh_store () and b_store = fresh_store () in
  let backup = serve b_store (path "b") in
  defer (fun () -> Net.Server.stop backup);
  let relay = start_relay ~path:(path "relay") ~upstream:(path "b") () in
  defer (fun () -> stop_relay relay);
  let primary, chain, _ = serve_primary p_store (path "p") [| path "relay" |] in
  defer (fun () -> Net.Server.stop primary);
  defer (fun () -> Repl.Chain.close chain);
  let client = Net.Client.connect (Net.Sockaddr.Unix_sock (path "p")) in
  defer (fun () -> Net.Client.close client);
  let n = 3_000 in
  Net.Client.insert_batch client (List.init n (fun k -> (k, k)));
  ignore (Net.Client.tag client);
  partition relay;
  for _ = 1 to 19 do
    ignore (Net.Client.tag client)
  done;
  Net.Client.insert_batch client (List.init n (fun k -> (k, -k - 1)));
  ignore (Net.Client.tag client);
  let horizon, _ = Store.retain p_store ~keep:2 in
  check_int "compacted at 19" 19 horizon;
  heal relay;
  (* Cut the link once the emptied backup holds the first page. *)
  let emptied = ref false in
  Atomic.set relay.tap (fun () ->
      if Store.key_count b_store = 0 then emptied := true
      else if !emptied then partition relay);
  Repl.Chain.tick chain;
  Atomic.set relay.tap ignore;
  check_bool "the first tick was cut off" false (Repl.Chain.in_sync chain);
  check_bool "after its first page" true (Store.key_count b_store > 0);
  heal relay;
  Repl.Chain.tick chain;
  check_bool "caught up" true (Repl.Chain.in_sync chain);
  check_bool "every history" true
    (List.for_all
       (fun key -> Store.extract_history b_store key = Store.extract_history p_store key)
       (List.init n Fun.id));
  for version = 1 to Store.current_version p_store do
    check_bool (Printf.sprintf "snapshots at v%d" version) true
      (Store.extract_snapshot b_store ~version () = Store.extract_snapshot p_store ~version ())
  done

(* Wire bytes, both ways, of the tick that catches a backup of [n] keys
   up on one write it missed. *)
let catch_up_bytes n =
  with_cleanup @@ fun defer ->
  let path role = sock_path (Printf.sprintf "bytes%d_%s" n role) in
  let store () = Store.create (Pmem.Pheap.create_ram ~capacity:(1 lsl 25) ()) in
  let p_store = store () and b_store = store () in
  for chunk = 0 to (n / 1000) - 1 do
    Store.insert_batch p_store (List.init 1000 (fun i -> ((chunk * 1000) + i, i)))
  done;
  ignore (Store.tag p_store);
  let backup = serve b_store (path "b") in
  defer (fun () -> Net.Server.stop backup);
  let relay = start_relay ~path:(path "relay") ~upstream:(path "b") () in
  defer (fun () -> stop_relay relay);
  let primary, chain, _ = serve_primary p_store (path "p") [| path "relay" |] in
  defer (fun () -> Net.Server.stop primary);
  defer (fun () -> Repl.Chain.close chain);
  Repl.Chain.tick chain;
  check_int "the first tick fills the backup" n (Store.key_count b_store);
  let client = Net.Client.connect (Net.Sockaddr.Unix_sock (path "p")) in
  partition relay;
  Net.Client.insert client ~key:7 ~value:(-7);
  check_bool "the backup missed the write" false (Repl.Chain.in_sync chain);
  heal relay;
  (* The chain reads the primary's store in process, so only the
     backup's server is on the wire during the tick. Stopping the
     primary's first settles its byte counters, which its workers bump
     after each reply leaves. *)
  Net.Client.close client;
  Net.Server.stop primary;
  let bytes () = counter "net.bytes_in" + counter "net.bytes_out" in
  let before = bytes () in
  Repl.Chain.tick chain;
  let sent = bytes () - before in
  check_bool "caught up" true
    (Repl.Chain.in_sync chain && Store.find b_store 7 = Some (-7)
    && Store.extract_history b_store 7 = Store.extract_history p_store 7);
  sent

let catch_up_costs_the_gap () =
  let small = catch_up_bytes 10_000 and large = catch_up_bytes 100_000 in
  check_int "wire bytes at 100,000 keys = at 10,000 keys" small large

(* A catch-up ships replicated History_batch pages, which are no
   move's installs: catching a backup up on one missed write leaves
   [move.install.events], which lights `cluster top`'s move line, where
   it was. *)
let catch_up_installs_no_move () =
  with_cleanup @@ fun defer ->
  let path role = sock_path ("nomove_" ^ role) in
  let p_store = fresh_store () and b_store = fresh_store () in
  let backup = serve b_store (path "b") in
  defer (fun () -> Net.Server.stop backup);
  let relay = start_relay ~path:(path "relay") ~upstream:(path "b") () in
  defer (fun () -> stop_relay relay);
  let primary, chain, _ = serve_primary p_store (path "p") [| path "relay" |] in
  defer (fun () -> Net.Server.stop primary);
  defer (fun () -> Repl.Chain.close chain);
  let client = Net.Client.connect (Net.Sockaddr.Unix_sock (path "p")) in
  defer (fun () -> Net.Client.close client);
  Net.Client.insert client ~key:1 ~value:1;
  partition relay;
  Net.Client.insert client ~key:7 ~value:(-7);
  check_bool "the backup missed the write" false (Repl.Chain.in_sync chain);
  heal relay;
  let installed = counter "move.install.events" in
  Repl.Chain.tick chain;
  check_bool "caught up" true (Repl.Chain.in_sync chain && Store.find b_store 7 = Some (-7));
  check_int "move.install.events" installed (counter "move.install.events")

(* Clock probes and a seal drain every write flag. On a replicated
   primary a flagged write waits for the chain's mutex, so a drain that
   took it, or a mutex holder that waited on a flag, would hang this
   case until the watchdog fires. *)
let drains_beside_writers () =
  with_range "drains" @@ fun r ->
  let writing = Atomic.make 2 in
  let writer base = client_of r.p_path (fun c ->
      for i = 1 to 2_000 do
        Net.Client.insert c ~key:(base + (i mod 64)) ~value:i
      done;
      Atomic.decr writing)
  in
  let until_written f = client_of r.p_path (fun c ->
      while Atomic.get writing > 0 do
        f c
      done)
  in
  in_threads
    [
      writer 0;
      writer 64;
      until_written (fun c -> ignore (Net.Client.clock c));
      until_written (fun c ->
          Net.Client.range_seal c ~lo:1000 ~hi:2000 ~epoch:0 ~endpoint:"unix:///elsewhere";
          Net.Client.range_unseal c ~lo:1000 ~hi:2000);
    ];
  check_bool "backup = primary" true
    (Repl.Chain.in_sync r.chain
    && Store.extract_snapshot r.backup_store () = Store.extract_snapshot r.primary_store ())

(* ---- whole-store transfers past one frame ---- *)

(* A Pairs reply of 600,000 pairs is 9,600,010 bytes, past the 8 MiB
   frame limit (524,287 pairs), so every whole-store transfer must page.
   The store is built once and shared; each case serves it on its own
   socket. *)
let big_n = 600_000
let big_capacity = 1 lsl 26

let big_store =
  lazy
    (let store = Store.create (Pmem.Pheap.create_ram ~capacity:big_capacity ()) in
     for chunk = 0 to (big_n / 1000) - 1 do
       Store.insert_batch store
         (List.init 1000 (fun i ->
              let k = (chunk * 1000) + i in
              (k, k * 7)))
     done;
     ignore (Store.tag store);
     store)

let with_big_server tag f =
  let store = Lazy.force big_store in
  let path = sock_path tag in
  let server = serve store path in
  Fun.protect
    ~finally:(fun () ->
      Net.Server.stop server;
      try Sys.remove path with Sys_error _ -> ())
    (fun () -> f store (Net.Sockaddr.Unix_sock path))

let router_snapshot_past_a_frame () =
  with_big_server "big_router" @@ fun store addr ->
  let router =
    Cluster.Router.create (Cluster.Topology.create_replicated ~key_bits:20 [| [| addr |] |])
  in
  Fun.protect ~finally:(fun () -> Cluster.Router.close router) @@ fun () ->
  check_bool "router snapshot = extract_snapshot" true
    (ok "snapshot" (Cluster.Router.snapshot router ()) = Store.extract_snapshot store ())

let client_snapshot_past_a_frame () =
  with_big_server "big_snapshot" @@ fun store addr ->
  let c = Net.Client.connect addr in
  Fun.protect ~finally:(fun () -> Net.Client.close c) @@ fun () ->
  check_bool "client snapshot = extract_snapshot" true
    (Net.Client.snapshot c () = Store.extract_snapshot store ())

(* 940,000 keys cycling the store make a 7.5 MB request, inside a frame,
   whose 940,000 values answer 8.46 MB, past it. *)
let oversize_reply_keeps_the_connection () =
  with_big_server "big_client" @@ fun _ addr ->
  let c = Net.Client.connect addr in
  Fun.protect ~finally:(fun () -> Net.Client.close c) @@ fun () ->
  (match Net.Client.find_bulk c (Array.init 940_000 (fun i -> i mod big_n)) with
  | _ -> Alcotest.fail "a 940,000-value reply fit in one frame"
  | exception Net.Client.Remote_error (Net.Wire.Too_large, _) -> ());
  check_bool "the same client answers a find" true (Net.Client.find c 12 = Some 84)

let one_tick_fills_an_empty_backup () =
  let primary = Lazy.force big_store in
  let path = sock_path "big_backup" in
  let backup_store = Store.create (Pmem.Pheap.create_ram ~capacity:big_capacity ()) in
  let backup = serve backup_store path in
  let chain =
    Repl.Chain.create ~epoch_cell:(Atomic.make 0) ~store:primary
      [| Net.Sockaddr.Unix_sock path |]
  in
  Fun.protect
    ~finally:(fun () ->
      Repl.Chain.close chain;
      Net.Server.stop backup;
      try Sys.remove path with Sys_error _ -> ())
  @@ fun () ->
  Repl.Chain.tick chain;
  check_bool "in sync after one tick" true (Repl.Chain.in_sync chain);
  check_int "backup holds every key" big_n (Store.key_count backup_store);
  check_int "backup clock = primary clock" (Store.current_version primary)
    (Store.current_version backup_store)

let () =
  Watchdog.run "repl"
    [
      ( "chain",
        [
          Alcotest.test_case "synchronous forward converges the backup" `Quick
            chain_forwards_and_converges;
          Alcotest.test_case "catch-up repairs a restarted backup" `Quick
            chain_catchup_after_backup_restart;
        ] );
      ( "epoch",
        [
          Alcotest.test_case "stale epoch is typed and reload recovers" `Quick
            stale_epoch_is_typed_and_recoverable;
        ] );
      ( "exact",
        [
          Alcotest.test_case "forwards keep apply order: insert against tag" `Quick
            (forward_order ~tagger:true);
          Alcotest.test_case "forwards keep apply order: two inserters" `Quick
            (forward_order ~tagger:false);
          Alcotest.test_case "DESIGN 6 schedule: one tick makes the backup exact" `Quick
            design_schedule_is_exact;
          Alcotest.test_case "a backup restarted over its own pool misses nothing" `Quick
            restart_over_own_pool;
          Alcotest.test_case "behind the horizon: the backup is emptied, then refilled"
            `Quick behind_the_horizon;
          Alcotest.test_case "a GC pass during the copy redoes it from an emptied backup"
            `Quick gc_during_the_copy;
          Alcotest.test_case "an emptying copy cut off midway resumes exact" `Quick
            interrupted_reset_resumes;
          Alcotest.test_case "one missed write costs the same bytes at 10k and 100k keys"
            `Quick catch_up_costs_the_gap;
          Alcotest.test_case "a catch-up counts no move install" `Quick
            catch_up_installs_no_move;
          Alcotest.test_case "probes and a seal finish beside two inserters" `Quick
            drains_beside_writers;
          Alcotest.test_case "unsorted batches with repeated keys forward as sent" `Quick
            forward_unsorted_batches;
        ] );
      ("failover", [ QCheck_alcotest.to_alcotest failover_parity ]);
      ( "simrep",
        [
          Alcotest.test_case "partition then heal + sync" `Quick
            partition_then_heal;
          Alcotest.test_case "slow replica converges deterministically" `Quick
            slow_replica_converges;
          Alcotest.test_case "crash primary, promote, rejoin" `Quick
            crash_promote_rejoin;
        ] );
      ( "oversize",
        [
          Alcotest.test_case "router snapshot of 600,000 pairs = extract_snapshot"
            `Quick router_snapshot_past_a_frame;
          Alcotest.test_case "client snapshot of 600,000 pairs = extract_snapshot"
            `Quick client_snapshot_past_a_frame;
          Alcotest.test_case "an oversize reply is Too_large and the client reads on"
            `Quick oversize_reply_keeps_the_connection;
          Alcotest.test_case "one tick fills an empty backup of 600,000 keys" `Quick
            one_tick_fills_an_empty_backup;
        ] );
    ]
