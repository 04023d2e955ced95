(* Tests for lib/repl: the primary chain forwarding over real Unix
   sockets (convergence, anti-entropy catch-up after a backup restart),
   the kill-primary failover path end to end (no acknowledged write
   lost, qcheck parity with a single PSkipList across find / history /
   snapshot at every version after promotion), the stale-epoch
   contract (typed Bad_epoch surfaced as Router.Stale_epoch, recovery
   via topology reload), and the deterministic Simrep fault scenarios
   (partition, slow replica, crash + promote). *)

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

let start_range tag =
  let p_path = sock_path (tag ^ "_p") and b_path = sock_path (tag ^ "_b") in
  let primary_store = fresh_store () and backup_store = fresh_store () in
  let epoch_cell = Atomic.make 0 in
  let backup =
    Net.Server.start ~store:backup_store ~workers:2
      ~epoch_cell:(Atomic.make 0)
      ~listen:(Net.Sockaddr.Unix_sock b_path) ()
  in
  let chain =
    Repl.Chain.create ~epoch_cell
      ~snapshot:(fun ?version () -> Store.extract_snapshot primary_store ?version ())
      ~current_version:(fun () -> Store.current_version primary_store)
      [| Net.Sockaddr.Unix_sock b_path |]
  in
  let primary =
    Net.Server.start ~store:primary_store ~workers:2 ~epoch_cell
      ~on_mutation:(Repl.Chain.on_mutation chain)
      ~listen:(Net.Sockaddr.Unix_sock p_path) ()
  in
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
     with a ranged state diff, not an op replay *)
  let backup_store' = fresh_store () in
  let backup' =
    Net.Server.start ~store:backup_store' ~workers:2
      ~epoch_cell:(Atomic.make 0)
      ~listen:(Net.Sockaddr.Unix_sock r.b_path) ()
  in
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
    ok "snapshot" (Cluster.Router.snapshot router ~mode:Cluster.Router.Naive ())
    <> Store.extract_snapshot reference ()
  then QCheck.Test.fail_report "snapshot parity";
  for v = 1 to final do
    if
      ok "snapshot@v"
        (Cluster.Router.snapshot router ~version:v ~mode:Cluster.Router.Naive ())
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

(* ---- simulated fault scenarios (deterministic, no sockets) ---- *)

let simrep_partition_heal () =
  let t = Repl.Simrep.create ~replicas:3 () in
  for k = 0 to 9 do
    Repl.Simrep.insert t ~key:k ~value:k
  done;
  check_int "tag acked" 1 (Repl.Simrep.tag t);
  Repl.Simrep.run t;
  check_bool "all backups converged" true (Repl.Simrep.converged t);
  (* partition one backup: forwards to it are lost, acks keep flowing *)
  Repl.Simrep.inject t 2 Repl.Simrep.Partitioned;
  for k = 10 to 19 do
    Repl.Simrep.insert t ~key:k ~value:k
  done;
  Repl.Simrep.run t;
  check_bool "healthy backup kept up" true (Repl.Simrep.in_sync t 1);
  check_bool "partitioned backup lagging" false (Repl.Simrep.in_sync t 2);
  check_int "no acked write lost" 0 (Repl.Simrep.lost_acked_writes t);
  (* heal + anti-entropy: state-level repair, then convergence *)
  Repl.Simrep.heal t 2;
  Repl.Simrep.sync t;
  Repl.Simrep.run t;
  check_bool "repaired after sync" true (Repl.Simrep.in_sync t 2);
  check_bool "converged after heal" true (Repl.Simrep.converged t);
  check_bool "repaired replica serves reads" true
    (Repl.Simrep.find t ~node:2 15 = Some 15)

let simrep_slow_replica () =
  (* same ops, one slow backup: delivery still converges, simulated
     time shows the cost, and the whole run is deterministic *)
  let run_once slow =
    let t = Repl.Simrep.create ~replicas:2 () in
    if slow then Repl.Simrep.inject t 1 (Repl.Simrep.Slow 50.);
    for k = 0 to 19 do
      Repl.Simrep.insert t ~key:k ~value:(k * 2)
    done;
    ignore (Repl.Simrep.tag t);
    Repl.Simrep.run t;
    check_bool "converged" true (Repl.Simrep.converged t);
    Repl.Simrep.now_s t
  in
  let fast_s = run_once false and slow_s = run_once true in
  check_bool "slow replica costs simulated time" true (slow_s > fast_s);
  check_bool "simulation is deterministic" true
    (run_once true = slow_s && run_once false = fast_s)

let simrep_crash_promote () =
  let t = Repl.Simrep.create ~replicas:2 () in
  for k = 0 to 9 do
    Repl.Simrep.insert t ~key:k ~value:k
  done;
  ignore (Repl.Simrep.tag t);
  Repl.Simrep.run t;
  check_bool "replicated before the crash" true (Repl.Simrep.converged t);
  (* the primary's process dies; the backup holds every acked write *)
  Repl.Simrep.crash t 0;
  Repl.Simrep.promote t 1;
  check_int "promotion bumps the epoch" 1 (Repl.Simrep.epoch t);
  check_int "backup is the new primary" 1 (Repl.Simrep.primary t);
  check_int "no acked write lost by the crash" 0 (Repl.Simrep.lost_acked_writes t);
  (* the promoted primary serves reads and writes *)
  check_bool "acked write readable after promotion" true
    (Repl.Simrep.find t ~node:1 5 = Some 5);
  for k = 10 to 14 do
    Repl.Simrep.insert t ~key:k ~value:k
  done;
  Repl.Simrep.run t;
  check_int "still nothing lost" 0 (Repl.Simrep.lost_acked_writes t);
  (* the old primary restarts empty and rejoins via anti-entropy *)
  Repl.Simrep.restart t 0;
  check_bool "restarted node out of sync" false (Repl.Simrep.in_sync t 0);
  Repl.Simrep.sync t;
  Repl.Simrep.run t;
  check_bool "rejoined after sync" true (Repl.Simrep.in_sync t 0);
  check_bool "cluster converged again" true (Repl.Simrep.converged t);
  check_bool "rejoined node serves the full state" true
    (Repl.Simrep.find t ~node:0 12 = Some 12)

let () =
  Alcotest.run "repl"
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
      ("failover", [ QCheck_alcotest.to_alcotest failover_parity ]);
      ( "simrep",
        [
          Alcotest.test_case "partition then heal + sync" `Quick
            simrep_partition_heal;
          Alcotest.test_case "slow replica converges deterministically" `Quick
            simrep_slow_replica;
          Alcotest.test_case "crash primary, promote, rejoin" `Quick
            simrep_crash_promote;
        ] );
    ]
