(* Tests for lib/cluster: topology spec parsing, end-to-end routed
   operations against 4 real shard servers on Unix-domain sockets
   (cluster-wide tags, find_bulk ordering, distributed snapshots),
   typed Shard_down errors with recovery after a shard bounce, and a
   qcheck parity property holding the sharded cluster to the same
   answers as a single PSkipList. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

module Store = Mvdict.Pskiplist.Make (Mvdict.Codec.Int_key) (Mvdict.Codec.Int_value)

let fresh_store () = Store.create (Pmem.Pheap.create_ram ~capacity:(1 lsl 22) ())

let ok what = function
  | Ok v -> v
  | Error e -> Alcotest.failf "%s: %s" what (Cluster.Router.error_to_string e)

(* ---- topology spec ---- *)

let spec =
  "# demo cluster\n\
   key_bits 12\n\
   shard 0 unix:///tmp/s0.sock\n\
   shard 2 tcp://127.0.0.1:7801\n\
   \n\
   shard 1 tcp://localhost:7800\n"

let topo_parse () =
  match Cluster.Topology.of_string spec with
  | Error e -> Alcotest.failf "parse failed: %s" e
  | Ok t ->
      check_int "key_bits" 12 (Cluster.Topology.key_bits t);
      check_int "shards" 3 (Cluster.Topology.shards t);
      check_string "shard 0" "unix:///tmp/s0.sock"
        (Net.Sockaddr.to_string (Cluster.Topology.endpoint t 0));
      check_string "shard 1" "tcp://localhost:7800"
        (Net.Sockaddr.to_string (Cluster.Topology.endpoint t 1));
      (* ranges split 4096 keys over 3 shards: width 1366 *)
      check_int "key 0 owner" 0 (Cluster.Topology.owner t 0);
      check_int "key 1365 owner" 0 (Cluster.Topology.owner t 1365);
      check_int "key 1366 owner" 1 (Cluster.Topology.owner t 1366);
      check_int "key 4095 owner" 2 (Cluster.Topology.owner t 4095);
      check_bool "4096 out of space" false (Cluster.Topology.in_key_space t 4096);
      check_bool "-1 out of space" false (Cluster.Topology.in_key_space t (-1))

let topo_roundtrip () =
  let t =
    match Cluster.Topology.of_string spec with
    | Ok t -> t
    | Error e -> Alcotest.failf "parse failed: %s" e
  in
  match Cluster.Topology.of_string (Cluster.Topology.to_string t) with
  | Error e -> Alcotest.failf "reparse failed: %s" e
  | Ok t2 ->
      check_string "round-trip" (Cluster.Topology.to_string t)
        (Cluster.Topology.to_string t2)

let topo_errors () =
  let bad what s =
    match Cluster.Topology.of_string s with
    | Ok _ -> Alcotest.failf "%s: expected a parse error" what
    | Error _ -> ()
  in
  bad "no shards" "key_bits 8\n";
  bad "no key_bits" "shard 0 tcp://h:1\n";
  bad "sparse ids" "key_bits 8\nshard 0 tcp://h:1\nshard 2 tcp://h:2\n";
  bad "duplicate id" "key_bits 8\nshard 0 tcp://h:1\nshard 0 tcp://h:2\n";
  bad "bad endpoint" "key_bits 8\nshard 0 carrier-pigeon://h\n";
  bad "bad port" "key_bits 8\nshard 0 tcp://h:99999\n";
  bad "key_bits zero" "key_bits 0\nshard 0 tcp://h:1\n";
  bad "key_bits 62" "key_bits 62\nshard 0 tcp://h:1\n";
  bad "unknown directive" "key_bits 8\nwidget 0 tcp://h:1\n";
  (* replicated specs *)
  bad "replica without shards" "key_bits 8\nreplica 0 tcp://h:1\n";
  bad "replica id out of range"
    "key_bits 8\nshard 0 tcp://h:1\nreplica 1 tcp://h:2\n";
  bad "duplicate endpoint in a set" "key_bits 8\nshard 0 tcp://h:1 tcp://h:1\n";
  bad "duplicate endpoint across sets"
    "key_bits 8\nshard 0 tcp://h:1\nshard 1 tcp://h:1\n";
  bad "duplicate endpoint via replica"
    "key_bits 8\nshard 0 tcp://h:1 tcp://h:2\nreplica 0 tcp://h:2\n";
  bad "negative epoch" "key_bits 8\nepoch -1\nshard 0 tcp://h:1\n";
  bad "duplicate epoch" "key_bits 8\nepoch 1\nepoch 2\nshard 0 tcp://h:1\n"

let topo_replicated_parse () =
  let spec =
    "key_bits 8\n\
     epoch 7\n\
     shard 0 tcp://h:1 tcp://h:2\n\
     shard 1 tcp://h:3\n\
     replica 1 tcp://h:4\n\
     replica 0 tcp://h:5\n"
  in
  match Cluster.Topology.of_string spec with
  | Error e -> Alcotest.failf "parse failed: %s" e
  | Ok t ->
      check_int "epoch" 7 (Cluster.Topology.epoch t);
      check_int "shards" 2 (Cluster.Topology.shards t);
      check_int "shard 0 replicas" 3 (Cluster.Topology.replica_count t 0);
      check_int "shard 1 replicas" 2 (Cluster.Topology.replica_count t 1);
      check_string "shard 0 primary" "tcp://h:1"
        (Net.Sockaddr.to_string (Cluster.Topology.primary t 0));
      (* inline endpoints come before replica-directive ones *)
      check_string "shard 0 slot 1" "tcp://h:2"
        (Net.Sockaddr.to_string (Cluster.Topology.replica t 0 1));
      check_string "shard 0 slot 2" "tcp://h:5"
        (Net.Sockaddr.to_string (Cluster.Topology.replica t 0 2));
      check_bool "shard 1 backups" true
        (Array.map Net.Sockaddr.to_string (Cluster.Topology.backups t 1)
        = [| "tcp://h:4" |])

let topo_promote () =
  let t =
    match
      Cluster.Topology.of_string
        "key_bits 8\nepoch 3\nshard 0 tcp://h:1 tcp://h:2 tcp://h:3\n"
    with
    | Ok t -> t
    | Error e -> Alcotest.failf "parse failed: %s" e
  in
  let p = Cluster.Topology.promote t ~shard:0 ~replica:2 in
  check_int "epoch bumped" 4 (Cluster.Topology.epoch p);
  check_bool "set rotated, old primary retained" true
    (Array.map Net.Sockaddr.to_string (Cluster.Topology.replicas p 0)
    = [| "tcp://h:3"; "tcp://h:1"; "tcp://h:2" |]);
  (* the primary (slot 0) is never a promotion target *)
  (match Cluster.Topology.promote t ~shard:0 ~replica:0 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "promote of slot 0 should reject");
  (match Cluster.Topology.promote t ~shard:0 ~replica:3 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "promote of absent slot should reject")

(* qcheck: any replicated topology survives to_string/of_string. The
   generator randomises shape (shard count, per-set replica counts,
   epoch, key_bits); endpoints are unique by construction, as the
   parser demands. *)
let gen_topo =
  QCheck.Gen.(
    let* key_bits = int_range 1 16 in
    let* epoch = int_range 0 1_000 in
    let* sizes = list_size (int_range 1 4) (int_range 1 3) in
    let port = ref 7000 in
    let set n =
      Array.init n (fun _ ->
          incr port;
          Net.Sockaddr.Tcp ("h", !port))
    in
    return
      (Cluster.Topology.create_replicated ~key_bits ~epoch
         (Array.of_list (List.map set sizes))))

let arb_topo = QCheck.make gen_topo ~print:Cluster.Topology.to_string

let topo_qcheck_roundtrip =
  QCheck.Test.make ~count:100 ~name:"replicated topology round-trips" arb_topo
    (fun t ->
      match Cluster.Topology.of_string (Cluster.Topology.to_string t) with
      | Error e -> QCheck.Test.fail_reportf "reparse failed: %s" e
      | Ok t2 ->
          Cluster.Topology.to_string t = Cluster.Topology.to_string t2
          && Cluster.Topology.epoch t = Cluster.Topology.epoch t2)

let topo_qcheck_duplicate =
  QCheck.Test.make ~count:50 ~name:"duplicate endpoint always rejected" arb_topo
    (fun t ->
      (* re-list an existing endpoint as an extra replica of shard 0 *)
      let dup =
        Net.Sockaddr.to_string
          (Cluster.Topology.replica t (Cluster.Topology.shards t - 1) 0)
      in
      match
        Cluster.Topology.of_string
          (Cluster.Topology.to_string t ^ Printf.sprintf "replica 0 %s\n" dup)
      with
      | Error _ -> true
      | Ok _ -> QCheck.Test.fail_reportf "accepted duplicate %s" dup)

(* ---- 4 real shards over unix sockets ---- *)

let sock_path tag i = Printf.sprintf "test_cluster_%s_%d_%d.sock" tag (Unix.getpid ()) i

let with_cluster ?(k = 4) ?(key_bits = 8) ~tag f =
  let paths = Array.init k (sock_path tag) in
  let stores = Array.init k (fun _ -> fresh_store ()) in
  let servers =
    Array.init k (fun i ->
        Net.Server.start ~store:stores.(i) ~workers:1
          ~listen:(Net.Sockaddr.Unix_sock paths.(i)) ())
  in
  let topo =
    Cluster.Topology.create ~key_bits
      (Array.map (fun p -> Net.Sockaddr.Unix_sock p) paths)
  in
  let router = Cluster.Router.create ~retries:1 topo in
  Fun.protect
    ~finally:(fun () ->
      Cluster.Router.close router;
      Array.iter (fun s -> try Net.Server.stop s with _ -> ()) servers;
      Array.iter (fun p -> try Sys.remove p with Sys_error _ -> ()) paths)
    (fun () -> f router stores)

let e2e_routed_ops () =
  with_cluster ~tag:"ops" (fun router stores ->
      ok "ping" (Cluster.Router.ping router);
      (* one key per shard range (width 64) plus range boundaries *)
      let keys = [ 0; 63; 64; 130; 200; 255 ] in
      List.iter
        (fun key -> ok "insert" (Cluster.Router.insert router ~key ~value:(key * 7)))
        keys;
      (* each write landed on exactly its owning shard *)
      check_int "shard 0 holds its range" 2 (Store.key_count stores.(0));
      check_int "shard 1 holds its range" 1 (Store.key_count stores.(1));
      check_int "shard 3 holds its range" 2 (Store.key_count stores.(3));
      List.iter
        (fun key ->
          check_bool "find routed" true
            (ok "find" (Cluster.Router.find router key) = Some (key * 7)))
        keys;
      check_bool "absent key" true (ok "find" (Cluster.Router.find router 17) = None);
      (* out-of-space keys are typed errors, not exceptions *)
      (match Cluster.Router.find router 256 with
      | Error (Cluster.Router.Bad_key { key = 256; key_bits = 8 }) -> ()
      | _ -> Alcotest.fail "expected Bad_key for key 256");
      (match Cluster.Router.insert router ~key:(-1) ~value:0 with
      | Error (Cluster.Router.Bad_key _) -> ()
      | _ -> Alcotest.fail "expected Bad_key for key -1");
      (* remove goes to the owner too *)
      ok "remove" (Cluster.Router.remove router ~key:200);
      check_bool "removed" true (ok "find" (Cluster.Router.find router 200) = None))

let e2e_cluster_tag () =
  with_cluster ~tag:"tag" (fun router stores ->
      ok "insert" (Cluster.Router.insert router ~key:10 ~value:1);
      let v1 = ok "tag" (Cluster.Router.tag router) in
      check_int "first cluster tag" 1 v1;
      (* every shard's clock sits at the tag, even ones that saw no write *)
      Array.iter
        (fun s -> check_int "shard clock" v1 (Store.current_version s))
        stores;
      check_bool "versions agree" true
        (ok "versions" (Cluster.Router.versions router) = [| v1; v1; v1; v1 |]);
      (* skew one shard's clock out-of-band: the next cluster tag must
         jump past it and still land every shard on the same version *)
      ignore (Store.tag stores.(2));
      ignore (Store.tag stores.(2));
      let v2 = ok "tag" (Cluster.Router.tag router) in
      check_int "tag clears the skewed clock" 4 v2;
      Array.iter (fun s -> check_int "shard clock" v2 (Store.current_version s)) stores;
      (* snapshots at v1 don't see writes tagged later *)
      ok "insert" (Cluster.Router.insert router ~key:11 ~value:2);
      let v3 = ok "tag" (Cluster.Router.tag router) in
      check_bool "tag monotonic" true (v3 > v2);
      let at_v1 =
        ok "snapshot" (Cluster.Router.snapshot router ~version:v1 ())
      in
      check_bool "old cut stays" true (at_v1 = [| (10, 1) |]))

let e2e_find_bulk () =
  with_cluster ~tag:"bulk" (fun router _stores ->
      for key = 0 to 255 do
        if key mod 3 = 0 then
          ok "insert" (Cluster.Router.insert router ~key ~value:(key + 1000))
      done;
      ignore (ok "tag" (Cluster.Router.tag router));
      (* order crosses shards back and forth, with duplicates *)
      let keys = [| 255; 0; 130; 66; 0; 199; 3; 255; 17 |] in
      let got = ok "find_bulk" (Cluster.Router.find_bulk router keys) in
      check_int "answer count" (Array.length keys) (Array.length got);
      Array.iteri
        (fun i key ->
          let want = if key mod 3 = 0 then Some (key + 1000) else None in
          check_bool (Printf.sprintf "bulk slot %d (key %d)" i key) true
            (got.(i) = want))
        keys;
      (* bulk larger than one chunk still reassembles in order *)
      let big = Array.init 3000 (fun i -> i land 255) in
      let got = ok "find_bulk" (Cluster.Router.find_bulk router big) in
      Array.iteri
        (fun i key ->
          let want = if key mod 3 = 0 then Some (key + 1000) else None in
          if got.(i) <> want then Alcotest.failf "big bulk slot %d wrong" i)
        big;
      (* a bad key anywhere fails the whole call, typed *)
      match Cluster.Router.find_bulk router [| 1; 999 |] with
      | Error (Cluster.Router.Bad_key { key = 999; _ }) -> ()
      | _ -> Alcotest.fail "expected Bad_key from bulk")

let e2e_batch_and_scan () =
  with_cluster ~tag:"batch" (fun router stores ->
      (* one multi-shard batch: pairs bucket per owning shard (width 64
         ranges), each bucket one pipelined Insert_batch frame *)
      let pairs = List.init 64 (fun i -> (i * 4, i * 40)) in
      ok "insert_batch" (Cluster.Router.insert_batch router pairs);
      check_int "shard 0 got its bucket" 16 (Store.key_count stores.(0));
      check_int "shard 3 got its bucket" 16 (Store.key_count stores.(3));
      let v1 = ok "tag" (Cluster.Router.tag router) in
      (* scan the whole space: ascending across shard boundaries, and a
         small page limit forces several Scan frames per shard *)
      let acc = ref [] in
      let n =
        ok "scan"
          (Cluster.Router.scan router ~limit:5 ~lo:0 ~hi:256 (fun k v ->
               acc := (k, v) :: !acc))
      in
      check_int "scan streamed every pair" 64 n;
      check_bool "scan ascending across shards" true
        (List.rev !acc = pairs);
      (* batched remove spanning shards, then the range re-reads short *)
      ok "remove_batch" (Cluster.Router.remove_batch router [ 0; 4; 252 ]);
      let m =
        ok "scan" (Cluster.Router.scan router ~lo:0 ~hi:256 (fun _ _ -> ()))
      in
      check_int "removed keys left the range" 61 m;
      (* pinned to the pre-remove tag the full cut is still there *)
      let m1 =
        ok "scan"
          (Cluster.Router.scan router ~version:v1 ~lo:0 ~hi:256 (fun _ _ -> ()))
      in
      check_int "pinned scan sees the old cut" 64 m1;
      (* a bad key anywhere fails the whole batch before any send *)
      (match Cluster.Router.insert_batch router [ (1, 1); (999, 9) ] with
      | Error (Cluster.Router.Bad_key { key = 999; _ }) -> ()
      | _ -> Alcotest.fail "expected Bad_key from insert_batch");
      check_bool "aborted batch wrote nothing" true
        (ok "find" (Cluster.Router.find router 1) = None);
      (* the out-of-key-space part of a range simply matches nothing *)
      match Cluster.Router.scan router ~lo:(-5) ~hi:8 (fun _ _ -> ()) with
      | Ok n -> check_int "negative lo clamps" 0 n
      | Error e ->
          Alcotest.failf "scan with negative lo: %s"
            (Cluster.Router.error_to_string e))

let e2e_snapshot () =
  with_cluster ~tag:"snap" (fun router _stores ->
      for key = 0 to 255 do
        if key mod 2 = 0 then
          ok "insert" (Cluster.Router.insert router ~key ~value:(key * 11))
      done;
      ok "remove" (Cluster.Router.remove router ~key:128);
      ignore (ok "tag" (Cluster.Router.tag router));
      let expect =
        List.init 256 (fun k -> k)
        |> List.filter (fun k -> k mod 2 = 0 && k <> 128)
        |> List.map (fun k -> (k, k * 11))
        |> Array.of_list
      in
      check_bool "snapshot = expected" true
        (ok "snapshot" (Cluster.Router.snapshot router ()) = expect))

(* The widest key space: [1 lsl 62] is [min_int] on 63-bit ints, so
   key_bits 62 is refused, and key_bits 61 reaches its last key. *)
let e2e_widest_key_space () =
  (match
     Cluster.Topology.create_replicated ~key_bits:62
       [| [| Net.Sockaddr.Tcp ("h", 1) |] |]
   with
  | _ -> Alcotest.fail "key_bits 62 accepted"
  | exception Invalid_argument _ -> ());
  with_cluster ~k:2 ~key_bits:61 ~tag:"wide" (fun router stores ->
      let last = (1 lsl 61) - 1 in
      ok "insert" (Cluster.Router.insert router ~key:0 ~value:3);
      ok "insert" (Cluster.Router.insert router ~key:last ~value:7);
      check_int "the last key lands on the last shard" 1
        (Store.key_count stores.(1));
      check_bool "find the last key" true
        (ok "find" (Cluster.Router.find router last) = Some 7);
      let acc = ref [] in
      ignore
        (ok "scan"
           (Cluster.Router.scan router ~lo:0 ~hi:(last + 1) (fun k v ->
                acc := (k, v) :: !acc)));
      check_bool "scan reaches the last key" true
        (List.rev !acc = [ (0, 3); (last, 7) ]);
      check_bool "snapshot reaches the last key" true
        (ok "snapshot" (Cluster.Router.snapshot router ()) = [| (0, 3); (last, 7) |]))

let e2e_cluster_compact () =
  with_cluster ~tag:"gc" (fun router stores ->
      (* Three waves of overwrites across all shards, a cluster tag per
         wave so every shard's clock moves together. *)
      for round = 1 to 3 do
        for key = 0 to 255 do
          if key mod 4 = 0 then
            ok "insert" (Cluster.Router.insert router ~key ~value:((round * 1000) + key))
        done;
        ignore (ok "tag" (Cluster.Router.tag router))
      done;
      (* keep=1 anchors the horizon below the minimum shard clock (all
         clocks are 3 here): before = 2, so wave-1 entries go while the
         wave-2 floors stay for reads at version 2. *)
      let before, dropped = ok "compact" (Cluster.Router.compact router ~keep:1) in
      check_int "horizon below min clock" 2 before;
      check_int "one superseded wave dropped cluster-wide" 64 dropped;
      (* every shard compacted and still answers for retained cuts *)
      Array.iter
        (fun s -> check_int "shard clock untouched" 3 (Store.current_version s))
        stores;
      check_bool "current cut intact" true
        (ok "find" (Cluster.Router.find router 128) = Some 3128);
      let at_2 =
        ok "snapshot" (Cluster.Router.snapshot router ~version:2 ())
      in
      check_int "retained cut complete" 64 (Array.length at_2);
      check_bool "retained cut values" true
        (Array.for_all (fun (k, v) -> v = 2000 + k) at_2);
      (* a keep wider than the history clamps the horizon to 0: no-op *)
      let before, dropped = ok "compact again" (Cluster.Router.compact router ~keep:10) in
      check_int "keep larger than history is a no-op" 0 before;
      check_int "no-op drops nothing" 0 dropped)

(* ---- shard failure: typed errors, then recovery ---- *)

let e2e_shard_down_and_recover () =
  let k = 2 and key_bits = 4 in
  let paths = Array.init k (sock_path "down") in
  let stores = Array.init k (fun _ -> fresh_store ()) in
  let start i =
    Net.Server.start ~store:stores.(i) ~workers:1
      ~listen:(Net.Sockaddr.Unix_sock paths.(i)) ()
  in
  let s0 = start 0 in
  let s1 = ref (start 1) in
  let topo =
    Cluster.Topology.create ~key_bits
      (Array.map (fun p -> Net.Sockaddr.Unix_sock p) paths)
  in
  let router = Cluster.Router.create ~retries:1 topo in
  Fun.protect
    ~finally:(fun () ->
      Cluster.Router.close router;
      (try Net.Server.stop s0 with _ -> ());
      (try Net.Server.stop !s1 with _ -> ());
      Array.iter (fun p -> try Sys.remove p with Sys_error _ -> ()) paths)
    (fun () ->
      (* keys 0-7 on shard 0, 8-15 on shard 1 *)
      ok "insert" (Cluster.Router.insert router ~key:3 ~value:30);
      ok "insert" (Cluster.Router.insert router ~key:12 ~value:120);
      Net.Server.stop !s1;
      (* single-key op on the dead shard: a typed error naming it *)
      (match Cluster.Router.find router 12 with
      | Error (Cluster.Router.Shard_down { shard = 1; _ }) -> ()
      | Ok _ -> Alcotest.fail "find on dead shard succeeded"
      | Error e ->
          Alcotest.failf "expected Shard_down 1, got %s"
            (Cluster.Router.error_to_string e));
      (* the live shard still answers *)
      check_bool "live shard unaffected" true
        (ok "find" (Cluster.Router.find router 3) = Some 30);
      (* broadcast ops surface the same typed error *)
      (match Cluster.Router.tag router with
      | Error (Cluster.Router.Shard_down { shard = 1; _ }) -> ()
      | _ -> Alcotest.fail "expected Shard_down from tag");
      (match Cluster.Router.snapshot router () with
      | Error (Cluster.Router.Shard_down { shard = 1; _ }) -> ()
      | _ -> Alcotest.fail "expected Shard_down from snapshot");
      (* bring the shard back on the same socket and store: the router
         re-dials on the next call, no explicit reset needed *)
      s1 := start 1;
      check_bool "find after recovery" true
        (ok "find" (Cluster.Router.find router 12) = Some 120);
      let v = ok "tag after recovery" (Cluster.Router.tag router) in
      check_bool "tag after recovery" true (v >= 1);
      check_bool "snapshot after recovery" true
        (ok "snapshot" (Cluster.Router.snapshot router ()) = [| (3, 30); (12, 120) |]))

(* ---- qcheck parity: cluster == single PSkipList ---- *)

type op = Insert of int * int | Remove of int | Tag

let pp_op = function
  | Insert (k, v) -> Printf.sprintf "insert %d %d" k v
  | Remove k -> Printf.sprintf "remove %d" k
  | Tag -> "tag"

let gen_ops =
  QCheck.Gen.(
    list_size (int_range 5 30)
      (frequency
         [
           (6, map2 (fun k v -> Insert (k, v)) (int_bound 255) small_signed_int);
           (2, map (fun k -> Remove k) (int_bound 255));
           (2, return Tag);
         ]))

let arb_ops =
  QCheck.make gen_ops ~print:(fun ops -> String.concat "; " (List.map pp_op ops))

let event_str (v, e) =
  match e with
  | Mvdict.Dict_intf.Put x -> Printf.sprintf "v%d:put %d" v x
  | Mvdict.Dict_intf.Del -> Printf.sprintf "v%d:del" v

let parity_property ops =
  let reference = fresh_store () in
  with_cluster ~tag:"parity" (fun router _stores ->
      List.iter
        (fun op ->
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
                QCheck.Test.fail_reportf "tag parity: local %d cluster %d" local
                  cluster)
        ops;
      let final = Store.current_version reference in
      (* every key at every committed version, through the bulk path *)
      let keys = Array.init 256 (fun i -> i) in
      let check_cut ?version () =
        let got = ok "find_bulk" (Cluster.Router.find_bulk router ?version keys) in
        Array.iteri
          (fun key g ->
            let want = Store.find reference ?version key in
            if g <> want then
              QCheck.Test.fail_reportf "find parity: key %d at %s" key
                (match version with None -> "now" | Some v -> string_of_int v))
          got
      in
      check_cut ();
      for v = 1 to final do
        check_cut ~version:v ()
      done;
      (* per-key history, exactly the single-store events *)
      let touched =
        List.filter_map
          (function Insert (k, _) | Remove k -> Some k | Tag -> None)
          ops
        |> List.sort_uniq compare
      in
      List.iter
        (fun key ->
          let local = List.map event_str (Store.extract_history reference key) in
          let cluster =
            List.map event_str (ok "history" (Cluster.Router.history router key))
          in
          if local <> cluster then
            QCheck.Test.fail_reportf "history parity: key %d: [%s] vs [%s]" key
              (String.concat "; " local) (String.concat "; " cluster))
        touched;
      (* snapshots: the latest cut and every tagged one equal the
         single store's extract *)
      if
        ok "snapshot" (Cluster.Router.snapshot router ())
        <> Store.extract_snapshot reference ()
      then QCheck.Test.fail_report "snapshot parity";
      for v = 1 to final do
        if
          ok "snapshot@v" (Cluster.Router.snapshot router ~version:v ())
          <> Store.extract_snapshot reference ~version:v ()
        then QCheck.Test.fail_reportf "snapshot parity at version %d" v
      done;
      true)

let parity =
  QCheck.Test.make ~count:8 ~name:"cluster parity with a single PSkipList" arb_ops
    parity_property

(* ---- cluster-wide tracing: one client op = one connected trace ----

   4 shards, shard 0 replicated to one backup. Every server (and the
   router, via [install]) records into one shared span ring, so the
   merged fleet trace must contain, for each routed op, a single trace
   id whose spans form one tree: router root -> srv.* per shard ->
   repl.forward -> backup srv.*. *)

let e2e_connected_trace () =
  let k = 4 and key_bits = 8 in
  let paths = Array.init k (sock_path "trace") in
  let b_path = sock_path "trace_b" k in
  let stores = Array.init k (fun _ -> fresh_store ()) in
  let backup_store = fresh_store () in
  let ring = Obs.Tracebuf.create ~capacity:8192 in
  Obs.Tracebuf.install ring;
  let backup =
    Net.Server.start ~store:backup_store ~workers:1 ~trace:ring
      ~epoch_cell:(Atomic.make 0)
      ~listen:(Net.Sockaddr.Unix_sock b_path) ()
  in
  let epoch_cell = Atomic.make 0 in
  let chain =
    Repl.Chain.create ~epoch_cell
      ~snapshot:(fun ?version () -> Store.extract_snapshot stores.(0) ?version ())
      ~current_version:(fun () -> Store.current_version stores.(0))
      [| Net.Sockaddr.Unix_sock b_path |]
  in
  let servers =
    Array.init k (fun i ->
        if i = 0 then
          Net.Server.start ~store:stores.(0) ~workers:1 ~trace:ring ~epoch_cell
            ~on_mutation:(Repl.Chain.on_mutation chain)
            ~listen:(Net.Sockaddr.Unix_sock paths.(0)) ()
        else
          Net.Server.start ~store:stores.(i) ~workers:1 ~trace:ring
            ~listen:(Net.Sockaddr.Unix_sock paths.(i)) ())
  in
  let topo =
    Cluster.Topology.create_replicated ~key_bits
      (Array.init k (fun i ->
           if i = 0 then
             [| Net.Sockaddr.Unix_sock paths.(0); Net.Sockaddr.Unix_sock b_path |]
           else [| Net.Sockaddr.Unix_sock paths.(i) |]))
  in
  let router = Cluster.Router.create ~retries:1 topo in
  Fun.protect
    ~finally:(fun () ->
      Cluster.Router.close router;
      Repl.Chain.close chain;
      Array.iter (fun s -> try Net.Server.stop s with _ -> ()) servers;
      (try Net.Server.stop backup with _ -> ());
      Array.iter (fun p -> try Sys.remove p with Sys_error _ -> ()) paths;
      try Sys.remove b_path with Sys_error _ -> ())
    (fun () ->
      (* first mutation runs the chain's initial catch-up; warm up so
         the traced insert below exercises the plain forward path *)
      ok "warm-up insert" (Cluster.Router.insert router ~key:1 ~value:1);
      ok "insert" (Cluster.Router.insert router ~key:2 ~value:42);
      let got =
        ok "find_bulk" (Cluster.Router.find_bulk router [| 2; 64; 128; 192 |])
      in
      check_bool "bulk sees the write" true (got.(0) = Some 42);
      let doc, skipped = Cluster.Router.fleet_trace ~clear:false ~local:ring router in
      check_int "no node skipped" 0 (List.length skipped);
      let events =
        match Obs.Json.member "traceEvents" doc with
        | Some (Obs.Json.List evs) -> evs
        | _ -> Alcotest.fail "merged trace has no traceEvents"
      in
      (* every span that carries a trace id, keyed by that id *)
      let arg name e =
        match Obs.Json.member "args" e with
        | Some args -> Obs.Json.member name args
        | None -> None
      in
      let traced =
        List.filter_map
          (fun e ->
            match (arg "trace" e, arg "span" e, arg "parent" e) with
            | Some (Obs.Json.String tr), Some (Obs.Json.Int span), Some (Obs.Json.Int parent)
              ->
                let name =
                  match Obs.Json.member "name" e with
                  | Some (Obs.Json.String n) -> n
                  | _ -> "?"
                in
                Some (tr, (name, span, parent))
            | _ -> None)
          events
      in
      let trace_ids = List.sort_uniq compare (List.map fst traced) in
      check_int "one trace per routed op" 3 (List.length trace_ids);
      (* each trace is one connected tree rooted at the router *)
      List.iter
        (fun tr ->
          let spans = List.filter_map
              (fun (t, s) -> if t = tr then Some s else None) traced
          in
          let ids = List.map (fun (_, span, _) -> span) spans in
          check_bool "span ids unique within the trace" true
            (List.length (List.sort_uniq compare ids) = List.length ids);
          let roots = List.filter (fun (_, _, parent) -> parent = 0) spans in
          (match roots with
          | [ (name, _, _) ] ->
              check_bool "root is a router span" true
                (String.length name >= 8 && String.sub name 0 8 = "cluster.")
          | rs -> Alcotest.failf "trace %s has %d roots" tr (List.length rs));
          List.iter
            (fun (name, _, parent) ->
              if parent <> 0 && not (List.mem parent ids) then
                Alcotest.failf "span %s in trace %s has unresolved parent %d" name
                  tr parent)
            spans)
        trace_ids;
      let names_of tr =
        List.filter_map (fun (t, (n, _, _)) -> if t = tr then Some n else None) traced
      in
      (* the replicated insert: primary and backup lanes plus the hop *)
      (match
         List.filter (fun tr -> List.mem "repl.forward" (names_of tr)) trace_ids
       with
      | [ tr ] ->
          let ns = names_of tr in
          check_int "insert span on the primary" 1
            (List.length (List.filter (fun n -> n = "srv.insert") ns));
          check_int "replicate span on the backup" 1
            (List.length (List.filter (fun n -> n = "srv.replicate") ns))
      | trs -> Alcotest.failf "%d traces contain repl.forward" (List.length trs));
      (* the fan-out read: one shard lane per key bucket *)
      match
        List.filter (fun tr -> List.mem "cluster.find_bulk" (names_of tr)) trace_ids
      with
      | [ tr ] ->
          check_int "find_bulk spans on all 4 shards" 4
            (List.length (List.filter (fun n -> n = "srv.find_bulk") (names_of tr)))
      | trs -> Alcotest.failf "%d find_bulk traces" (List.length trs))

let () =
  Watchdog.run "cluster"
    [
      ( "topology",
        [
          Alcotest.test_case "parse spec" `Quick topo_parse;
          Alcotest.test_case "to_string round-trips" `Quick topo_roundtrip;
          Alcotest.test_case "parse errors" `Quick topo_errors;
          Alcotest.test_case "replicated spec parses" `Quick topo_replicated_parse;
          Alcotest.test_case "promote rotates and bumps epoch" `Quick topo_promote;
          QCheck_alcotest.to_alcotest topo_qcheck_roundtrip;
          QCheck_alcotest.to_alcotest topo_qcheck_duplicate;
        ] );
      ( "e2e-4-shards",
        [
          Alcotest.test_case "routed ops land on owners" `Quick e2e_routed_ops;
          Alcotest.test_case "cluster-wide tag is one version" `Quick e2e_cluster_tag;
          Alcotest.test_case "find_bulk reassembles input order" `Quick e2e_find_bulk;
          Alcotest.test_case "batched writes bucket per shard; scan pages in order"
            `Quick e2e_batch_and_scan;
          Alcotest.test_case "snapshot naive = opt = expected" `Quick
            e2e_snapshot;
          Alcotest.test_case "cluster-wide compaction" `Quick e2e_cluster_compact;
          Alcotest.test_case "key_bits 61 reaches its last key; 62 is refused"
            `Quick e2e_widest_key_space;
          Alcotest.test_case "one client op yields one connected trace" `Quick
            e2e_connected_trace;
        ] );
      ( "failure",
        [
          Alcotest.test_case "shard down is typed; router recovers" `Quick
            e2e_shard_down_and_recover;
        ] );
      ("parity", [ QCheck_alcotest.to_alcotest parity ]);
    ]
