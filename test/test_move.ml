(* Tests for lib/cluster/move: live resharding against real shard
   servers on Unix-domain sockets. A single PSkipList twin receives the
   same mutations as the cluster; after every move/split/merge the
   resharded cluster must answer exactly like the twin — find and the
   distributed snapshot at every committed version, and per-key history
   with exact version stamps. Crash tests kill the coordinator at the
   fault hooks (mid-copy, under the seal, after the topology save) and
   re-run, relying on the skip-count idempotent install. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

module Store = Mvdict.Pskiplist.Make (Mvdict.Codec.Int_key) (Mvdict.Codec.Int_value)

let fresh_store () = Store.create (Pmem.Pheap.create_ram ~capacity:(1 lsl 22) ())

let ok what = function
  | Ok v -> v
  | Error e -> Alcotest.failf "%s: %s" what (Cluster.Router.error_to_string e)

let mok what = function
  | Ok v -> v
  | Error e -> Alcotest.failf "%s: %s" what (Cluster.Move.error_to_string e)

let sock_path tag i =
  Printf.sprintf "test_move_%s_%d_%d.sock" tag (Unix.getpid ()) i

(* [k] shards in the topology plus [spares] empty servers waiting to
   receive ranges; one topology file on disk that the coordinator
   rewrites and the router's [reload] closure re-reads. *)
let with_fleet ?(k = 3) ?(spares = 2) ?(key_bits = 8) ~tag f =
  let n = k + spares in
  let paths = Array.init n (sock_path tag) in
  let addrs = Array.map (fun p -> Net.Sockaddr.Unix_sock p) paths in
  let stores = Array.init n (fun _ -> fresh_store ()) in
  let servers =
    Array.init n (fun i ->
        Net.Server.start ~store:stores.(i) ~workers:1
          ~epoch_cell:(Atomic.make 0) ~listen:addrs.(i) ())
  in
  let topo = Cluster.Topology.create ~key_bits (Array.sub addrs 0 k) in
  let topo_file = Printf.sprintf "test_move_%s_%d.topo" tag (Unix.getpid ()) in
  (match Cluster.Topology.save topo topo_file with
  | Ok () -> ()
  | Error m -> Alcotest.failf "topology save: %s" m);
  let reload () = Result.to_option (Cluster.Topology.of_file topo_file) in
  let router = Cluster.Router.create ~retries:1 ~reload topo in
  Fun.protect
    ~finally:(fun () ->
      Cluster.Router.close router;
      Array.iter (fun s -> try Net.Server.stop s with _ -> ()) servers;
      Array.iter (fun p -> try Sys.remove p with Sys_error _ -> ()) paths;
      try Sys.remove topo_file with Sys_error _ -> ())
    (fun () -> f ~router ~topo_file ~addrs ~stores ~servers)

let load topo_file =
  match Cluster.Topology.of_file topo_file with
  | Ok t -> t
  | Error m -> Alcotest.failf "topology reload: %s" m

let event_str (v, e) =
  match e with
  | Mvdict.Dict_intf.Put x -> Printf.sprintf "v%d:put %d" v x
  | Mvdict.Dict_intf.Del -> Printf.sprintf "v%d:del" v

(* Full parity against the twin: every key and the whole snapshot at
   every committed version, and histories of every touched key. *)
let check_parity ?(fail = fun m -> Alcotest.fail m) router twin touched =
  let final = Store.current_version twin in
  let keys = Array.init 256 (fun i -> i) in
  let check_cut ?version () =
    let got = ok "find_bulk" (Cluster.Router.find_bulk router ?version keys) in
    Array.iteri
      (fun key g ->
        let want = Store.find twin ?version key in
        if g <> want then begin
          let show = function None -> "none" | Some v -> string_of_int v in
          let hist =
            match Cluster.Router.history router key with
            | Ok h -> String.concat "; " (List.map event_str h)
            | Error e -> Cluster.Router.error_to_string e
          in
          let twin_hist =
            String.concat "; " (List.map event_str (Store.extract_history twin key))
          in
          fail
            (Printf.sprintf
               "find parity: key %d at %s: cluster %s twin %s | cluster hist [%s] | twin hist [%s]"
               key
               (match version with None -> "now" | Some v -> string_of_int v)
               (show g) (show want) hist twin_hist)
        end)
      got
  in
  check_cut ();
  for v = 1 to final do
    check_cut ~version:v ()
  done;
  List.iter
    (fun key ->
      let local = List.map event_str (Store.extract_history twin key) in
      let cluster =
        List.map event_str (ok "history" (Cluster.Router.history router key))
      in
      if local <> cluster then
        fail
          (Printf.sprintf "history parity: key %d: [%s] vs [%s]" key
             (String.concat "; " local)
             (String.concat "; " cluster)))
    touched;
  if
    ok "snapshot" (Cluster.Router.snapshot router ())
    <> Store.extract_snapshot twin ()
  then fail "snapshot parity";
  for v = 1 to final do
    if
      ok "snapshot@v" (Cluster.Router.snapshot router ~version:v ())
      <> Store.extract_snapshot twin ~version:v ()
    then fail (Printf.sprintf "snapshot parity at version %d" v)
  done

(* Seed writes with per-key history: overwrites, tombstones, tags. *)
let seed router twin =
  let touched = ref [] in
  let ins key value =
    Store.insert twin key value;
    ok "insert" (Cluster.Router.insert router ~key ~value);
    touched := key :: !touched
  in
  let del key =
    Store.remove twin key;
    ok "remove" (Cluster.Router.remove router ~key);
    touched := key :: !touched
  in
  let tag () =
    let local = Store.tag twin in
    let cluster = ok "tag" (Cluster.Router.tag router) in
    check_int "tag parity" local cluster
  in
  for key = 0 to 255 do
    if key mod 3 = 0 then ins key (key * 10)
  done;
  tag ();
  for key = 0 to 255 do
    if key mod 6 = 0 then ins key (key * 100)
  done;
  for key = 0 to 255 do
    if key mod 9 = 0 then del key
  done;
  tag ();
  ins 100 7;
  del 100;
  ins 100 8;
  tag ();
  List.sort_uniq compare !touched

(* ---- deterministic: move a whole shard under no traffic ---- *)

let move_whole_shard () =
  with_fleet ~tag:"move" (fun ~router ~topo_file ~addrs ~stores ~servers ->
      let twin = fresh_store () in
      let touched = seed router twin in
      let topo = load topo_file in
      let epoch0 = Cluster.Topology.epoch topo in
      let lo, hi = Cluster.Topology.range topo 1 in
      let o =
        mok "move"
          (Cluster.Move.move ~topo_path:topo_file topo ~shard:1
             ~dest:[| addrs.(3) |] ())
      in
      check_int "epoch bumped" (epoch0 + 1) o.Cluster.Move.new_epoch;
      check_bool "events moved" true (o.Cluster.Move.events_copied > 0);
      check_bool "spare holds the range" true (Store.key_count stores.(3) > 0);
      let topo' = load topo_file in
      check_int "new epoch persisted" (epoch0 + 1) (Cluster.Topology.epoch topo');
      check_bool "range unchanged by move" true
        (Cluster.Topology.range topo' 1 = (lo, hi));
      check_bool "shard 1 now at the spare" true
        (Cluster.Topology.primary topo' 1 = addrs.(3));
      Cluster.Router.set_topology router topo';
      check_parity router twin touched;
      (* the old owner is not consulted any more: kill it, parity holds *)
      Net.Server.stop servers.(1);
      check_parity router twin touched;
      (* writes land on the new owner *)
      Store.insert twin lo 4242;
      ok "insert after move" (Cluster.Router.insert router ~key:lo ~value:4242);
      check_parity router twin touched)

(* ---- deterministic: split, then merge back ---- *)

let split_then_merge () =
  with_fleet ~tag:"split" (fun ~router ~topo_file ~addrs ~stores:_ ~servers:_ ->
      let twin = fresh_store () in
      let touched = seed router twin in
      let topo = load topo_file in
      let k0 = Cluster.Topology.shards topo in
      let lo, hi = Cluster.Topology.range topo 0 in
      let at = (lo + hi) / 2 in
      let o =
        mok "split"
          (Cluster.Move.split ~topo_path:topo_file topo ~shard:0 ~at
             ~dest:[| addrs.(3) |] ())
      in
      let topo' = load topo_file in
      check_int "one more shard" (k0 + 1) (Cluster.Topology.shards topo');
      check_bool "source keeps the lower half" true
        (Cluster.Topology.range topo' 0 = (lo, at));
      check_bool "new shard owns the upper half" true
        (Cluster.Topology.range topo' 1 = (at, hi));
      check_bool "new shard at the spare" true
        (Cluster.Topology.primary topo' 1 = addrs.(3));
      check_int "split epoch" (Cluster.Topology.epoch topo) (o.Cluster.Move.new_epoch - 1);
      Cluster.Router.set_topology router topo';
      check_parity router twin touched;
      (* fold it back into shard 0: the spare's chains return *)
      let o2 = mok "merge" (Cluster.Move.merge ~topo_path:topo_file topo' ~shard:0 ()) in
      check_bool "merge moved the events back" true
        (o2.Cluster.Move.events_copied > 0);
      let topo'' = load topo_file in
      check_int "shard count restored" k0 (Cluster.Topology.shards topo'');
      check_bool "range restored" true (Cluster.Topology.range topo'' 0 = (lo, hi));
      Cluster.Router.set_topology router topo'';
      check_parity router twin touched)

(* ---- crash matrix: kill the coordinator, re-run, parity ---- *)

exception Killed

let crash_and_resume () =
  with_fleet ~tag:"crash" (fun ~router ~topo_file ~addrs ~stores:_ ~servers:_ ->
      let twin = fresh_store () in
      let touched = seed router twin in
      let epoch0 = Cluster.Topology.epoch (load topo_file) in
      (* 1. killed mid-copy (after the first round shipped data): the
         destination holds a partial chain set; nothing is sealed, the
         topology is untouched. *)
      (match
         Cluster.Move.move ~topo_path:topo_file (load topo_file) ~shard:1
           ~dest:[| addrs.(3) |]
           ~notify:(fun p -> if p.Cluster.Move.phase = "copy" then raise Killed)
           ()
       with
      | exception Killed -> ()
      | Ok _ -> Alcotest.fail "move survived a mid-copy kill"
      | Error e -> Alcotest.failf "mid-copy kill: %s" (Cluster.Move.error_to_string e));
      check_int "topology untouched after mid-copy kill" epoch0
        (Cluster.Topology.epoch (load topo_file));
      check_parity router twin touched;
      (* resume: the re-run re-pulls from zero; the skip-count install
         dedups the half-shipped chains. *)
      let o =
        mok "resume after mid-copy kill"
          (Cluster.Move.move ~topo_path:topo_file (load topo_file) ~shard:1
             ~dest:[| addrs.(3) |] ())
      in
      check_int "resume completed" (epoch0 + 1) o.Cluster.Move.new_epoch;
      Cluster.Router.set_topology router (load topo_file);
      check_parity router twin touched;
      (* 2. killed under the seal (mid-cutover, before the save): the
         source range is sealed, topology unchanged. The re-run
         re-copies, re-asserts the seal, completes, unseals. *)
      (match
         Cluster.Move.split ~topo_path:topo_file (load topo_file) ~shard:0 ~at:40
           ~dest:[| addrs.(4) |]
           ~fault:(fun point -> if point = "sealed" then raise Killed)
           ()
       with
      | exception Killed -> ()
      | Ok _ -> Alcotest.fail "split survived a mid-cutover kill"
      | Error e ->
          Alcotest.failf "mid-cutover kill: %s" (Cluster.Move.error_to_string e));
      check_int "topology untouched after mid-cutover kill" (epoch0 + 1)
        (Cluster.Topology.epoch (load topo_file));
      let o =
        mok "resume after mid-cutover kill"
          (Cluster.Move.split ~topo_path:topo_file (load topo_file) ~shard:0
             ~at:40 ~dest:[| addrs.(4) |] ())
      in
      check_int "split completed on resume" (epoch0 + 2) o.Cluster.Move.new_epoch;
      Cluster.Router.set_topology router (load topo_file);
      check_parity router twin touched;
      (* writes to both halves of the split still work (and prove the
         seal was lifted by the resume) *)
      Store.insert twin 10 1111;
      ok "write lower half" (Cluster.Router.insert router ~key:10 ~value:1111);
      Store.insert twin 50 2222;
      ok "write upper half" (Cluster.Router.insert router ~key:50 ~value:2222);
      check_parity router twin touched;
      (* 3. killed after the topology save but before the unseal: the
         new map is durable and names the destination; the re-run takes
         the resume path (fence only, no copy). *)
      (match
         Cluster.Move.merge ~topo_path:topo_file (load topo_file) ~shard:0
           ~fault:(fun point -> if point = "saved" then raise Killed)
           ()
       with
      | exception Killed -> ()
      | Ok _ -> Alcotest.fail "merge survived a post-save kill"
      | Error e -> Alcotest.failf "post-save kill: %s" (Cluster.Move.error_to_string e));
      check_int "post-save kill persisted the merge" (epoch0 + 3)
        (Cluster.Topology.epoch (load topo_file));
      (* the merged-away data is already on the destination (final diff
         ran under the seal before the save), so parity already holds *)
      Cluster.Router.set_topology router (load topo_file);
      check_parity router twin touched;
      (* a whole-shard move re-run against the already-saved topology
         detects the no-op and only re-fences *)
      let topo = load topo_file in
      let dest = Cluster.Topology.replicas topo 0 in
      let o = mok "re-run of a published move" (
          Cluster.Move.move ~topo_path:topo_file topo ~shard:0 ~dest ()) in
      check_int "resume path: no rounds" 0 o.Cluster.Move.rounds;
      check_int "resume path: no copy" 0 o.Cluster.Move.events_copied;
      check_parity router twin touched)

(* ---- the source's horizon: below it a copy starts from a dropped range ---- *)

let counter name = Obs.Metric.value (Obs.Registry.counter name)

(* Keys 0-9 are copied in round 1, at watermark 1. Key 5 is then
   removed at version 2, 20 tags follow, and the source's retain
   ~keep:16 compacts at 5, which releases key 5: nothing above the
   watermark says it is gone. Round 2 must drop the destination's copy
   and copy from 0, or key 5 keeps reading 50 there. *)
let gc_between_rounds () =
  with_fleet ~k:1 ~spares:1 ~tag:"gcround"
    (fun ~router ~topo_file ~addrs ~stores ~servers:_ ->
      let twin = fresh_store () in
      let tag () = check_int "tag parity" (Store.tag twin) (ok "tag" (Cluster.Router.tag router)) in
      for key = 0 to 9 do
        Store.insert twin key (key * 10);
        ok "insert" (Cluster.Router.insert router ~key ~value:(key * 10))
      done;
      tag ();
      let after_round_1 (p : Cluster.Move.progress) =
        if p.phase = "copy" && p.round = 1 then begin
          Store.remove twin 5;
          ok "remove" (Cluster.Router.remove router ~key:5);
          for _ = 1 to 20 do
            tag ()
          done;
          check_int "the source compacts at 5" 5 (fst (Store.retain stores.(0) ~keep:16))
        end
      in
      let resets = counter "move.resets" in
      ignore
        (mok "move"
           (Cluster.Move.move ~notify:after_round_1 ~topo_path:topo_file (load topo_file)
              ~shard:0 ~dest:[| addrs.(1) |] ()));
      Cluster.Router.set_topology router (load topo_file);
      check_bool "key 5 is gone" true (ok "find" (Cluster.Router.find router 5) = None);
      let keys = Array.init 10 Fun.id in
      for version = 5 to Store.current_version twin do
        check_bool (Printf.sprintf "find at v%d" version) true
          (ok "find_bulk" (Cluster.Router.find_bulk router ~version keys)
          = Array.map (Store.find twin ~version) keys);
        check_bool (Printf.sprintf "snapshot at v%d" version) true
          (ok "snapshot" (Cluster.Router.snapshot router ~version ())
          = Store.extract_snapshot twin ~version ())
      done;
      check_int "one round dropped the destination's copy" 1 (counter "move.resets" - resets);
      check_int "the destination's horizon is the source's" 5 (Store.horizon stores.(1)))

(* A move killed after its copy rounds is re-run once the source's GC
   has dropped key 7's oldest event and key 7 has gained a newer one.
   The re-run's first round, from 0, is below the source's horizon, so
   it must start from a dropped copy: the skip count alone would set
   the destination's two events against the incoming two and install
   nothing, missing the newer event. *)
let rerun_after_source_gc () =
  with_fleet ~k:1 ~spares:1 ~tag:"gcrerun"
    (fun ~router ~topo_file ~addrs ~stores ~servers:_ ->
      let insert key value = ok "insert" (Cluster.Router.insert router ~key ~value) in
      let tag () = ignore (ok "tag" (Cluster.Router.tag router)) in
      let src = stores.(0) and dst = stores.(1) and dest = [| addrs.(1) |] in
      for key = 0 to 9 do
        insert key key
      done;
      tag ();
      insert 7 71;
      tag ();
      (match
         Cluster.Move.move ~topo_path:topo_file (load topo_file) ~shard:0 ~dest
           ~fault:(fun point -> if point = "pre_seal" then raise Killed)
           ()
       with
      | exception Killed -> ()
      | Ok _ -> Alcotest.fail "move survived its kill"
      | Error e -> Alcotest.failf "killed move: %s" (Cluster.Move.error_to_string e));
      check_int "the destination holds key 7's two events" 2
        (List.length (Store.extract_history dst 7));
      ignore (Store.compact src ~before:2);
      check_int "the source dropped the oldest" 1 (List.length (Store.extract_history src 7));
      insert 7 72;
      tag ();
      ignore (mok "re-run" (Cluster.Move.move ~topo_path:topo_file (load topo_file) ~shard:0 ~dest ()));
      for key = 0 to 9 do
        check_bool (Printf.sprintf "history of key %d" key) true
          (Store.extract_history dst key = Store.extract_history src key)
      done;
      for version = 1 to Store.current_version src do
        check_bool (Printf.sprintf "snapshot at v%d" version) true
          (Store.extract_snapshot dst ~version () = Store.extract_snapshot src ~version ())
      done)

(* ---- the rounds end once they stop shrinking ---- *)

(* After [seed]'s last tag each of shard 1's 86 keys gains one untagged
   event. Every round re-ships those 86 events above its watermark, the
   last tagged version, so no round ships fewer: the move must seal
   after round 3, not run to its 16-round cap. *)
let untagged_tail () =
  with_fleet ~tag:"tail" (fun ~router ~topo_file ~addrs ~stores:_ ~servers:_ ->
      let twin = fresh_store () in
      let touched = seed router twin in
      let topo = load topo_file in
      let lo, hi = Cluster.Topology.range topo 1 in
      let tail = List.init (hi - lo) (fun i -> lo + i) in
      List.iter
        (fun key ->
          Store.insert twin key (-key);
          ok "insert" (Cluster.Router.insert router ~key ~value:(-key)))
        tail;
      let o =
        mok "move"
          (Cluster.Move.move ~topo_path:topo_file topo ~shard:1 ~dest:[| addrs.(3) |] ())
      in
      check_bool
        (Printf.sprintf "%d rounds, at most 3" o.Cluster.Move.rounds)
        true (o.Cluster.Move.rounds <= 3);
      Cluster.Router.set_topology router (load topo_file);
      check_parity router twin (List.sort_uniq compare (tail @ touched)))

(* ---- routers that still hold the pre-split map ---- *)

(* Every key holds 1; then shard 1 of the 3-shard fleet splits at key
   129 onto a spare, so the ranges go from [0,86) [86,172) [172,256) to
   [0,86) [86,129) [129,172) [172,256). [stale] and [current] run [g] on
   a fresh router (with the reload closure) over the pre-split and the
   post-split map. Only the split's source and destination are fenced
   at epoch 1; shard 0 stays at epoch 0 until a router stamps it. *)
let with_split ~tag f =
  with_fleet ~tag (fun ~router ~topo_file ~addrs ~stores:_ ~servers:_ ->
      ok "seed" (Cluster.Router.insert_batch router (List.init 256 (fun key -> (key, 1))));
      let pre = load topo_file in
      ignore
        (mok "split"
           (Cluster.Move.split ~topo_path:topo_file pre ~shard:1 ~at:129
              ~dest:[| addrs.(3) |] ()));
      let post = load topo_file in
      check_bool "split ranges" true
        (List.init 4 (Cluster.Topology.range post)
        = [ (0, 86); (86, 129); (129, 172); (172, 256) ]);
      let on topo g =
        let reload () = Result.to_option (Cluster.Topology.of_file topo_file) in
        let r = Cluster.Router.create ~retries:1 ~reload topo in
        Fun.protect ~finally:(fun () -> Cluster.Router.close r) (fun () -> g r)
      in
      f ~stale:(on pre) ~current:(on post))

let batch_keys = [ 10; 100; 150; 200 ]

(* Shard 0 still at epoch 0: the batch acks shard 0's bucket, meets
   Bad_epoch at shard 1, is told Moved, and must resend only the
   unacked buckets; the scan must resume at shard 1's first key. *)
let stale_map_keeps_progress () =
  with_split ~tag:"stale0" (fun ~stale ~current ->
      let chases = counter "cluster.moved_chases" in
      stale (fun r ->
          ok "insert_batch"
            (Cluster.Router.insert_batch r (List.map (fun k -> (k, 2)) batch_keys)));
      check_int "the batch chased once" 1 (counter "cluster.moved_chases" - chases);
      let chases = counter "cluster.moved_chases" in
      let seen = ref [] and n = ref 0 in
      stale (fun r ->
          n :=
            ok "scan"
              (Cluster.Router.scan r ~lo:0 ~hi:256 (fun key _ -> seen := key :: !seen)));
      check_int "the scan chased once" 1 (counter "cluster.moved_chases" - chases);
      check_int "pairs scanned" 256 !n;
      check_bool "each pair once, in order" true (List.rev !seen = List.init 256 Fun.id);
      current (fun r ->
          List.iter
            (fun key ->
              let puts =
                List.filter
                  (fun (_, e) -> e = Mvdict.Dict_intf.Put 2)
                  (ok "history" (Cluster.Router.history r key))
              in
              check_int (Printf.sprintf "key %d holds one event from the batch" key) 1
                (List.length puts))
            batch_keys))

(* Shard 0 already at epoch 1: the batch reloads at shard 0, whose
   range survives, and its later buckets must not go out by their
   pre-split shard index. *)
let stale_map_renumbered () =
  with_split ~tag:"stale1" (fun ~stale ~current ->
      let keys = Array.of_list batch_keys in
      let values v = Array.make (Array.length keys) (Some v) in
      let check_values what want got =
        Alcotest.(check (array (option int))) what want got
      in
      current (fun r -> check_bool "key 10" true (ok "find" (Cluster.Router.find r 10) = Some 1));
      stale (fun r ->
          ok "insert_batch"
            (Cluster.Router.insert_batch r (List.map (fun k -> (k, 2)) batch_keys)));
      current (fun r ->
          check_values "the batch reads back through the new map" (values 2)
            (ok "find_bulk" (Cluster.Router.find_bulk r keys));
          Array.iter (fun key -> ok "insert" (Cluster.Router.insert r ~key ~value:3)) keys);
      stale (fun r ->
          check_values "a stale find_bulk reads the new owners" (values 3)
            (ok "find_bulk" (Cluster.Router.find_bulk r keys))))

(* ---- qcheck: random mutations concurrent with a reshard script ---- *)

type op = Insert of int * int | Remove of int | Tag

let pp_op = function
  | Insert (k, v) -> Printf.sprintf "insert %d %d" k v
  | Remove k -> Printf.sprintf "remove %d" k
  | Tag -> "tag"

let gen_ops =
  QCheck.Gen.(
    list_size (int_range 40 120)
      (frequency
         [
           (8, map2 (fun k v -> Insert (k, v)) (int_bound 255) small_signed_int);
           (3, map (fun k -> Remove k) (int_bound 255));
           (1, return Tag);
         ]))

let arb_ops =
  QCheck.make gen_ops ~print:(fun ops -> String.concat "; " (List.map pp_op ops))

let concurrent_parity ops =
  with_fleet ~tag:"qc" (fun ~router ~topo_file ~addrs ~stores:_ ~servers:_ ->
      let twin = fresh_store () in
      let failure = Atomic.make None in
      let fail_qc fmt =
        Printf.ksprintf (fun m -> QCheck.Test.fail_report m) fmt
      in
      (* The mutator is the only writer: it applies each op to the
         cluster (acked) and then to the twin, so the twin is exactly
         the acked history. Moved answers are chased inside the router;
         an error that survives the chase budget is a lost acked write
         path and fails the property. *)
      let mutator =
        Domain.spawn (fun () ->
            try
              List.iter
                (fun op ->
                  match op with
                  | Insert (key, value) ->
                      ok "insert" (Cluster.Router.insert router ~key ~value);
                      Store.insert twin key value
                  | Remove key ->
                      ok "remove" (Cluster.Router.remove router ~key);
                      Store.remove twin key
                  | Tag ->
                      let cluster = ok "tag" (Cluster.Router.tag router) in
                      let local = Store.tag twin in
                      if local <> cluster then
                        Alcotest.failf "tag parity: local %d cluster %d" local
                          cluster)
                ops
            with e -> Atomic.set failure (Some (Printexc.to_string e)))
      in
      (* Reshard while the mutator runs: move shard 1 to a spare, split
         shard 0, kill the split under the seal and resume it, then
         merge the split back. *)
      let step what r = ignore (mok what r) in
      step "move"
        (Cluster.Move.move ~topo_path:topo_file (load topo_file) ~shard:1
           ~dest:[| addrs.(3) |] ());
      (match
         Cluster.Move.split ~topo_path:topo_file (load topo_file) ~shard:0
           ~at:40 ~dest:[| addrs.(4) |]
           ~fault:(fun point -> if point = "sealed" then raise Killed)
           ()
       with
      | exception Killed -> ()
      | Ok _ -> fail_qc "split survived its kill"
      | Error e -> fail_qc "killed split: %s" (Cluster.Move.error_to_string e));
      step "resume split"
        (Cluster.Move.split ~topo_path:topo_file (load topo_file) ~shard:0
           ~at:40 ~dest:[| addrs.(4) |] ());
      step "merge"
        (Cluster.Move.merge ~topo_path:topo_file (load topo_file) ~shard:0 ());
      Domain.join mutator;
      (match Atomic.get failure with
      | Some m -> fail_qc "mutator failed: %s" m
      | None -> ());
      Cluster.Router.set_topology router (load topo_file);
      let touched =
        List.filter_map
          (function Insert (k, _) | Remove k -> Some k | Tag -> None)
          ops
        |> List.sort_uniq compare
      in
      check_parity ~fail:(fun m -> QCheck.Test.fail_report m) router twin
        touched;
      true)

let concurrent =
  QCheck.Test.make ~count:4
    ~name:"reshard under concurrent mutations keeps single-store parity"
    arb_ops concurrent_parity

let () =
  Watchdog.run "move"
    [
      ( "handoff",
        [
          Alcotest.test_case "move a whole shard" `Quick move_whole_shard;
          Alcotest.test_case "split then merge back" `Quick split_then_merge;
          Alcotest.test_case "coordinator crash + resume matrix" `Quick
            crash_and_resume;
        ] );
      ( "horizon",
        [
          Alcotest.test_case "a GC pass between rounds releases a removed key" `Quick
            gc_between_rounds;
          Alcotest.test_case "a re-run after source GC starts from a dropped copy" `Quick
            rerun_after_source_gc;
        ] );
      ( "rounds",
        [
          Alcotest.test_case "an untagged tail does not hold a move to its cap" `Quick
            untagged_tail;
        ] );
      ( "stale-map",
        [
          Alcotest.test_case "shard 0 at epoch 0: resend the remainder, resume the scan"
            `Quick stale_map_keeps_progress;
          Alcotest.test_case "shard 0 at epoch 1: later buckets follow the new map" `Quick
            stale_map_renumbered;
        ] );
      ("concurrent", [ QCheck_alcotest.to_alcotest concurrent ]);
    ]
