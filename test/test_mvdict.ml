(* Tests for lib/mvdict: codec, recovery, lazy-tail histories, and the
   three store implementations (shared conformance suite + PSkipList
   persistence/crash/restart specifics). *)

module IntMap = Map.Make (Int)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let heap_capacity = 1 lsl 24
let fresh_heap () = Pmem.Pheap.create_ram ~capacity:heap_capacity ()

(* Codec *)

let codec_int_inline_roundtrip () =
  let heap = fresh_heap () in
  let media = Pmem.Pheap.media heap in
  List.iter
    (fun v ->
      let w = Mvdict.Codec.encode (module Mvdict.Codec.Int_value) heap v in
      check_bool "inline words are odd" true (w land 1 = 1);
      check_int "roundtrip" v (Mvdict.Codec.decode (module Mvdict.Codec.Int_value) media w))
    [ 0; 1; 42; Mvdict.Codec.max_inline ]

let codec_int_blob_fallback () =
  let heap = fresh_heap () in
  let media = Pmem.Pheap.media heap in
  List.iter
    (fun v ->
      let w = Mvdict.Codec.encode (module Mvdict.Codec.Int_value) heap v in
      check_bool "blob words are even" true (w land 1 = 0 && w <> 0);
      check_int "roundtrip" v (Mvdict.Codec.decode (module Mvdict.Codec.Int_value) media w))
    [ -1; min_int; max_int ]

let codec_string_roundtrip () =
  let heap = fresh_heap () in
  let media = Pmem.Pheap.media heap in
  List.iter
    (fun s ->
      let w = Mvdict.Codec.encode (module Mvdict.Codec.String_value) heap s in
      Alcotest.(check string)
        "roundtrip" s
        (Mvdict.Codec.decode (module Mvdict.Codec.String_value) media w))
    [ ""; "x"; "a longer string with spaces"; String.make 1000 'z' ]

let codec_marker_distinct () =
  let heap = fresh_heap () in
  let w = Mvdict.Codec.encode (module Mvdict.Codec.Int_value) heap 0 in
  check_bool "encoded zero is not the marker" false (Mvdict.Codec.is_marker w);
  check_bool "marker is marker" true (Mvdict.Codec.is_marker Mvdict.Codec.marker_word)

(* Recovery (pure) *)

(* fc of the given stamps, added to a set bounded by their count. *)
let recover_fc ?floor stamps =
  let set = Mvdict.Recovery.stamps ?floor ~bound:(Array.length stamps) () in
  Array.iter (Mvdict.Recovery.add set) stamps;
  Mvdict.Recovery.recover_fc set

let recover_fc_cases () =
  check_int "empty" 0 (recover_fc [||]);
  check_int "complete" 4 (recover_fc [| 3; 1; 4; 2 |]);
  check_int "gap at 3" 2 (recover_fc [| 1; 2; 4; 5 |]);
  check_int "missing 1" 0 (recover_fc [| 2; 3 |]);
  check_int "duplicates tolerated" 2 (recover_fc [| 1; 1; 2 |]);
  check_int "zeros count for nothing" 3 (recover_fc [| 2; 3; 1; 0; 0 |]);
  check_int "stamps at or below the floor count as present" 7
    (recover_fc ~floor:5 [| 2; 7; 6 |]);
  check_int "gap above the floor" 6 (recover_fc ~floor:5 [| 3; 6; 8 |]);
  check_int "floor with no stamps above it" 5 (recover_fc ~floor:5 [| 1; 4 |]);
  check_int "floor alone" 5 (recover_fc ~floor:5 [||]);
  (* Descending stamps grow the bitmap at once to the highest; a gap
     past its first byte still ends the run. *)
  check_int "a run of 5,000 above the floor" 5_003
    (recover_fc ~floor:3 (Array.init 5_000 (fun i -> 5_003 - i)));
  check_int "gap at 4,100" 4_099
    (recover_fc (Array.init 5_000 (fun i -> if 5_000 - i = 4_100 then 0 else 5_000 - i)));
  let set = Mvdict.Recovery.stamps ~bound:2 () in
  List.iter (Mvdict.Recovery.add set) [ 1; 2; max_int ];
  check_int "a stamp past the bound is not kept" 2 (Mvdict.Recovery.recover_fc set)

let plan_blocks_partition () =
  (* Every block claimed exactly once across threads. *)
  let blocks = 13 and threads = 4 in
  let claimed = Array.make blocks 0 in
  for tid = 0 to threads - 1 do
    List.iter
      (fun b -> claimed.(b) <- claimed.(b) + 1)
      (Mvdict.Recovery.plan_blocks ~blocks ~threads ~tid)
  done;
  Array.iteri (fun i c -> check_int (Printf.sprintf "block %d" i) 1 c) claimed

(* Lazy-tail histories through the ephemeral backend *)

module EH = Mvdict.Ehistory.Make (struct
  type t = string
end)

let history_env () =
  let ctx = Mvdict.Version.create () in
  (ctx, Mvdict.Completion.create ctx)

(* [find]'s answer as the (version, value) entry its slot holds; [None]
   when no entry is visible at or below [version]. *)
let eh_find h ~ctx ~version =
  match EH.H.find () h ~ctx ~version with
  | -1 -> None
  | slot -> Some (EH.Backend.read_version () (EH.H.segs h) slot, EH.H.value () h slot)

let lazy_tail_basic () =
  let ctx, board = history_env () in
  let h = EH.create () in
  EH.H.append () h ~ctx ~board ~version:1 (Some "a");
  EH.H.append () h ~ctx ~board ~version:3 (Some "b");
  EH.H.append () h ~ctx ~board ~version:5 None;
  (match eh_find h ~ctx ~version:0 with
  | None -> ()
  | _ -> Alcotest.fail "version 0 must be absent");
  (match eh_find h ~ctx ~version:1 with
  | Some (1, Some "a") -> ()
  | _ -> Alcotest.fail "version 1");
  (match eh_find h ~ctx ~version:2 with
  | Some (1, Some "a") -> ()
  | _ -> Alcotest.fail "version 2 sees version 1");
  (match eh_find h ~ctx ~version:4 with
  | Some (3, Some "b") -> ()
  | _ -> Alcotest.fail "version 4 sees version 3");
  (match eh_find h ~ctx ~version:100 with
  | Some (5, None) -> ()
  | _ -> Alcotest.fail "latest is the removal marker")

let lazy_tail_is_lazy () =
  let ctx, board = history_env () in
  let h = EH.create () in
  EH.H.append () h ~ctx ~board ~version:1 (Some "a");
  EH.H.append () h ~ctx ~board ~version:2 (Some "b");
  check_int "tail starts at 0" 0 (EH.H.visible_length h);
  ignore (EH.H.find () h ~ctx ~version:1);
  (* Only what the query needed was exposed. *)
  check_int "tail advanced to 1" 1 (EH.H.visible_length h);
  ignore (EH.H.find () h ~ctx ~version:max_int);
  check_int "tail fully advanced" 2 (EH.H.visible_length h)

let lazy_tail_events () =
  let ctx, board = history_env () in
  let h = EH.create () in
  EH.H.append () h ~ctx ~board ~version:1 (Some "x");
  EH.H.append () h ~ctx ~board ~version:2 None;
  EH.H.append () h ~ctx ~board ~version:3 (Some "y");
  let evs = EH.H.events () h ~ctx ~since:0 in
  check_int "three events" 3 (List.length evs);
  check_bool "sequence" true
    (evs = [ (1, Some "x"); (2, None); (3, Some "y") ]);
  List.iter
    (fun (since, above) ->
      check_bool (Printf.sprintf "the events above %d" since) true
        (EH.H.events () h ~ctx ~since = above))
    [ (1, [ (2, None); (3, Some "y") ]); (2, [ (3, Some "y") ]); (3, []); (9, []) ]

let lazy_tail_growth () =
  let ctx, board = history_env () in
  let h = EH.create () in
  for v = 1 to 100 do
    EH.H.append () h ~ctx ~board ~version:v (Some (string_of_int v))
  done;
  (match eh_find h ~ctx ~version:57 with
  | Some (57, Some "57") -> ()
  | _ -> Alcotest.fail "growth must preserve all entries");
  check_int "pending" 100 (EH.H.pending_length h)

let lazy_tail_concurrent_appends () =
  let ctx, board = history_env () in
  let h = EH.create () in
  let threads = 4 and per = 500 in
  ignore
    (Concurrent.Parallel.run ~threads (fun _ ->
         for _ = 1 to per do
           let v = Mvdict.Version.stamp ctx in
           EH.H.append () h ~ctx ~board ~version:v (Some "v")
         done));
  let evs = EH.H.events () h ~ctx ~since:0 in
  check_int "all appends visible" (threads * per) (List.length evs);
  (* Versions must be non-decreasing in history order. *)
  let rec non_decreasing = function
    | (a, _) :: ((b, _) :: _ as rest) -> a <= b && non_decreasing rest
    | [ _ ] | [] -> true
  in
  check_bool "version monotonicity" true (non_decreasing evs)

let lazy_tail_fc_gates_visibility () =
  (* An entry whose stamp is above fc must stay invisible. We fabricate
     this by restoring a context whose fc is ahead, appending, and then
     checking a context whose fc is behind. *)
  let ctx = Mvdict.Version.create () in
  let board = Mvdict.Completion.create ctx in
  let h = EH.create () in
  EH.H.append () h ~ctx ~board ~version:1 (Some "a");
  (* fc caught up to 1 via the completion board *)
  check_int "fc advanced" 1 (Mvdict.Version.fc ctx);
  match eh_find h ~ctx ~version:10 with
  | Some (1, Some "a") -> ()
  | _ -> Alcotest.fail "published entry visible"

(* The completion ring bounds how far published stamps run ahead of fc.
   One stamp is taken and held while another domain publishes the next
   4,096: the ring takes them up to a lap past fc (stamps 2 to 4,095)
   and the publisher then waits, with fc behind the held stamp. Once
   that stamp is published, fc sweeps the whole run across the wrap. *)
let completion_ring_wraps () =
  let ctx, board = history_env () in
  let held = Mvdict.Version.next_completion ctx in
  let published = Atomic.make 0 in
  let publisher =
    Domain.spawn (fun () ->
        for _ = 1 to 4096 do
          Mvdict.Completion.publish board (Mvdict.Version.next_completion ctx);
          Atomic.incr published
        done)
  in
  while Atomic.get published < 4094 do
    Domain.cpu_relax ()
  done;
  Unix.sleepf 0.05;
  check_int "a lap past fc is published, then the publisher waits" 4094
    (Atomic.get published);
  check_int "fc stays behind the held stamp" 0 (Mvdict.Version.fc ctx);
  Mvdict.Completion.publish board held;
  Domain.join publisher;
  check_int "fc once the held stamp is published" 4097 (Mvdict.Version.fc ctx)

(* The board is one int array of 4,096 cells beside its two-field
   record, 4,100 words besides the clock it shares with the store; an
   Atomic box per cell made it 12,292. *)
let completion_footprint () =
  let ctx, board = history_env () in
  let own = Obj.reachable_words (Obj.repr board) - Obj.reachable_words (Obj.repr ctx) in
  check_bool
    (Printf.sprintf "the board keeps %d words besides its clock, at most 4,100" own)
    true (own <= 4100)

(* Shared conformance suite over Dict_intf.S *)

module type DICT = sig
  include Mvdict.Dict_intf.S with type key = int and type value = int

  val make : unit -> t
end

module Conformance (S : DICT) = struct
  let simple_insert_find () =
    let t = S.make () in
    S.insert t 1 100;
    ignore (S.tag t);
    check_bool "find" true (S.find t 1 = Some 100);
    check_bool "missing" true (S.find t 2 = None)

  let update_overwrites () =
    let t = S.make () in
    S.insert t 1 100;
    let v1 = S.tag t in
    S.insert t 1 200;
    let v2 = S.tag t in
    check_bool "current" true (S.find t 1 = Some 200);
    check_bool "v1 snapshot" true (S.find t ~version:v1 1 = Some 100);
    check_bool "v2 snapshot" true (S.find t ~version:v2 1 = Some 200)

  let remove_hides () =
    let t = S.make () in
    S.insert t 7 70;
    let v1 = S.tag t in
    S.remove t 7;
    let v2 = S.tag t in
    check_bool "removed now" true (S.find t 7 = None);
    check_bool "still in v1" true (S.find t ~version:v1 7 = Some 70);
    check_bool "gone in v2" true (S.find t ~version:v2 7 = None)

  let remove_then_reinsert () =
    let t = S.make () in
    S.insert t 7 70;
    let v1 = S.tag t in
    S.remove t 7;
    let v2 = S.tag t in
    S.insert t 7 77;
    let v3 = S.tag t in
    check_bool "v1" true (S.find t ~version:v1 7 = Some 70);
    check_bool "v2" true (S.find t ~version:v2 7 = None);
    check_bool "v3" true (S.find t ~version:v3 7 = Some 77)

  let snapshot_versioning () =
    let t = S.make () in
    S.insert t 1 10;
    S.insert t 2 20;
    let v1 = S.tag t in
    S.remove t 1;
    S.insert t 3 30;
    let v2 = S.tag t in
    let s1 = S.extract_snapshot t ~version:v1 () in
    let s2 = S.extract_snapshot t ~version:v2 () in
    Alcotest.(check (array (pair int int))) "snapshot v1" [| (1, 10); (2, 20) |] s1;
    Alcotest.(check (array (pair int int))) "snapshot v2" [| (2, 20); (3, 30) |] s2

  let snapshot_sorted_big () =
    let t = S.make () in
    let keys = Workload.Keygen.unique_keys ~seed:21 3000 in
    Array.iter
      (fun k ->
        S.insert t k (k * 3);
        ignore (S.tag t))
      keys;
    let snap = S.extract_snapshot t () in
    check_int "size" 3000 (Array.length snap);
    let sorted = Array.copy keys in
    Array.sort compare sorted;
    let ok = ref true in
    Array.iteri
      (fun i (k, v) -> if sorted.(i) <> k || v <> k * 3 then ok := false)
      snap;
    check_bool "sorted keys with right values" true !ok

  let history_records_events () =
    let t = S.make () in
    S.insert t 5 50;
    let v1 = S.tag t in
    S.remove t 5;
    let v2 = S.tag t in
    S.insert t 5 55;
    let v3 = S.tag t in
    let history = S.extract_history t 5 in
    check_bool "history" true
      (history
      = [ (v1, Mvdict.Dict_intf.Put 50); (v2, Mvdict.Dict_intf.Del);
          (v3, Mvdict.Dict_intf.Put 55) ]);
    check_bool "unknown key empty history" true (S.extract_history t 424242 = [])

  let version_zero_empty () =
    let t = S.make () in
    S.insert t 1 10;
    ignore (S.tag t);
    check_bool "version 0 sees nothing" true (S.find t ~version:0 1 = None);
    check_int "snapshot 0 empty" 0 (Array.length (S.extract_snapshot t ~version:0 ()))

  let untagged_ops_visible_in_current () =
    let t = S.make () in
    S.insert t 9 90;
    (* no tag yet *)
    check_bool "current state includes pending ops" true (S.find t 9 = Some 90);
    check_int "current_version still 0" 0 (S.current_version t)

  let tag_monotonic () =
    let t = S.make () in
    let v1 = S.tag t in
    let v2 = S.tag t in
    let v3 = S.tag t in
    check_bool "increasing" true (v1 < v2 && v2 < v3);
    check_int "current" v3 (S.current_version t)

  let key_count_tracks_distinct_keys () =
    let t = S.make () in
    S.insert t 1 1;
    S.insert t 2 2;
    S.insert t 1 10;
    S.remove t 2;
    ignore (S.tag t);
    check_int "distinct keys" 2 (S.key_count t)

  let range_queries () =
    let t = S.make () in
    List.iter (fun k -> S.insert t k (k * 10)) [ 1; 3; 5; 7; 9 ];
    let v1 = S.tag t in
    S.remove t 5;
    S.insert t 4 40;
    let v2 = S.tag t in
    let collect version lo hi =
      let acc = ref [] in
      S.iter_range t ~version ~lo ~hi (fun k v -> acc := (k, v) :: !acc);
      List.rev !acc
    in
    check_bool "v1 range [3,8)" true
      (collect v1 3 8 = [ (3, 30); (5, 50); (7, 70) ]);
    check_bool "v2 range [3,8)" true
      (collect v2 3 8 = [ (3, 30); (4, 40); (7, 70) ]);
    check_bool "empty range" true (collect v2 5 5 = []);
    check_bool "range beyond keys" true (collect v2 100 200 = []);
    check_bool "full range = snapshot" true
      (Array.of_list (collect v2 0 max_int) = S.extract_snapshot t ~version:v2 ())

  let remove_absent_key_harmless () =
    let t = S.make () in
    S.remove t 404;
    ignore (S.tag t);
    check_bool "still absent" true (S.find t 404 = None);
    check_int "snapshot empty" 0 (Array.length (S.extract_snapshot t ()))

  let model_check_random_program () =
    (* Replay a random op sequence against a pure model keeping every
       snapshot, then compare all snapshots. *)
    let rng = Workload.Mt19937.create 777 in
    let t = S.make () in
    let model = ref IntMap.empty in
    let snapshots = ref [] in
    for _ = 1 to 2000 do
      let k = Workload.Mt19937.next_int rng 50 in
      (match Workload.Mt19937.next_int rng 3 with
      | 0 | 1 ->
          let v = Workload.Mt19937.next_int rng 1000 in
          S.insert t k v;
          model := IntMap.add k v !model
      | _ ->
          S.remove t k;
          model := IntMap.remove k !model);
      let version = S.tag t in
      snapshots := (version, !model) :: !snapshots
    done;
    List.iter
      (fun (version, m) ->
        let got = Array.to_list (S.extract_snapshot t ~version ()) in
        if got <> IntMap.bindings m then
          Alcotest.failf "snapshot %d diverged from model" version)
      (List.filteri (fun i _ -> i mod 97 = 0) !snapshots)

  let concurrent_disjoint_inserts () =
    let t = S.make () in
    let threads = 4 and per = 500 in
    ignore
      (Concurrent.Parallel.run ~threads (fun tid ->
           for i = 0 to per - 1 do
             let k = (i * threads) + tid in
             S.insert t k (k * 2);
             ignore (S.tag t)
           done));
    let snap = S.extract_snapshot t () in
    check_int "all inserted" (threads * per) (Array.length snap);
    check_bool "values" true (Array.for_all (fun (k, v) -> v = k * 2) snap)

  let concurrent_mixed_ops_converge () =
    let t = S.make () in
    let threads = 4 and per = 300 in
    ignore
      (Concurrent.Parallel.run ~threads (fun tid ->
           (* Each thread owns a disjoint key range: insert, remove, re-insert. *)
           let base = tid * per in
           for i = 0 to per - 1 do
             S.insert t (base + i) i;
             ignore (S.tag t)
           done;
           for i = 0 to per - 1 do
             if i mod 2 = 0 then begin
               S.remove t (base + i);
               ignore (S.tag t)
             end
           done));
    let snap = S.extract_snapshot t () in
    check_int "odd keys survive" (threads * per / 2) (Array.length snap)

  let batch_insert_visible () =
    let t = S.make () in
    S.insert_batch t [ (3, 30); (1, 10); (2, 20) ];
    let v1 = S.tag t in
    check_bool "all visible" true
      (S.find t 1 = Some 10 && S.find t 2 = Some 20 && S.find t 3 = Some 30);
    Alcotest.(check (array (pair int int)))
      "sorted snapshot" [| (1, 10); (2, 20); (3, 30) |]
      (S.extract_snapshot t ~version:v1 ())

  let batch_duplicate_last_wins () =
    let t = S.make () in
    S.insert_batch t [ (5, 1); (5, 2); (5, 3) ];
    ignore (S.tag t);
    check_bool "last duplicate wins" true (S.find t 5 = Some 3);
    check_int "single history event" 1 (List.length (S.extract_history t 5))

  let batch_remove_hides () =
    let t = S.make () in
    S.insert_batch t [ (1, 10); (2, 20); (3, 30) ];
    let v1 = S.tag t in
    S.remove_batch t [ 2; 404; 3; 2 ];
    let v2 = S.tag t in
    check_bool "removed" true (S.find t 2 = None && S.find t 3 = None);
    check_bool "kept" true (S.find t 1 = Some 10);
    check_bool "v1 intact" true (S.find t ~version:v1 2 = Some 20);
    check_bool "v2 gone" true (S.find t ~version:v2 3 = None)

  let batch_empty_noop () =
    let t = S.make () in
    S.insert_batch t [];
    S.remove_batch t [];
    ignore (S.tag t);
    check_int "still empty" 0 (Array.length (S.extract_snapshot t ()))

  let batch_matches_singles () =
    (* One store driven by batches, a twin by the equivalent single-key
       ops: every observation must agree. *)
    let a = S.make () and b = S.make () in
    let i1 = [ (9, 90); (4, 40); (7, 70); (1, 11) ] in
    S.insert_batch a i1;
    List.iter (fun (k, v) -> S.insert b k v) i1;
    let va1 = S.tag a and vb1 = S.tag b in
    S.remove_batch a [ 4; 9 ];
    List.iter (fun k -> S.remove b k) [ 4; 9 ];
    S.insert_batch a [ (2, 22); (7, 77) ];
    List.iter (fun (k, v) -> S.insert b k v) [ (2, 22); (7, 77) ];
    let va2 = S.tag a and vb2 = S.tag b in
    check_int "same versions" va1 vb1;
    check_int "same versions 2" va2 vb2;
    List.iter
      (fun v ->
        Alcotest.(check (array (pair int int)))
          (Printf.sprintf "snapshot v%d" v)
          (S.extract_snapshot b ~version:v ())
          (S.extract_snapshot a ~version:v ()))
      [ va1; va2 ];
    for k = 0 to 10 do
      check_bool "find agrees" true (S.find a k = S.find b k);
      check_bool "history agrees" true
        (S.extract_history a k = S.extract_history b k)
    done

  let tests name =
    [
      Alcotest.test_case (name ^ ": insert/find") `Quick simple_insert_find;
      Alcotest.test_case (name ^ ": update overwrites") `Quick update_overwrites;
      Alcotest.test_case (name ^ ": remove hides") `Quick remove_hides;
      Alcotest.test_case (name ^ ": remove/reinsert") `Quick remove_then_reinsert;
      Alcotest.test_case (name ^ ": snapshot versioning") `Quick snapshot_versioning;
      Alcotest.test_case (name ^ ": snapshot sorted") `Quick snapshot_sorted_big;
      Alcotest.test_case (name ^ ": history events") `Quick history_records_events;
      Alcotest.test_case (name ^ ": version 0") `Quick version_zero_empty;
      Alcotest.test_case (name ^ ": untagged visible") `Quick untagged_ops_visible_in_current;
      Alcotest.test_case (name ^ ": tag monotonic") `Quick tag_monotonic;
      Alcotest.test_case (name ^ ": key_count") `Quick key_count_tracks_distinct_keys;
      Alcotest.test_case (name ^ ": range queries") `Quick range_queries;
      Alcotest.test_case (name ^ ": remove absent") `Quick remove_absent_key_harmless;
      Alcotest.test_case (name ^ ": batch insert visible") `Quick batch_insert_visible;
      Alcotest.test_case (name ^ ": batch duplicate last wins") `Quick
        batch_duplicate_last_wins;
      Alcotest.test_case (name ^ ": batch remove hides") `Quick batch_remove_hides;
      Alcotest.test_case (name ^ ": batch empty noop") `Quick batch_empty_noop;
      Alcotest.test_case (name ^ ": batch matches singles") `Quick
        batch_matches_singles;
      Alcotest.test_case (name ^ ": model check") `Slow model_check_random_program;
      Alcotest.test_case (name ^ ": concurrent disjoint") `Quick concurrent_disjoint_inserts;
      Alcotest.test_case (name ^ ": concurrent mixed") `Quick concurrent_mixed_ops_converge;
    ]
end

module PStore = Mvdict.Pskiplist.Make (Mvdict.Codec.Int_key) (Mvdict.Codec.Int_value)

module P = struct
  include PStore

  let make () = create (fresh_heap ())
end

module E = struct
  include Mvdict.Eskiplist

  let make () = create ()
end

module L = struct
  include Mvdict.Locked_map

  let make () = create ()
end

module PC = Conformance (P)
module EC = Conformance (E)
module LC = Conformance (L)

module SR = struct
  include Minidb.Sql_store.Reg

  let make () = create ()
end

module SM = struct
  include Minidb.Sql_store.Mem

  let make () = create ()
end

module SRC = Conformance (SR)
module SMC = Conformance (SM)

(* A find racing a growth of the same key. [writers] domains append
   rounds to one key after another while a reader domain keeps finding
   the key being written, so its walk of the claimed slots often meets
   a slot whose owner is still growing the history. Writer [w] writes
   [key * 1_000_000 + round * 2 + w] and announces each round before
   its insert, so every answer must decode to the key and a round some
   writer has begun. *)
let find_races_growth (module S : DICT) ~writers () =
  let t = S.make () in
  let keys = 256 and rounds = 128 in
  let current = Atomic.make 0 in
  let begun = Array.init writers (fun _ -> Array.init keys (fun _ -> Atomic.make 0)) in
  let done_writers = Atomic.make 0 in
  let wrong = Atomic.make 0 and raised = Atomic.make 0 and first = Atomic.make "" in
  let note counter what =
    if Atomic.fetch_and_add counter 1 = 0 then ignore (Atomic.compare_and_set first "" what)
  in
  let reader =
    Domain.spawn (fun () ->
        while Atomic.get done_writers < writers do
          let k = Atomic.get current in
          match S.find t k with
          | None -> ()
          | Some v ->
              let round = v mod 1_000_000 / 2 and w = v mod 2 in
              if v / 1_000_000 <> k || w >= writers || round < 1
                 || round > Atomic.get begun.(w).(k)
              then note wrong (Printf.sprintf "key %d answered %d" k v)
          | exception e -> note raised (Printexc.to_string e)
        done)
  in
  let writer w =
    Domain.spawn (fun () ->
        for k = 0 to keys - 1 do
          if w = 0 then Atomic.set current k;
          for round = 1 to rounds do
            Atomic.set begun.(w).(k) round;
            S.insert t k ((k * 1_000_000) + (round * 2) + w)
          done
        done;
        Atomic.incr done_writers)
  in
  List.iter Domain.join (List.init writers writer);
  Domain.join reader;
  check_int
    (Printf.sprintf "finds that raised (first: %s)" (Atomic.get first))
    0 (Atomic.get raised);
  check_int
    (Printf.sprintf "finds that answered a value never written (first: %s)"
       (Atomic.get first))
    0 (Atomic.get wrong);
  check_bool "every key holds its last round" true
    (List.for_all
       (fun k -> match S.find t k with Some v -> v / 1_000_000 = k | None -> false)
       (List.init keys Fun.id))

(* PSkipList specifics: persistence, restart, parallel reconstruction,
   crash consistency. *)

let pskiplist_restart_preserves_data () =
  let heap = fresh_heap () in
  let t = PStore.create heap in
  PStore.insert t 1 10;
  PStore.insert t 2 20;
  let v1 = PStore.tag t in
  PStore.remove t 1;
  let v2 = PStore.tag t in
  (* Reopen the same heap as a restarted process would. *)
  let t2 = PStore.open_existing (Pmem.Pheap.reopen heap) in
  check_bool "v1 find" true (PStore.find t2 ~version:v1 1 = Some 10);
  check_bool "v2 removed" true (PStore.find t2 ~version:v2 1 = None);
  check_bool "key 2" true (PStore.find t2 2 = Some 20);
  check_int "current version recovered" 2 (PStore.current_version t2);
  let history = PStore.extract_history t2 1 in
  check_bool "history recovered" true
    (history = [ (v1, Mvdict.Dict_intf.Put 10); (v2, Mvdict.Dict_intf.Del) ])

let pskiplist_restart_large_parallel () =
  let heap = Pmem.Pheap.create_ram ~capacity:(1 lsl 26) () in
  let t = PStore.create heap in
  let n = 20_000 in
  let keys = Workload.Keygen.unique_keys ~seed:4 n in
  Array.iter
    (fun k ->
      PStore.insert t k (k land 0xffff);
      ignore (PStore.tag t))
    keys;
  List.iter
    (fun threads ->
      let t2 = PStore.open_existing ~threads (Pmem.Pheap.reopen heap) in
      check_int
        (Printf.sprintf "all keys (threads=%d)" threads)
        n (PStore.key_count t2);
      let snap = PStore.extract_snapshot t2 () in
      check_int "snapshot size" n (Array.length snap);
      let prev = ref min_int and ok = ref true in
      Array.iter
        (fun (k, v) ->
          if k <= !prev || v <> k land 0xffff then ok := false;
          prev := k)
        snap;
      check_bool "sorted with right values" true !ok)
    [ 1; 4 ]

let pskiplist_store_continues_after_restart () =
  let heap = fresh_heap () in
  let t = PStore.create heap in
  PStore.insert t 1 10;
  let v1 = PStore.tag t in
  let t2 = PStore.open_existing (Pmem.Pheap.reopen heap) in
  PStore.insert t2 1 11;
  PStore.insert t2 2 22;
  let v2 = PStore.tag t2 in
  check_bool "old version intact" true (PStore.find t2 ~version:v1 1 = Some 10);
  check_bool "new op visible" true (PStore.find t2 ~version:v2 1 = Some 11);
  check_bool "new key" true (PStore.find t2 2 = Some 22);
  check_bool "versions strictly increase across restarts" true (v2 > v1)

(* A write to an existing key resolves its history with the read-only
   index find: no insert-side search arrays (two max_level-slot arrays)
   and no closure per descended level. *)
let pskiplist_insert_existing_allocation () =
  let t = PStore.create (fresh_heap ()) in
  let keys = 1_000 and rounds = 10 in
  for k = 0 to keys - 1 do
    PStore.insert t k k
  done;
  let w0 = Gc.minor_words () in
  for r = 1 to rounds do
    for k = 0 to keys - 1 do
      PStore.insert t k (k + r)
    done
  done;
  let per_call = (Gc.minor_words () -. w0) /. float_of_int (keys * rounds) in
  check_bool
    (Printf.sprintf "%.1f words per insert into an existing key, < 100" per_call)
    true (per_call < 100.0)

(* A find hit reads the history's version and stamp words in place: it
   allocates the index's [Some] and its own, and no tuple, entry or
   closure per record read, nor a closure for the store's gate. *)
let pskiplist_find_allocation () =
  let t = PStore.create (fresh_heap ()) in
  let keys = 1_000 in
  for r = 1 to 4 do
    for k = 0 to keys - 1 do
      PStore.insert t k (k + r)
    done;
    ignore (PStore.tag t)
  done;
  let hits = 10_000 in
  let w0 = Gc.minor_words () in
  for i = 1 to hits do
    ignore (Sys.opaque_identity (PStore.find t (i mod keys)))
  done;
  let w1 = Gc.minor_words () in
  check_bool
    (Printf.sprintf "a find hit allocates at most its two options (%.0f words for %d)"
       (w1 -. w0) hits)
    true
    (w1 -. w0 <= (4.0 *. float_of_int hits) +. 64.0)

(* A pull lists only the events above its [since]: at 100,000 keys, a
   pull that ships one key's one event allocates that page, and
   nothing for the keys it skips, so its cost follows the gap. *)
let pull_allocation () =
  let t = PStore.create (Pmem.Pheap.create_ram ~capacity:(1 lsl 25) ()) in
  let keys = 100_000 in
  for b = 0 to (keys / 1_000) - 1 do
    PStore.insert_batch t (List.init 1_000 (fun i -> ((1_000 * b) + i, i)))
  done;
  let since = PStore.tag t in
  PStore.insert t 77 1;
  let w0 = Gc.minor_words () in
  let page = PStore.pull_chains t ~lo:0 ~hi:keys ~since ~limit:0 in
  let words = Gc.minor_words () -. w0 in
  check_bool "the page holds key 77's one event" true
    (page = [ (77, [ (since + 1, Mvdict.Dict_intf.Put 1) ]) ]);
  check_bool
    (Printf.sprintf "a pull of one event over %d keys allocates %.0f words, under 1,000"
       keys words)
    true (words < 1_000.)

let crash_heap () =
  let media = Pmem.Media.create_ram ~crash_sim:true ~capacity:(1 lsl 24) () in
  (media, Pmem.Pheap.create media)

let pskiplist_crash_consistency () =
  let media, heap = crash_heap () in
  let t = PStore.create heap in
  for k = 1 to 100 do
    PStore.insert t k (k * 10);
    ignore (PStore.tag t)
  done;
  (* Everything the store persisted survives a power failure. *)
  Pmem.Media.simulate_crash media;
  let t2 = PStore.open_existing ~threads:2 (Pmem.Pheap.reopen heap) in
  check_int "all keys recovered" 100 (PStore.key_count t2);
  let ok = ref true in
  for k = 1 to 100 do
    if PStore.find t2 k <> Some (k * 10) then ok := false
  done;
  check_bool "all values recovered" true !ok

let pskiplist_crash_prunes_torn_append () =
  let media, heap = crash_heap () in
  let t = PStore.create heap in
  PStore.insert t 1 10;
  ignore (PStore.tag t);
  (* Hand-tear the next append: write a history entry whose completion
     stamp is persisted but with a missing earlier stamp — recovery must
     prune it. We emulate by directly poking a bogus record. *)
  let raw = PStore.history_words t 1 in
  check_int "one persisted entry" 1 (Array.length raw);
  Pmem.Media.simulate_crash media;
  let t2 = PStore.open_existing (Pmem.Pheap.reopen heap) in
  check_bool "entry intact" true (PStore.find t2 1 = Some 10);
  check_int "fc recovered to 1" 1 (PStore.recovered_fc t2)

let pskiplist_recovery_skips_out_of_order_stamp () =
  (* Build two keys, crash, and verify fc/pruning semantics via the raw
     stamps: all stamps contiguous -> everything retained. *)
  let media, heap = crash_heap () in
  let t = PStore.create heap in
  PStore.insert t 1 10;
  PStore.insert t 2 20;
  PStore.insert t 1 11;
  ignore (PStore.tag t);
  Pmem.Media.simulate_crash media;
  let t2 = PStore.open_existing (Pmem.Pheap.reopen heap) in
  check_int "fc = 3 (three completions)" 3 (PStore.recovered_fc t2);
  check_bool "key1 latest" true (PStore.find t2 1 = Some 11);
  check_bool "key2" true (PStore.find t2 2 = Some 20)

let pskiplist_blob_values () =
  (* Negative ints exercise the blob path end-to-end, incl. restart. *)
  let heap = fresh_heap () in
  let t = PStore.create heap in
  PStore.insert t 1 (-42);
  PStore.insert t 2 min_int;
  ignore (PStore.tag t);
  check_bool "negative roundtrip" true (PStore.find t 1 = Some (-42));
  let t2 = PStore.open_existing (Pmem.Pheap.reopen heap) in
  check_bool "blob survives restart" true (PStore.find t2 2 = Some min_int)

module PString =
  Mvdict.Pskiplist.Make (Mvdict.Codec.String_key) (Mvdict.Codec.String_value)

let pskiplist_string_store () =
  let heap = fresh_heap () in
  let t = PString.create heap in
  PString.insert t "layer/conv1" "weights-v1";
  PString.insert t "layer/conv2" "weights-v1";
  let v1 = PString.tag t in
  PString.insert t "layer/conv1" "weights-v2";
  ignore (PString.tag t);
  check_bool "current" true (PString.find t "layer/conv1" = Some "weights-v2");
  check_bool "snapshot v1" true
    (PString.find t ~version:v1 "layer/conv1" = Some "weights-v1");
  let t2 = PString.open_existing (Pmem.Pheap.reopen heap) in
  let snap = PString.extract_snapshot t2 () in
  check_int "two keys" 2 (Array.length snap);
  check_bool "sorted by string key" true (fst snap.(0) < fst snap.(1))

let qcheck_store_agreement =
  (* The persistent store and the ephemeral stores must agree on every
     snapshot of any random program. *)
  let open QCheck in
  let op_gen =
    Gen.(
      pair (int_bound 30)
        (oneof [ map (fun v -> Some v) (int_bound 500); return None ]))
  in
  Test.make ~name:"PSkipList/ESkipList/LockedMap agree on snapshots" ~count:40
    (make Gen.(list_size (int_bound 200) op_gen))
    (fun ops ->
      let p = P.make () and e = E.make () and l = L.make () in
      let versions =
        List.map
          (fun (k, op) ->
            (match op with
            | Some v ->
                P.insert p k v;
                E.insert e k v;
                L.insert l k v
            | None ->
                P.remove p k;
                E.remove e k;
                L.remove l k);
            let vp = P.tag p and ve = E.tag e and vl = L.tag l in
            assert (vp = ve && ve = vl);
            vp)
          ops
      in
      List.for_all
        (fun version ->
          let sp = P.extract_snapshot p ~version () in
          let se = E.extract_snapshot e ~version () in
          let sl = L.extract_snapshot l ~version () in
          sp = se && se = sl)
        versions)

let pskiplist_file_backed_pool () =
  (* End-to-end over a real mmapped pool file, as the CLI uses. *)
  let path = Filename.temp_file "mvkv_test" ".pool" in
  let heap = Pmem.Pheap.create_file ~path ~capacity:(1 lsl 22) in
  let t = PStore.create heap in
  for k = 1 to 500 do
    PStore.insert t k (k * 3);
    ignore (PStore.tag t)
  done;
  PStore.remove t 250;
  ignore (PStore.tag t);
  Pmem.Pheap.close heap;
  (* Fresh mapping of the same file: a true process-restart analogue. *)
  let heap2 = Pmem.Pheap.open_file ~path in
  let t2 = PStore.open_existing ~threads:2 heap2 in
  check_int "keys" 500 (PStore.key_count t2);
  check_bool "value" true (PStore.find t2 123 = Some 369);
  check_bool "removal persisted" true (PStore.find t2 250 = None);
  check_bool "pre-removal snapshot" true (PStore.find t2 ~version:500 250 = Some 750);
  Pmem.Pheap.close heap2;
  Sys.remove path

(* Compaction (offline GC) *)

let compact_preserves_recent_snapshots () =
  let heap = fresh_heap () in
  let t = PStore.create heap in
  PStore.insert t 1 10;
  PStore.insert t 2 20;
  let v1 = PStore.tag t in
  PStore.insert t 1 11;
  PStore.remove t 2;
  let v2 = PStore.tag t in
  PStore.insert t 1 12;
  PStore.insert t 3 30;
  let v3 = PStore.tag t in
  let snap_v2 = PStore.extract_snapshot t ~version:v2 () in
  let snap_v3 = PStore.extract_snapshot t ~version:v3 () in
  let dropped = PStore.compact t ~before:v2 in
  (* v1 states for keys 1 and 2 are superseded at v2: both dropped (the
     key-2 floor is a marker, dropped as well). *)
  check_int "dropped" 3 dropped;
  check_bool "v2 intact" true (PStore.extract_snapshot t ~version:v2 () = snap_v2);
  check_bool "v3 intact" true (PStore.extract_snapshot t ~version:v3 () = snap_v3);
  check_bool "current intact" true (PStore.find t 1 = Some 12);
  check_bool "v1 unfaithful now (key 1 reads as absent)" true
    (PStore.find t ~version:v1 1 = None)

let compact_store_still_works_and_recovers () =
  let heap = fresh_heap () in
  let t = PStore.create heap in
  for k = 1 to 200 do
    PStore.insert t k k;
    ignore (PStore.tag t)
  done;
  for k = 1 to 200 do
    PStore.insert t k (k * 2);
    ignore (PStore.tag t)
  done;
  let current = PStore.current_version t in
  let dropped = PStore.compact t ~before:current in
  check_int "one superseded entry per key" 200 dropped;
  (* The store keeps accepting operations after compaction... *)
  PStore.insert t 1 999;
  ignore (PStore.tag t);
  check_bool "post-compact insert" true (PStore.find t 1 = Some 999);
  check_bool "other keys" true (PStore.find t 100 = Some 200);
  (* ...and the renumbered stamps still satisfy the recovery invariant. *)
  let t2 = PStore.open_existing ~threads:2 (Pmem.Pheap.reopen heap) in
  check_int "all keys after restart" 200 (PStore.key_count t2);
  check_bool "restart sees post-compact op" true (PStore.find t2 1 = Some 999);
  check_bool "restart sees compacted floors" true (PStore.find t2 100 = Some 200)

let compact_recycles_blob_values () =
  let heap = fresh_heap () in
  let t = PStore.create heap in
  (* Negative values force the blob path. *)
  PStore.insert t 1 (-100);
  ignore (PStore.tag t);
  PStore.insert t 1 (-200);
  let v2 = PStore.tag t in
  let live_before = Pmem.Pstats.live_bytes (Pmem.Pheap.stats heap) in
  let dropped = PStore.compact t ~before:v2 in
  check_int "dropped superseded blob entry" 1 dropped;
  let live_after = Pmem.Pstats.live_bytes (Pmem.Pheap.stats heap) in
  check_bool "blob recycled" true (live_after < live_before);
  check_bool "current value intact" true (PStore.find t 1 = Some (-200))

let compact_random_program_model () =
  let rng = Workload.Mt19937.create 4242 in
  let t = P.make () in
  let model = ref IntMap.empty in
  for _ = 1 to 1500 do
    let k = Workload.Mt19937.next_int rng 40 in
    if Workload.Mt19937.next_int rng 3 < 2 then begin
      let v = Workload.Mt19937.next_int rng 1000 in
      PStore.insert t k v;
      model := IntMap.add k v !model
    end
    else begin
      PStore.remove t k;
      model := IntMap.remove k !model
    end;
    ignore (PStore.tag t)
  done;
  let current = PStore.current_version t in
  let snapshot_before = PStore.extract_snapshot t ~version:current () in
  ignore (PStore.compact t ~before:current);
  check_bool "current snapshot preserved by compaction" true
    (PStore.extract_snapshot t ~version:current () = snapshot_before);
  check_bool "model agreement" true
    (Array.to_list snapshot_before = IntMap.bindings !model)

(* Online GC: index scrub, chain-slot reuse, background compaction *)

let compact_scrubs_emptied_keys () =
  let heap = fresh_heap () in
  let t = PStore.create heap in
  for k = 1 to 10 do
    PStore.insert t k k
  done;
  ignore (PStore.tag t);
  for k = 1 to 5 do
    PStore.remove t k
  done;
  ignore (PStore.tag t);
  let claimed = PStore.chain_claimed t in
  let dropped = PStore.compact t ~before:(PStore.current_version t) in
  (* Each removed key loses its insert and its marker floor; the kept
     keys' single entry is the floor and survives. *)
  check_int "dropped insert+marker per removed key" 10 dropped;
  check_int "emptied keys leave the index" 5 (PStore.key_count t);
  check_bool "scrubbed key reads as absent" true (PStore.find t 3 = None);
  check_bool "scrubbed key has no history" true (PStore.extract_history t 3 = []);
  check_int "chain slots released" 5 (PStore.chain_free_slots t);
  (* A new key reuses a released slot instead of claiming a fresh one. *)
  PStore.insert t 100 100;
  ignore (PStore.tag t);
  check_int "slot reuse keeps the claim flat" claimed (PStore.chain_claimed t);
  check_int "one fewer free slot" 4 (PStore.chain_free_slots t);
  check_bool "reused slot serves reads" true (PStore.find t 100 = Some 100)

let scrub_survives_restart () =
  let media = Pmem.Media.create_ram ~crash_sim:true ~capacity:(1 lsl 24) () in
  let heap = Pmem.Pheap.create media in
  let t = PStore.create heap in
  for k = 1 to 10 do
    PStore.insert t k k
  done;
  ignore (PStore.tag t);
  for k = 1 to 5 do
    PStore.remove t k
  done;
  ignore (PStore.tag t);
  ignore (PStore.compact t ~before:(PStore.current_version t));
  Pmem.Media.simulate_crash media;
  let t2 = PStore.open_existing ~threads:2 (Pmem.Pheap.reopen heap) in
  check_int "scrub persisted" 5 (PStore.key_count t2);
  check_bool "scrubbed key stays gone" true (PStore.find t2 1 = None);
  check_bool "kept key intact" true (PStore.find t2 7 = Some 7);
  (* Attach rediscovers the cleared slots and reuses them. *)
  check_int "free slots rebuilt on attach" 5 (PStore.chain_free_slots t2);
  let claimed = PStore.chain_claimed t2 in
  PStore.insert t2 200 200;
  ignore (PStore.tag t2);
  check_int "reattached store reuses released slots" claimed
    (PStore.chain_claimed t2);
  check_bool "store still functional" true (PStore.find t2 200 = Some 200)

let online_gc_with_concurrent_writer () =
  (* A background GC domain compacting every millisecond while the
     writer churns blob values: the result must be exactly the last
     round, and the renumbered stamps must still recover after a power
     cut. *)
  let media = Pmem.Media.create_ram ~crash_sim:true ~capacity:(1 lsl 24) () in
  let heap = Pmem.Pheap.create media in
  let t = PStore.create heap in
  let keys = 64 and rounds = 30 in
  let value round k = -((round * keys) + k + 1) in
  let gc = PStore.gc_start t ~interval_ms:1 ~keep:3 () in
  for round = 1 to rounds do
    for k = 0 to keys - 1 do
      PStore.insert t k (value round k)
    done;
    ignore (PStore.tag t)
  done;
  PStore.gc_stop gc;
  let snap = PStore.extract_snapshot t () in
  check_int "all keys live" keys (Array.length snap);
  Array.iteri
    (fun i (k, v) ->
      check_int "key" i k;
      check_int "last round's value" (value rounds k) v)
    snap;
  Pmem.Media.simulate_crash media;
  let t2 = PStore.open_existing ~threads:2 (Pmem.Pheap.reopen heap) in
  check_bool "post-crash snapshot equals pre-crash" true
    (PStore.extract_snapshot t2 () = snap)

let compact_twin_equivalence =
  (* A compacted store must answer exactly like its uncompacted twin
     for every observation at versions >= before — snapshots, finds and
     histories (truncated to the horizon plus the floor entry a
     snapshot at [before] needs) — including after a crash + reopen. *)
  let open QCheck in
  let op_gen =
    Gen.(
      pair (int_bound 20)
        (oneof [ map (fun v -> Some (v - 50)) (int_bound 100); return None ]))
  in
  Test.make ~name:"compacted store equals its uncompacted twin" ~count:30
    (make Gen.(pair (list_size (int_range 1 120) op_gen) (int_bound 100)))
    (fun (ops, pct) ->
      let media = Pmem.Media.create_ram ~crash_sim:true ~capacity:(1 lsl 22) () in
      let heap = Pmem.Pheap.create media in
      let a = PStore.create heap in
      let b = E.make () in
      List.iter
        (fun (k, op) ->
          (match op with
          | Some v ->
              PStore.insert a k v;
              E.insert b k v
          | None ->
              PStore.remove a k;
              E.remove b k);
          ignore (PStore.tag a);
          ignore (E.tag b))
        ops;
      let current = PStore.current_version a in
      let before = current * pct / 100 in
      ignore (PStore.compact a ~before);
      let agree a =
        let ok = ref true in
        for v = max before 1 to current do
          if PStore.extract_snapshot a ~version:v () <> E.extract_snapshot b ~version:v ()
          then ok := false
        done;
        for k = 0 to 20 do
          if PStore.find a k <> E.find b k then ok := false;
          let full = E.extract_history b k in
          let recent = List.filter (fun (v, _) -> v > before) full in
          let floor =
            match List.rev (List.filter (fun (v, _) -> v <= before) full) with
            | [] | (_, Mvdict.Dict_intf.Del) :: _ -> []
            | entry :: _ -> [ entry ]
          in
          if PStore.extract_history a k <> floor @ recent then ok := false
        done;
        !ok
      in
      let pre = agree a in
      Pmem.Media.simulate_crash media;
      let a2 = PStore.open_existing ~threads:2 (Pmem.Pheap.reopen heap) in
      pre && agree a2)

let crash_point_property =
  (* Crash consistency as a property: run a random prefix of a random
     program, cut the power, recover — the store must equal the model at
     exactly the crash point (every completed op survives, nothing
     else appears). *)
  QCheck.Test.make ~name:"recovery equals the model at any crash point" ~count:25
    QCheck.(pair (list (pair (int_bound 20) (option (int_bound 100)))) (int_bound 100))
    (fun (ops, cut_percent) ->
      let media = Pmem.Media.create_ram ~crash_sim:true ~capacity:(1 lsl 22) () in
      let heap = Pmem.Pheap.create media in
      let t = PStore.create heap in
      let cut = List.length ops * cut_percent / 100 in
      let model = ref IntMap.empty in
      List.iteri
        (fun i (k, op) ->
          if i < cut then begin
            (match op with
            | Some v ->
                PStore.insert t k v;
                model := IntMap.add k v !model
            | None ->
                PStore.remove t k;
                model := IntMap.remove k !model);
            ignore (PStore.tag t)
          end)
        ops;
      Pmem.Media.simulate_crash media;
      let t2 = PStore.open_existing ~threads:2 (Pmem.Pheap.reopen heap) in
      Array.to_list (PStore.extract_snapshot t2 ()) = IntMap.bindings !model
      && PStore.current_version t2 = cut)

let batch_coalescing_saves_pmem_work () =
  (* The whole point of the batched install: single-key ops on existing
     keys flush and fence per key (nothing saved), a batch coalesces its
     epilogue and books the difference in Pstats. (A new key's single
     insert shares its barriers too: its history's lines with its chain
     slot's key word.) *)
  let heap = fresh_heap () in
  let stats = Pmem.Pheap.stats heap in
  let t = PStore.create heap in
  for k = 0 to 99 do
    PStore.insert t k k
  done;
  let f = Pmem.Pstats.fences_saved stats
  and l = Pmem.Pstats.flushes_saved stats in
  for k = 0 to 99 do
    PStore.insert t k (k + 1)
  done;
  PStore.remove t 7;
  ignore (PStore.tag t);
  check_int "single-key ops save no fences" f (Pmem.Pstats.fences_saved stats);
  check_int "single-key ops save no flushes" l (Pmem.Pstats.flushes_saved stats);
  let fences_before = Pmem.Pstats.fences stats in
  PStore.insert_batch t (List.init 100 (fun k -> (k + 1000, k)));
  ignore (PStore.tag t);
  let saved_fences = Pmem.Pstats.fences_saved stats in
  let saved_flushes = Pmem.Pstats.flushes_saved stats in
  check_bool "batched install saves fences" true (saved_fences > f);
  check_bool "batched install saves flushed lines" true (saved_flushes > l);
  check_bool "batch still fences at its barriers" true
    (Pmem.Pstats.fences stats > fences_before);
  PStore.remove_batch t (List.init 50 (fun k -> k + 1000));
  ignore (PStore.tag t);
  check_bool "batched remove saves fences too" true
    (Pmem.Pstats.fences_saved stats > saved_fences);
  (* And singles afterwards leave the saved counters untouched. *)
  let f = Pmem.Pstats.fences_saved stats
  and l = Pmem.Pstats.flushes_saved stats in
  for k = 0 to 49 do
    PStore.insert t k (k * 7)
  done;
  ignore (PStore.tag t);
  check_int "singles after a batch save no fences" f
    (Pmem.Pstats.fences_saved stats);
  check_int "singles after a batch save no flushes" l
    (Pmem.Pstats.flushes_saved stats)

(* The twin below replays [canonical_pairs] and [canonical_keys] as its
   own model, so they are checked here against an independent one: a
   batch folded into a Map, the last binding of a key winning. Half the
   batches arrive ascending, which skips the sort. *)
let canonical_batches_equal_map_fold =
  let open QCheck in
  let batch gen = Gen.(pair bool (list_size (int_bound 64) gen)) in
  Test.make ~name:"canonical batches equal a Map fold" ~count:500
    (make
       ~print:Print.(pair (pair bool (list (pair int int))) (pair bool (list int)))
       Gen.(pair (batch (pair (int_bound 40) small_nat)) (batch (int_bound 40))))
    (fun ((ascending_pairs, pairs), (ascending_keys, keys)) ->
      let pairs =
        if ascending_pairs then List.sort_uniq (fun (a, _) (b, _) -> Int.compare a b) pairs
        else pairs
      and keys = if ascending_keys then List.sort_uniq Int.compare keys else keys in
      let last = List.fold_left (fun m (k, v) -> IntMap.add k v m) IntMap.empty pairs in
      let domain = List.fold_left (fun m k -> IntMap.add k () m) IntMap.empty keys in
      Mvdict.Dict_intf.canonical_pairs ~compare:Int.compare pairs = IntMap.bindings last
      && Mvdict.Dict_intf.canonical_keys ~compare:Int.compare keys
         = List.map fst (IntMap.bindings domain))

let batch_twin_equivalence =
  (* A store driven by random batched schedules must answer exactly
     like a twin driven by the flattened (canonicalised) single-key
     ops — finds, snapshots and histories at every version — including
     after a crash + reopen. One asymmetry is by design: tags are
     volatile, so recovery rewinds the clock to the highest durable
     entry stamp (the stamp of the last mutation), dropping trailing
     tags — the model tracks that stamp and expects it post-crash. *)
  let open QCheck in
  let pair_gen = Gen.(pair (int_bound 20) (map (fun v -> v - 50) (int_bound 100))) in
  let step_gen =
    Gen.(
      frequency
        [
          (4, map (fun ps -> `Insert ps) (list_size (int_range 1 12) pair_gen));
          (2, map (fun ks -> `Remove ks) (list_size (int_range 1 8) (int_bound 20)));
          (2, return `Tag);
        ])
  in
  Test.make ~name:"batched store equals its single-key twin" ~count:40
    (make Gen.(list_size (int_range 1 40) step_gen))
    (fun steps ->
      let media = Pmem.Media.create_ram ~crash_sim:true ~capacity:(1 lsl 22) () in
      let heap = Pmem.Pheap.create media in
      let a = PStore.create heap in
      let b = E.make () in
      let last_stamp = ref 0 in
      List.iter
        (function
          | `Insert ps ->
              last_stamp := E.current_version b + 1;
              PStore.insert_batch a ps;
              List.iter
                (fun (k, v) -> E.insert b k v)
                (Mvdict.Dict_intf.canonical_pairs ~compare:Int.compare ps)
          | `Remove ks ->
              last_stamp := E.current_version b + 1;
              PStore.remove_batch a ks;
              List.iter (fun k -> E.remove b k)
                (Mvdict.Dict_intf.canonical_keys ~compare:Int.compare ks)
          | `Tag ->
              ignore (PStore.tag a);
              ignore (E.tag b))
        steps;
      ignore (PStore.tag a);
      ignore (E.tag b);
      let current = PStore.current_version a in
      let agree expected_version a =
        let ok = ref (PStore.current_version a = expected_version) in
        for v = 0 to current do
          if
            PStore.extract_snapshot a ~version:v ()
            <> E.extract_snapshot b ~version:v ()
          then ok := false
        done;
        for k = 0 to 20 do
          if PStore.find a k <> E.find b k then ok := false;
          if PStore.extract_history a k <> E.extract_history b k then
            ok := false
        done;
        !ok
      in
      let pre = agree (E.current_version b) a in
      Pmem.Media.simulate_crash media;
      let a2 = PStore.open_existing ~threads:2 (Pmem.Pheap.reopen heap) in
      pre && agree !last_stamp a2)

(* Persisting a history append: counted cost and crash rules. The stamp
   is a record's commit word, so a record that fits one cache line costs
   one flushed line and one fence, and a record straddling two lines (its
   start at 48 or 56 mod 64) costs two of each. *)

module PH = Mvdict.Phistory

let cost stats f =
  let lines = Pmem.Pstats.flushed_lines stats and fences = Pmem.Pstats.fences stats in
  f ();
  (Pmem.Pstats.flushed_lines stats - lines, Pmem.Pstats.fences stats - fences)

let int_word heap v = Mvdict.Codec.encode (module Mvdict.Codec.Int_value) heap v

(* Media offset of a history record, found as recovery finds it: the
   history word of its chain slot points at the first segment, whose
   records follow its link and capacity (c) words, and segment k >= 1,
   linked from segment k - 1, holds records [c * 2^(k-1), c * 2^k)
   after its link word. *)
let record_at heap chain_slot slot =
  let media = Pmem.Pheap.media heap in
  let first = Pmem.Media.get_i64 media (Pmem.Pblockchain.history_word chain_slot) in
  let c = Pmem.Media.get_i64 media (first + 8) in
  let rec seek seg start =
    let next = Pmem.Media.get_i64 media seg in
    if slot < 2 * start then next + 8 + (24 * (slot - start)) else seek next (2 * start)
  in
  if slot < c then first + 16 + (24 * slot) else seek first c

let record_start heap h slot = record_at heap (PH.chain_slot h) slot

(* A store's key chain in heap root 0, and a key's history registered
   in it by hand, as the store would: a claimed chain slot roots the
   history, and its commit makes it reachable. *)
let key_chain heap =
  let chain = Pmem.Pblockchain.create heap ~block_slots:63 in
  Pmem.Pheap.root_set heap 0 (Pmem.Pblockchain.handle chain);
  chain

let registered_history heap chain key =
  let chain_slot =
    Pmem.Pblockchain.claim chain
      ~key:(Mvdict.Codec.encode (module Mvdict.Codec.Int_key) heap key)
  in
  let h = PH.create heap ~chain_slot in
  Pmem.Pblockchain.commit chain chain_slot ~hist:(PH.root h);
  h

(* A fresh history in a key chain of its own. *)
let new_history heap = registered_history heap (key_chain heap) 0

(* Append stamped filler entries until the next slot's record starts at
   a line offset satisfying [p]. The next slot's segment is linked
   first, so that its record has an offset. *)
let append_until heap h ~ctx ~board p =
  let next_start () =
    let slot = PH.H.pending_length h in
    PH.H.grow heap h (slot + 1);
    record_start heap h slot
  in
  while not (p (next_start () mod Pmem.Media.cache_line)) do
    PH.H.append heap h ~ctx ~board ~version:1 (int_word heap 1)
  done

(* An empty history whose first [n] records are contiguous: one
   segment of [n] records in a committed chain slot, attached as
   recovery would. *)
let one_segment_history heap n =
  let chain = key_chain heap in
  let chain_slot = Pmem.Pblockchain.claim chain ~key:0 in
  let root = Pmem.Pvector.root (Pmem.Pvector.create heap ~initial_capacity:n) in
  Pmem.Pblockchain.commit chain chain_slot ~hist:root;
  fst (PH.attach_pruned heap ~chain_slot root ~fc:0)

(* Any 8 consecutive 24-byte records span 3 lines, and 2 of them
   straddle: 6 x (1 line, 1 fence) + 2 x (2, 2). *)
let history_append_cost () =
  let heap = fresh_heap () in
  let ctx, board = history_env () in
  let h = one_segment_history heap 8 in
  let lines, fences =
    cost (Pmem.Pheap.stats heap) (fun () ->
        for v = 1 to 8 do
          PH.H.append heap h ~ctx ~board ~version:v (int_word heap v)
        done)
  in
  check_int "flushed lines for 8 appends" 10 lines;
  check_int "fences for 8 appends" 10 fences;
  check_int "all appends visible" 8 (List.length (PH.H.events heap h ~ctx ~since:0))

(* Growth links one segment as large as the capacity: on a heap whose
   reservation covers the segment it persists the link word alone, and
   neither copies a record nor flushes the zeros of the new segment. *)
let history_growth_cost () =
  let heap = fresh_heap () in
  let ctx, board = history_env () in
  let h = new_history heap in
  let capacity_now () = Pmem.Pvector.capacity (PH.H.segs h) in
  List.iter
    (fun capacity ->
      while PH.H.pending_length h < capacity do
        PH.H.append heap h ~ctx ~board ~version:1 (int_word heap 1)
      done;
      check_int "full" capacity (capacity_now ());
      let lines, fences =
        cost (Pmem.Pheap.stats heap) (fun () -> PH.H.grow heap h (capacity + 1))
      in
      check_int "doubled" (2 * capacity) (capacity_now ());
      check_int (Printf.sprintf "growth at %d: lines: the link" capacity) 1 lines;
      check_int (Printf.sprintf "growth at %d: fences: the link" capacity) 1 fences)
    [ 2; 8; 64 ]

(* Eight entries fill the first three segments (2, 2 and 4 records),
   and the two growths retire nothing: those segments are all the
   history holds besides its chain slot, and each fills a size class
   of its own (64, 56 and 104 bytes). *)
let history_live_bytes () =
  let heap = fresh_heap () in
  let stats = Pmem.Pheap.stats heap in
  let ctx, board = history_env () in
  let chain = key_chain heap in
  let live0 = Pmem.Pstats.live_bytes stats in
  let h = registered_history heap chain 1 in
  for v = 1 to 8 do
    PH.H.append heap h ~ctx ~board ~version:v (int_word heap v)
  done;
  check_int "live bytes: segments of 2, 2 and 4 records" (64 + 56 + 104)
    (Pmem.Pstats.live_bytes stats - live0)

(* Pmem bytes per key, exactly: 126 keys, two full chain blocks,
   written with 1, 2, 4 and 8 entries each, by single inserts, by insert
   batches and by remove batches, hold the chain (its 16-byte header and
   two blocks of 63 slots, 1,016 bytes each in the 1,024-byte class) and
   history segments of 64, 64, 64 + 56 and 64 + 56 + 104 bytes a key:
   with a slot's 16 bytes, 136 at 4 entries and 240 at 8. *)
let bytes_per_key () =
  let keys = List.init 126 Fun.id in
  let paths =
    [
      ("insert", fun t v -> List.iter (fun k -> PStore.insert t k v) keys);
      ("insert_batch", fun t v -> PStore.insert_batch t (List.map (fun k -> (k, v)) keys));
      ("remove_batch", fun t _ -> PStore.remove_batch t keys);
    ]
  in
  List.iter
    (fun (path, write) ->
      List.iter
        (fun (entries, segments) ->
          let heap = fresh_heap () in
          let t = PStore.create heap in
          for v = 1 to entries do
            write t v
          done;
          check_int
            (Printf.sprintf "%s, %d entries a key: live bytes" path entries)
            (16 + (2 * 1024) + (126 * segments))
            (Pmem.Pstats.live_bytes (Pmem.Pheap.stats heap)))
        [ (1, 64); (2, 64); (4, 64 + 56); (8, 64 + 56 + 104) ])
    paths

(* A history is one DRAM record: its chain slot, its segment array
   and the two cursors as plain int fields (5 words), plus the segment
   array (4 words at 2 segments); an Atomic box per cursor (2 words
   each) fails the bound. The heap, the clock and the board are the
   store's, so they are not counted. *)
let history_footprint () =
  let heap = fresh_heap () in
  let ctx, board = history_env () in
  let h = new_history heap in
  for v = 1 to 4 do
    PH.H.append heap h ~ctx ~board ~version:v (int_word heap v)
  done;
  let shared = Obj.repr (heap, ctx, board) in
  let own =
    Obj.reachable_words (Obj.repr (h, shared)) - Obj.reachable_words shared - 3
  in
  check_bool
    (Printf.sprintf "a 4-entry history keeps %d words of DRAM, at most 9" own)
    true (own <= 9)

(* Two appends to key 3 finish out of slot order: slot 1 is stamped
   (stamp 3) and published, slot 0 only written. Key 4's stamp 4 then
   becomes visible, and the crash comes before slot 0 is stamped. The
   first open must count stamp 3, or it sets fc to 2 and prunes key 4;
   it prunes slot 1, which was never visible, and the floor it persists
   keeps the next open from finding the gap at 3. *)
let recovery_counts_stamps_behind_an_unstamped_slot () =
  let media, heap = crash_heap () in
  let ctx, board = history_env () in
  let chain = key_chain heap in
  let history = registered_history heap chain in
  let append h v = PH.H.append heap h ~ctx ~board ~version:1 (int_word heap v) in
  append (history 1) 10;
  append (history 2) 20;
  let h3 = history 3 in
  ignore (PH.H.append_entry heap h3 ~version:1 (int_word heap 30));
  append h3 31;
  append (history 4) 40;
  check_int "key 4 visible" 4 (Mvdict.Version.fc ctx);
  Pmem.Media.simulate_crash media;
  let t = PStore.open_existing (Pmem.Pheap.reopen heap) in
  check_int "first open: fc" 4 (PStore.recovered_fc t);
  check_bool "first open: key 4" true (PStore.find t 4 = Some 40);
  check_bool "first open: key 3 holds nothing" true (PStore.find t 3 = None);
  PStore.insert t 5 50;
  PStore.insert t 3 32;
  Pmem.Media.simulate_crash media;
  let t2 = PStore.open_existing (Pmem.Pheap.reopen (PStore.heap t)) in
  check_int "second open: fc" 6 (PStore.recovered_fc t2);
  List.iter
    (fun (k, v) ->
      check_bool (Printf.sprintf "second open: key %d" k) true (PStore.find t2 k = Some v))
    [ (1, 10); (2, 20); (3, 32); (4, 40); (5, 50) ]

let slot_words heap h slot =
  let word w = Pmem.Pvector.get_word heap (PH.H.segs h) ~record:slot ~word:w in
  (word 0, word 1, word 2)

(* Reopen [h] from the durable image, as a restart would: through the
   root its chain slot holds. *)
let recover heap h ~ctx =
  let chain_slot = PH.chain_slot h in
  let root =
    Pmem.Media.get_i64 (Pmem.Pheap.media heap) (Pmem.Pblockchain.history_word chain_slot)
  in
  PH.attach_pruned (Pmem.Pheap.reopen heap) ~chain_slot root ~fc:(Mvdict.Version.fc ctx)

(* A record inside one line is written but not stamped: nothing of it
   was persisted, so the slot reads all zero after the crash. *)
let crash_unstamped_one_line_record () =
  let media, heap = crash_heap () in
  let ctx, board = history_env () in
  let h = new_history heap in
  append_until heap h ~ctx ~board (fun start -> start < 48);
  let slot = PH.H.append_entry heap h ~version:2 (int_word heap 2) in
  Pmem.Media.simulate_crash media;
  let h2, _ = recover heap h ~ctx in
  check_bool "slot all zero" true (slot_words heap h2 slot = (0, 0, 0));
  check_int "stamped prefix kept" slot (PH.H.visible_length h2)

(* A record with a blob value crashed before its stamp persisted. The
   blob pointer is persisted with the version whatever the record's
   line offset (the value may share the stamp's line: at 56 and for
   any record inside one line), so recovery prunes the slot and frees
   the blob exactly once. *)
let crash_unstamped_blob_record offset () =
  let media, heap = crash_heap () in
  let stats = Pmem.Pheap.stats heap in
  let ctx, board = history_env () in
  let h = new_history heap in
  append_until heap h ~ctx ~board (( = ) offset);
  PH.H.grow heap h (PH.H.pending_length h + 1);
  let blob = int_word heap (-7) in
  let live0 = Pmem.Pstats.live_bytes stats in
  let slot = PH.H.append_entry heap h ~version:2 blob in
  Pmem.Media.simulate_crash media;
  let h2, _ = recover heap h ~ctx in
  check_bool "slot pruned" true (slot_words heap h2 slot = (0, 0, 0));
  let live = Pmem.Pstats.live_bytes stats in
  check_int "blob freed once" Pmem.Alloc.size_classes.(0) (live0 - live);
  Pmem.Media.simulate_crash media;
  ignore (recover heap h ~ctx);
  check_int "no second free" live (Pmem.Pstats.live_bytes stats)

(* Growth into a block recycled from a free list: the block still holds
   another history's stamped records, which must not resurface past
   this history's own records after a crash, nor be freed by recovery.
   Both histories' segment for records 8-15 is the only 200-byte block. *)
let crash_growth_into_reused_block () =
  let media, heap = crash_heap () in
  let stats = Pmem.Pheap.stats heap in
  let ctx, board = history_env () in
  let old = new_history heap in
  for v = 1 to 16 do
    PH.H.append heap old ~ctx ~board ~version:v (int_word heap (-v))
  done;
  let buffer h = record_start heap h 8 in
  let old_buffer = buffer old in
  PH.destroy heap old;
  let h = new_history heap in
  for v = 17 to 25 do
    PH.H.append heap h ~ctx ~board ~version:v (int_word heap v)
  done;
  check_int "grown into the freed buffer" old_buffer (buffer h);
  let live = Pmem.Pstats.live_bytes stats in
  Pmem.Media.simulate_crash media;
  let h2, max_version = recover heap h ~ctx in
  check_int "capacity" 16 (Pmem.Pvector.capacity (PH.H.segs h2));
  check_int "only this history's records" 9 (PH.H.visible_length h2);
  check_int "highest version" 25 max_version;
  for slot = 9 to 15 do
    check_bool "tail slot zero" true (slot_words heap h2 slot = (0, 0, 0))
  done;
  check_int "recovery freed nothing" live (Pmem.Pstats.live_bytes stats)

(* A batch scope defers its own persists to its barrier, yet another
   domain may write into a history the scope created before then. The
   blocks cut for that history must stay allocated across a crash
   before the barrier: with the bump pointer's persist deferred too,
   they would lie above it after recovery and be handed out again as
   fresh, durable-zero memory still holding the other domain's record. *)
let crash_mid_batch_keeps_fresh_memory_zero () =
  let media, heap = crash_heap () in
  let t = PStore.create heap in
  let alloc = Pmem.Pheap.allocator heap in
  let start = Pmem.Alloc.used_bytes alloc in
  let cut =
    Pmem.Media.with_batch (fun () ->
        PStore.insert t 1 10;
        Domain.join (Domain.spawn (fun () -> PStore.insert t 1 11));
        let cut = Pmem.Alloc.used_bytes alloc - start in
        Pmem.Media.simulate_crash media;
        cut)
  in
  check_bool "the new key cut fresh blocks" true (cut > 0);
  let alloc2 = Pmem.Pheap.allocator (Pmem.Pheap.reopen heap) in
  let q = Pmem.Alloc.alloc_zeroed alloc2 cut in
  check_bool "fresh memory reads zero" true
    (Bytes.for_all (fun c -> c = '\000') (Pmem.Media.read_bytes media q cut))

let crash_after_concurrent_inserts () =
  (* Concurrent writers, then power cut: every completed operation must
     be recovered (each insert fully persists before returning). *)
  let media = Pmem.Media.create_ram ~crash_sim:true ~capacity:(1 lsl 24) () in
  let heap = Pmem.Pheap.create media in
  let t = PStore.create heap in
  let threads = 4 and per = 300 in
  ignore
    (Concurrent.Parallel.run ~threads (fun tid ->
         for i = 0 to per - 1 do
           PStore.insert t ((tid * per) + i) i;
           ignore (PStore.tag t)
         done));
  Pmem.Media.simulate_crash media;
  let t2 = PStore.open_existing ~threads:2 (Pmem.Pheap.reopen heap) in
  check_int "every completed insert recovered" (threads * per) (PStore.key_count t2)

(* A compaction pass: counted cost and crash points. *)

(* The pass persists the stamp floor, then rewrites only the histories
   that drop records: a pass with nothing below the horizon costs the
   floor word whatever the key count, and one that drops records costs
   in proportion to the keys that drop them. A dropping key here keeps
   one record: its new segment is persisted once (its capacity word and
   the record, 1 or 2 lines) and its root swap once (1 line), and the
   frees of its old segments and blobs write nothing. A pass reads each
   history where it lies, so one that drops nothing allocates nothing
   per key; one that rewrites every key copies its kept records as
   words, so it allocates only each key's new segment array, the
   allocator's answer and amortised free-list growth. *)
let compaction_pass_cost () =
  let pass ~keys ~dropping =
    let heap = Pmem.Pheap.create_ram ~capacity:(1 lsl 22) () in
    let t = PStore.create heap in
    for k = 0 to keys - 1 do
      PStore.insert t k k
    done;
    ignore (PStore.tag t);
    for k = 0 to dropping - 1 do
      PStore.insert t k (k + 1)
    done;
    let before = PStore.tag t in
    cost (Pmem.Pheap.stats heap) (fun () ->
        check_int "dropped" dropping (PStore.compact t ~before))
  in
  List.iter
    (fun keys ->
      let lines, fences = pass ~keys ~dropping:0 in
      check_int (Printf.sprintf "%d keys, nothing dropped: lines" keys) 1 lines;
      check_int (Printf.sprintf "%d keys, nothing dropped: fences" keys) 1 fences;
      List.iter
        (fun dropping ->
          let lines, fences = pass ~keys ~dropping in
          check_bool
            (Printf.sprintf "%d keys, %d dropping: %d lines, at most 1 + 3 per dropping key"
               keys dropping lines)
            true
            (lines <= 1 + (3 * dropping));
          check_int
            (Printf.sprintf "%d keys, %d dropping: fences, 1 + 2 per dropping key" keys dropping)
            (1 + (2 * dropping)) fences)
        [ 8; 32 ])
    [ 64; 1024 ];
  let few, _ = pass ~keys:1024 ~dropping:8 and many, _ = pass ~keys:1024 ~dropping:32 in
  check_bool (Printf.sprintf "lines grow with dropping keys: %d < %d" few many) true
    (few < many);
  let keys = 10_000 in
  let t = PStore.create (Pmem.Pheap.create_ram ~capacity:(1 lsl 24) ()) in
  for v = 1 to 4 do
    PStore.insert_batch t (List.init keys (fun k -> (k, v)));
    ignore (PStore.tag t)
  done;
  let words_per_key before =
    let w0 = Gc.minor_words () in
    let dropped = PStore.compact t ~before in
    (dropped, (Gc.minor_words () -. w0) /. float_of_int keys)
  in
  let dropped, per_key = words_per_key 1 in
  check_int "a pass below version 1 drops nothing" 0 dropped;
  check_bool
    (Printf.sprintf "%d keys x 4 versions, nothing dropped: %.2f minor words per key, < 1"
       keys per_key)
    true (per_key < 1.0);
  let dropped, per_key = words_per_key 2 in
  check_int "a pass below version 2 drops the oldest record of every key" keys dropped;
  check_bool
    (Printf.sprintf "%d keys x 4 versions, oldest dropped: %.2f minor words per key, < 16"
       keys per_key)
    true (per_key < 16.0)

(* The horizon is the highest [before] a pass used and survives a
   reopen. A pool reopened but never compacted records 0 with its first
   floor. *)
let compaction_horizon () =
  let heap = Pmem.Pheap.create_ram ~capacity:(1 lsl 20) () in
  let t = PStore.create heap in
  for v = 1 to 5 do
    PStore.insert t 1 v;
    ignore (PStore.tag t)
  done;
  check_int "a fresh store" 0 (PStore.horizon t);
  let heap = Pmem.Pheap.reopen heap in
  ignore (PStore.open_existing heap);
  let heap = Pmem.Pheap.reopen heap in
  let t = PStore.open_existing heap in
  check_int "reopened twice, never compacted" 0 (PStore.horizon t);
  ignore (PStore.compact t ~before:3);
  ignore (PStore.compact t ~before:2);
  check_int "the highest before" 3 (PStore.horizon t);
  let heap = Pmem.Pheap.reopen heap in
  check_int "after a reopen" 3 (PStore.horizon (PStore.open_existing heap))

(* The crash-point store. Stamps interleave across five keys: key 1
   holds inline values, keys 2 and 5 blobs, key 3 a blob under a
   removal marker (its floor: the pass scrubs it), and key 4 two
   records in a buffer of four, left by a growth whose record's stamp
   never became durable. *)
let compaction_program t =
  List.iter
    (fun round ->
      List.iter
        (function k, Some v -> PStore.insert t k v | k, None -> PStore.remove t k)
        round;
      ignore (PStore.tag t))
    [
      [ (1, Some 10); (2, Some (-20)); (3, Some (-30)) ];
      [ (1, Some 11); (2, Some (-21)); (3, None) ];
      [ (1, Some 12); (2, Some (-22)); (4, Some 43) ];
      [ (1, Some 13); (2, Some (-23)); (4, Some 44); (5, Some (-50)) ];
    ]

let compaction_keys = [ 1; 2; 3; 4; 5 ]

(* Key 4's third append: it grows the buffer from 2 records to 4. *)
let grow_key_4 t = PStore.insert t 4 45

(* Builds the crash-point store afresh, as its durable image after a
   crash. The flushes of [grow_key_4] are counted on a first build; the
   last of them persists the new record's stamp, and that is where the
   crash strikes. *)
let compaction_store () =
  let flushes =
    let heap = Pmem.Pheap.create_ram ~capacity:(1 lsl 20) () in
    let t = PStore.create heap in
    compaction_program t;
    snd (cost (Pmem.Pheap.stats heap) (fun () -> grow_key_4 t))
  in
  fun () ->
    let media = Pmem.Media.create_ram ~crash_sim:true ~capacity:(1 lsl 20) () in
    let heap = Pmem.Pheap.create media in
    let t = PStore.create heap in
    compaction_program t;
    Pmem.Media.crash_after media ~flushes;
    (match grow_key_4 t with
    | () -> Alcotest.fail "the growing append's stamp became durable"
    | exception Pmem.Media.Crash -> ());
    Pmem.Media.simulate_crash media;
    (media, heap)

(* Capacity of a key's history buffer, found through the key chain. *)
let history_capacity heap key =
  let chain = Pmem.Pblockchain.attach heap (Pmem.Pheap.root_get heap 0) in
  let media = Pmem.Pheap.media heap in
  let capacity = ref 0 in
  Pmem.Pblockchain.iter_slots chain (fun ~key:word ~hist ->
      if Mvdict.Codec.decode (module Mvdict.Codec.Int_key) media word = key then
        capacity := Pmem.Pvector.capacity (Pmem.Pvector.attach heap hist));
  !capacity

(* What readers at or after [before] can see: each key's latest value,
   its value at every version from [before] on, and its history cut to
   the entries above [before] and the floor entry below them (none when
   that is a removal marker). *)
let observable t ~before =
  List.map
    (fun k ->
      let full = PStore.extract_history t k in
      let floor =
        match List.rev (List.filter (fun (v, _) -> v <= before) full) with
        | [] | (_, Mvdict.Dict_intf.Del) :: _ -> []
        | entry :: _ -> [ entry ]
      in
      ( PStore.find t k,
        List.init
          (PStore.current_version t - before + 1)
          (fun i -> PStore.find t ~version:(before + i) k),
        floor @ List.filter (fun (v, _) -> v > before) full ))
    compaction_keys

(* Pops every size class's free list until the allocator cuts fresh
   memory: a block freed twice comes out twice. *)
let free_lists_distinct heap =
  let alloc = Pmem.Pheap.allocator heap in
  let seen = Hashtbl.create 64 in
  Array.for_all
    (fun size ->
      let rec pop () =
        let used = Pmem.Alloc.used_bytes alloc in
        let off = Pmem.Alloc.alloc alloc size in
        if Pmem.Alloc.used_bytes alloc > used then true
        else if Hashtbl.mem seen off then false
        else begin
          Hashtbl.add seen off ();
          pop ()
        end
      in
      pop ())
    Pmem.Alloc.size_classes

(* For k = 1, 2, ... until the pass completes, the k-th flush of
   [compact] crashes. After each reopen every read at or after the
   horizon equals the uncompacted store's, and a second pass and reopen
   then succeed and free no block twice. *)
let compaction_crash_points () =
  (* Keys 1 and 2 drop two records each, key 3 all of its own. *)
  let before = 3 in
  let fresh = compaction_store () in
  let expected =
    let _, heap = fresh () in
    check_int "key 4 over-sized before the pass" 4 (history_capacity heap 4);
    observable (PStore.open_existing (Pmem.Pheap.reopen heap)) ~before
  in
  let agrees k stage t =
    match observable t ~before with
    | seen ->
        check_bool (Printf.sprintf "crash at flush %d, %s: reads from the horizon on" k stage)
          true (seen = expected)
    | exception e ->
        Alcotest.failf "crash at flush %d, %s: a read raised %s" k stage
          (Printexc.to_string e)
  in
  let rec crash_at k =
    let media, heap = fresh () in
    let t = PStore.open_existing (Pmem.Pheap.reopen heap) in
    Pmem.Media.crash_after media ~flushes:k;
    let completed =
      match PStore.compact t ~before with
      | _ -> true
      | exception Pmem.Media.Crash -> false
    in
    Pmem.Media.simulate_crash media;
    let heap = Pmem.Pheap.reopen heap in
    let t = PStore.open_existing heap in
    agrees k "reopened" t;
    ignore (PStore.compact t ~before);
    let heap = Pmem.Pheap.reopen heap in
    agrees k "compacted again" (PStore.open_existing heap);
    if completed then check_int "key 4 right-sized" 2 (history_capacity heap 4);
    check_bool (Printf.sprintf "crash at flush %d: no block freed twice" k) true
      (free_lists_distinct heap);
    if completed then k else crash_at (k + 1)
  in
  (* [crash_at] returns the first k the pass outlives, one past its
     last flush. *)
  let flushes = crash_at 1 - 1 in
  check_int
    "the pass's flushes: the floor and horizon line, a segment and a root swap for \
     each of keys 1, 2 and 4, and key 3's slot"
    8 flushes

(* The range-drop store, keys 1-8 over three tagged rounds: odd keys
   start with blob values, keys 2 and 4 are removed, and keys 5 and 7
   grow to four records. The dropped range [3, 7) holds keys 3-6, so
   each kind of key sits inside it and outside. *)
let drop_program t =
  List.iter
    (fun round ->
      List.iter
        (function k, Some v -> PStore.insert t k v | k, None -> PStore.remove t k)
        round;
      ignore (PStore.tag t))
    [
      List.init 8 (fun i -> (i + 1, Some (if i mod 2 = 0 then -(i + 1) else i + 1)));
      [ (2, None); (4, None); (5, Some 51); (7, Some 71) ];
      [ (5, Some (-52)); (5, Some 53); (7, Some (-72)); (7, Some 73) ];
    ]

(* For k = 1, 2, ... until it completes, the k-th flush of
   [drop_range] over [3, 7) crashes. After each reopen every key outside
   the range reads as before at every version, each key inside is whole
   or gone, none is gone unless the drop's horizon is recorded, and a
   second drop empties the range and frees no block twice. *)
let range_drop_crash_points () =
  let lo = 3 and hi = 7 and horizon = 2 and versions = 3 in
  let keys = List.init 8 (fun i -> i + 1) in
  let fresh () =
    let media = Pmem.Media.create_ram ~crash_sim:true ~capacity:(1 lsl 20) () in
    let heap = Pmem.Pheap.create media in
    let t = PStore.create heap in
    drop_program t;
    (media, heap, t)
  in
  let reads t key =
    ( PStore.extract_history t key,
      List.init versions (fun v -> PStore.find t ~version:(v + 1) key) )
  in
  let expected = (fun (_, _, t) -> List.map (reads t) keys) (fresh ()) in
  (* Checks one reopened store; says whether every key inside is gone. *)
  let check_store k stage t =
    let name key what = Printf.sprintf "crash at flush %d, %s: key %d %s" k stage key what in
    let gone =
      List.map2
        (fun key want ->
          let history, found = reads t key in
          if key >= lo && key < hi && history = [] then begin
            check_bool (name key "gone, reads absent") true
              (List.for_all Option.is_none found);
            true
          end
          else begin
            check_bool (name key "reads as before") true ((history, found) = want);
            false
          end)
        keys expected
    in
    if List.mem true gone then
      check_bool (Printf.sprintf "crash at flush %d, %s: the horizon is recorded" k stage)
        true (PStore.horizon t >= horizon);
    List.length (List.filter Fun.id gone) = hi - lo
  in
  let rec crash_at k =
    let media, heap, t = fresh () in
    Pmem.Media.crash_after media ~flushes:k;
    let completed =
      match PStore.drop_range t ~lo ~hi ~horizon with
      | _ -> true
      | exception Pmem.Media.Crash -> false
    in
    Pmem.Media.simulate_crash media;
    let heap = Pmem.Pheap.reopen heap in
    let t = PStore.open_existing heap in
    check_bool (Printf.sprintf "crash at flush %d: the range is gone once the drop returned" k)
      completed (check_store k "reopened" t);
    ignore (PStore.drop_range t ~lo ~hi ~horizon);
    let heap = Pmem.Pheap.reopen heap in
    check_bool (Printf.sprintf "crash at flush %d: a second drop empties the range" k) true
      (check_store k "dropped again" (PStore.open_existing heap));
    check_bool (Printf.sprintf "crash at flush %d: no block freed twice" k) true
      (free_lists_distinct heap);
    if completed then k else crash_at (k + 1)
  in
  let flushes = crash_at 1 - 1 in
  check_int "the drop's flushes: the floor and horizon line, and each key's slot" 5 flushes

(* A growing history: counted crash points. *)

(* Nine appends to one key take its history through three growths
   (2 -> 4 -> 8 -> 16 records), alternating inline and blob values. *)
let growth_values = List.init 9 (fun i -> if i mod 2 = 0 then i + 1 else -(i + 1))

let values_of history =
  List.map (function _, Mvdict.Dict_intf.Put v -> v | _, Mvdict.Dict_intf.Del -> 0) history

let history_values t key = values_of (PStore.extract_history t key)

(* For k = 1, 2, ... until the appends complete, the k-th flush after
   the store is created crashes. After each reopen the key's history is
   a prefix of the appends that holds every append that returned (and
   so was visible), the reopened store takes the remaining appends, and
   no block was freed twice. *)
let growth_crash_points ~batch () =
  let key = 7 in
  let append t v =
    if batch then PStore.insert_batch t [ (key, v) ] else PStore.insert t key v
  in
  let rec crash_at k =
    let media = Pmem.Media.create_ram ~crash_sim:true ~capacity:(1 lsl 20) () in
    let heap = Pmem.Pheap.create media in
    let t = PStore.create heap in
    Pmem.Media.crash_after media ~flushes:k;
    let returned = ref 0 in
    let completed =
      match
        List.iter
          (fun v ->
            append t v;
            incr returned)
          growth_values
      with
      | () -> true
      | exception Pmem.Media.Crash -> false
    in
    Pmem.Media.simulate_crash media;
    let heap = Pmem.Pheap.reopen heap in
    let t = PStore.open_existing heap in
    let seen = history_values t key in
    let n = List.length seen in
    check_bool
      (Printf.sprintf "crash at flush %d: %d entries, a prefix holding the %d returned" k n
         !returned)
      true
      (n >= !returned && seen = List.filteri (fun i _ -> i < n) growth_values);
    List.iteri (fun i v -> if i >= n then append t v) growth_values;
    check_bool (Printf.sprintf "crash at flush %d: the reopened store takes the rest" k) true
      (history_values t key = growth_values);
    check_bool (Printf.sprintf "crash at flush %d: no block freed twice" k) true
      (free_lists_distinct heap);
    if completed then k else crash_at (k + 1)
  in
  let flushes = crash_at 1 in
  check_bool (Printf.sprintf "the appends have %d flushes" flushes) true
    (flushes > List.length growth_values)

(* Allocator state rebuilt at open: counted costs and crash points. *)

(* A key's chain slot offset and the first segment of its history, which
   the slot's history word points at, found through the key chain. *)
let chain_slot heap key =
  let chain = Pmem.Pblockchain.attach heap (Pmem.Pheap.root_get heap 0) in
  let media = Pmem.Pheap.media heap in
  let found = ref None in
  Array.iter
    (fun block ->
      Pmem.Pblockchain.iter_block chain block (fun ~slot ~key:word ~hist ->
          if Mvdict.Codec.decode (module Mvdict.Codec.Int_key) media word = key then
            found := Some (slot, hist)))
    (Pmem.Pblockchain.block_offsets chain);
  Option.get !found

let line off = off / Pmem.Media.cache_line

(* A new key's first insert on a heap whose reservation is warm takes
   three barriers: the first segment's capacity word, with the lines of
   the first record that lie before its stamp's line, then the chain
   slot (its commit word, which points at that segment), then the
   record's stamp. The allocator persists nothing. Key 3's chain slot
   lies within one line. *)
let new_key_insert_cost () =
  let heap = fresh_heap () in
  let t = PStore.create heap in
  PStore.insert t 1 1;
  PStore.insert t 2 2;
  let lines, fences = cost (Pmem.Pheap.stats heap) (fun () -> PStore.insert t 3 3) in
  let slot, first = chain_slot heap 3 in
  let stamp = first + 16 + 16 in
  let payload = List.filter (fun l -> l < line stamp) [ line (first + 16); line (first + 24) ] in
  let first_barrier = List.sort_uniq compare (line (first + 8) :: payload) in
  check_bool "the chain slot lies within one line" true (line slot = line (slot + 15));
  check_int "fences: capacity word, chain slot, record" 3 fences;
  check_int "lines: capacity word and payload, chain slot, stamp"
    (List.length first_barrier + 2) lines

(* New keys: publication, crash points and the insert race. *)

(* The keys whose chain slots a crashed heap's image holds, read
   through the key chain as a restart would, before [open_existing]
   touches it. *)
let durable_keys heap =
  let chain = Pmem.Pblockchain.attach heap (Pmem.Pheap.root_get heap 0) in
  let keys = ref [] in
  Pmem.Pblockchain.iter_slots chain (fun ~key ~hist:_ ->
      keys :=
        Mvdict.Codec.decode (module Mvdict.Codec.Int_key) (Pmem.Pheap.media heap) key
        :: !keys);
  !keys

(* For k = 1, 2, ... until it completes, the k-th flush of a write of
   new keys (one insert, or a 64-key batch, beside 64 existing keys)
   crashes. Every key the crashed store's index holds has its chain
   slot in the durable image: a writer can only find a key a restart
   can reach. Keys are published in ascending order, so the index
   holds the first [key_count - 64] of them. *)
let new_key_publication ~batch () =
  let keys = if batch then List.init 64 (fun i -> 1000 + i) else [ 1000 ] in
  let rec crash_at k =
    let media = Pmem.Media.create_ram ~crash_sim:true ~capacity:(1 lsl 20) () in
    let heap = Pmem.Pheap.create media in
    let t = PStore.create heap in
    for key = 0 to 63 do
      PStore.insert t key key
    done;
    Pmem.Media.crash_after media ~flushes:k;
    let completed =
      match
        if batch then PStore.insert_batch t (List.map (fun key -> (key, key)) keys)
        else PStore.insert t 1000 1000
      with
      | () -> true
      | exception Pmem.Media.Crash -> false
    in
    let indexed = List.filteri (fun i _ -> i < PStore.key_count t - 64) keys in
    Pmem.Media.simulate_crash media;
    let durable = durable_keys heap in
    List.iter
      (fun key ->
        check_bool
          (Printf.sprintf "crash at flush %d: key %d is indexed, so its chain slot is durable"
             k key)
          true (List.mem key durable))
      indexed;
    if not completed then crash_at (k + 1)
  in
  crash_at 1

(* Inside a batch scope, a stamp is written before the scope's barrier
   makes it durable. A find there must not count it (no reader moves
   fc), or it returns what a crash at that barrier loses. *)
let find_in_scope_counts_no_unpersisted_stamp () =
  let media, heap = crash_heap () in
  let ctx, board = history_env () in
  let h = registered_history heap (key_chain heap) 7 in
  PH.H.append heap h ~ctx ~board ~version:1 (int_word heap 10);
  let value slot =
    Mvdict.Codec.decode (module Mvdict.Codec.Int_value) media (PH.H.value heap h slot)
  in
  Pmem.Media.crash_after media ~flushes:1;
  let seen = ref None in
  (match
     Pmem.Media.with_batch (fun () ->
         let slot = PH.H.append_entry heap h ~version:1 (int_word heap 20) in
         ignore (PH.H.finish_entry heap h ~ctx ~slot);
         seen := Some (value (PH.H.find heap h ~ctx ~version:max_int)))
   with
  | () -> Alcotest.fail "the scope's barrier did not crash"
  | exception Pmem.Media.Crash -> ());
  Pmem.Media.simulate_crash media;
  let t = PStore.open_existing (Pmem.Pheap.reopen heap) in
  check_bool
    (Printf.sprintf "the reopened store returns what the find returned (%s)"
       (match !seen with Some v -> string_of_int v | None -> "none"))
    true
    (PStore.find t 7 = !seen)

(* A new key's first insert crashes at its last flush, its stamp's: the
   key's history and chain slot are durable, its entry is not. The
   reopened store indexes no key with an empty history: it clears the
   key's slot, which the next new key takes. *)
let new_key_crashed_at_its_stamp () =
  let run k =
    let media = Pmem.Media.create_ram ~crash_sim:true ~capacity:(1 lsl 20) () in
    let heap = Pmem.Pheap.create media in
    let t = PStore.create heap in
    PStore.insert t 1 10;
    PStore.insert t 2 20;
    Pmem.Media.crash_after media ~flushes:k;
    let completed =
      match PStore.insert t 3 30 with () -> true | exception Pmem.Media.Crash -> false
    in
    Pmem.Media.simulate_crash media;
    (heap, completed)
  in
  let rec last_flush k = if snd (run k) then k - 1 else last_flush (k + 1) in
  let heap, _ = run (last_flush 1) in
  check_bool "the crashed insert's chain slot is durable" true
    (List.mem 3 (durable_keys heap));
  let heap = Pmem.Pheap.reopen heap in
  let t = PStore.open_existing heap in
  check_int "indexed keys: those with an entry" 2 (PStore.key_count t);
  check_bool "key 3 absent" true (PStore.find t 3 = None);
  check_int "its chain slot is free" 1 (PStore.chain_free_slots t);
  PStore.insert t 4 40;
  check_int "the next new key takes it" 3 (PStore.chain_claimed t);
  Pmem.Media.simulate_crash (Pmem.Pheap.media heap);
  check_bool "the durable slots: keys 1, 2 and 4" true
    (List.sort compare (durable_keys heap) = [ 1; 2; 4 ])

(* One new key twice in a chunk: both copies are looked up before
   either is published, so the second loses the publication race to the
   first (Algorithm 2's cleanup). It appends its entry to the winner's
   history, clears its own chain slot and frees its history once the
   clear is durable. The store's first chain block is full but for the
   slot a compacted key left, so the winner takes that slot and the
   loser a slot in a fresh block past the winner's history, recycled
   from the compacted key: a barrier's lines then reach the image in
   that order. A crash at any flush leaves a prefix of the two entries,
   one durable chain slot per key the reopened store indexes and none
   for another key, and no block freed twice (a blob value must never
   be reachable from the loser's record and the winner's at once). *)
let chunk_racing_itself ~blobs () =
  let v x = if blobs then -x else x in
  let chains =
    [ (5, [ (1, Mvdict.Dict_intf.Put (v 50)) ]); (5, [ (1, Mvdict.Dict_intf.Put (v 51)) ]) ]
  in
  let others = List.init 62 (fun i -> 1000 + i) in
  let rec crash_at k =
    let media = Pmem.Media.create_ram ~crash_sim:true ~capacity:(1 lsl 20) () in
    let heap = Pmem.Pheap.create media in
    let t = PStore.create heap in
    List.iter (fun key -> PStore.insert t key key) (2000 :: others);
    PStore.remove t 2000;
    ignore (PStore.compact t ~before:(PStore.tag t));
    Pmem.Media.crash_after media ~flushes:k;
    let completed =
      match PStore.install_chains t ~since:0 chains with
      | () -> true
      | exception Pmem.Media.Crash -> false
    in
    if completed then begin
      check_bool "both entries in one history" true (history_values t 5 = [ v 50; v 51 ]);
      check_int "one live chain slot per key" 63
        (PStore.chain_claimed t - PStore.chain_free_slots t)
    end;
    Pmem.Media.simulate_crash media;
    let heap = Pmem.Pheap.reopen heap in
    let t = PStore.open_existing heap in
    let seen = history_values t 5 in
    check_bool
      (Printf.sprintf "crash at flush %d: key 5 holds a prefix of its entries" k)
      true
      (List.mem seen
         (if completed then [ [ v 50; v 51 ] ] else [ []; [ v 50 ]; [ v 50; v 51 ] ]));
    Pmem.Media.simulate_crash media;
    check_bool
      (Printf.sprintf "crash at flush %d: one durable chain slot per indexed key" k)
      true
      (List.sort compare (durable_keys heap) = if seen = [] then others else 5 :: others);
    check_bool (Printf.sprintf "crash at flush %d: no block freed twice" k) true
      (free_lists_distinct heap);
    if not completed then crash_at (k + 1)
  in
  crash_at 1

(* Two domains insert the same 256 new keys, one in batches and one
   singly, so they race to publish many of them. Whoever loses a key's
   race moves its entry to the winner's history: every key ends with
   both entries in one history. *)
let racing_keys = 256

let both_entries (type a) (module S : DICT with type t = a) (t : a) =
  List.for_all
    (fun key -> List.sort compare (values_of (S.extract_history t key)) = [ 1; 2 ])
    (List.init racing_keys Fun.id)

let race_new_keys (type a) (module S : DICT with type t = a) (t : a) =
  ignore
    (Concurrent.Parallel.run ~threads:2 (fun d ->
         if d = 0 then
           for b = 0 to (racing_keys / 16) - 1 do
             S.insert_batch t (List.init 16 (fun i -> ((16 * b) + i, 1)))
           done
         else
           for key = 0 to racing_keys - 1 do
             S.insert t key 2
           done));
  check_bool "every key holds both entries" true (both_entries (module S) t);
  check_int "keys" racing_keys (S.key_count t)

(* In persistent memory every key also ends with one chain slot, before
   a crash and after it. *)
let racing_new_keys () =
  let media = Pmem.Media.create_ram ~crash_sim:true ~capacity:(1 lsl 22) () in
  let heap = Pmem.Pheap.create media in
  let t = PStore.create heap in
  let n = racing_keys in
  race_new_keys (module P) t;
  check_int "one live chain slot per key" n
    (PStore.chain_claimed t - PStore.chain_free_slots t);
  Pmem.Media.simulate_crash media;
  check_bool "one durable chain slot per key" true
    (List.sort compare (durable_keys heap) = List.init n Fun.id);
  let t = PStore.open_existing (Pmem.Pheap.reopen heap) in
  check_int "keys after reopen" n (PStore.key_count t);
  check_bool "both entries after reopen" true (both_entries (module P) t)

(* One domain inserts batches of new keys; another appends to each key
   as soon as [key_count] shows it, and waits until a find returns the
   append. A seeded flush crashes. An append counts as acknowledged
   when, after the find saw it, a probe word persisted past it reaches
   the durable image: the crash had not fired yet, so the append was
   visible before it, and must be present after the reopen. *)
let publication_oracle () =
  let seed = Random.State.bits (Random.State.make_self_init ()) in
  let rng = Random.State.make [| seed |] in
  let media = Pmem.Media.create_ram ~crash_sim:true ~capacity:(1 lsl 22) () in
  let heap = Pmem.Pheap.create media in
  let t = PStore.create heap in
  let probe = Pmem.Alloc.alloc (Pmem.Pheap.allocator heap) 64 in
  let n = 256 and appended key = (10 * key) + 1 in
  let flush = 1 + Random.State.int rng 800 in
  let stop = Atomic.make false and acked = Array.make n 0 in
  Pmem.Media.crash_after media ~flushes:flush;
  let appender =
    Domain.spawn (fun () ->
        let count = ref 0 in
        let await cond =
          while (not (cond ())) && not (Atomic.get stop) do
            Domain.cpu_relax ()
          done;
          cond ()
        in
        (try
           for key = 0 to n - 1 do
             if not (await (fun () -> PStore.key_count t > key)) then raise Exit;
             PStore.insert t key (appended key);
             if await (fun () -> PStore.find t key = Some (appended key)) then begin
               acked.(!count) <- key;
               incr count;
               Pmem.Media.set_i64 media probe !count;
               Pmem.Media.persist media probe 8
             end
           done
         with Exit | Pmem.Media.Crash -> ());
        Atomic.set stop true)
  in
  (try
     let next = ref 0 in
     while !next < n do
       let b = min (n - !next) (1 + Random.State.int rng 16) in
       PStore.insert_batch t (List.init b (fun i -> (!next + i, 10 * (!next + i))));
       next := !next + b
     done
   with Pmem.Media.Crash -> ());
  Atomic.set stop true;
  Domain.join appender;
  Pmem.Media.simulate_crash media;
  let confirmed = Pmem.Media.get_i64 media probe in
  let t = PStore.open_existing (Pmem.Pheap.reopen heap) in
  for i = 0 to confirmed - 1 do
    let key = acked.(i) in
    check_bool
      (Printf.sprintf "seed %d, crash at flush %d: key %d's acknowledged append survives"
         seed flush key)
      true
      (PStore.find t key = Some (appended key))
  done

(* A record's persist cost: 1 line and 1 fence inside one line, 2 of
   each when it straddles two. *)
let record_cost heap chain_slot slot =
  let start = record_at heap chain_slot slot in
  if line start = line (start + 23) then 1 else 2

(* A write to an existing key is a chunk of one key with no new key:
   its payload barrier is empty for a one-line record and its chain
   barrier is skipped, so it costs the record (1 line and 1 fence, 2
   and 2 when it straddles) and a growth's link (1 and 1) when its slot
   is the capacity. *)
let existing_key_insert_cost () =
  let heap = fresh_heap () in
  let t = PStore.create heap in
  PStore.insert t 1 0;
  let key_slot, _ = chain_slot heap 1 in
  let one_line = ref 0 in
  for slot = 1 to 16 do
    let lines, fences = cost (Pmem.Pheap.stats heap) (fun () -> PStore.insert t 1 slot) in
    let record = record_cost heap key_slot slot in
    if record = 1 then incr one_line;
    let growth = if slot land (slot - 1) = 0 && slot >= 2 then 1 else 0 in
    check_int (Printf.sprintf "slot %d: lines" slot) (record + growth) lines;
    check_int (Printf.sprintf "slot %d: fences" slot) (record + growth) fences
  done;
  check_bool
    (Printf.sprintf "%d of 16 records fit one line, the rest straddle two" !one_line)
    true
    (!one_line > 0 && !one_line < 16)

(* A 64-key batch of existing keys with no growth costs 2 fences,
   0.031 per key: its payload barrier (the lines before the stamps of
   records that straddle two) and its stamps' barrier. The batch writes
   each key's fourth record, into the 56-byte segments that the third
   batch linked one after another, so that some of them straddle (every
   64-byte first segment starts at the same line offset, and each of
   their second records fits one line). *)
let existing_keys_batch_cost () =
  let heap = fresh_heap () in
  let t = PStore.create heap in
  let keys = List.init 64 (fun k -> 100 + k) in
  for v = 0 to 2 do
    PStore.insert_batch t (List.map (fun k -> (k, v)) keys)
  done;
  let straddling =
    List.length
      (List.filter (fun k -> record_cost heap (fst (chain_slot heap k)) 3 = 2) keys)
  in
  let _, fences =
    cost (Pmem.Pheap.stats heap) (fun () ->
        PStore.insert_batch t (List.map (fun k -> (k, 3)) keys))
  in
  check_bool "some fourth records straddle two lines" true (straddling > 0);
  check_int "fences: payloads, stamps" 2 fences

(* A 64-key batch of new keys costs its chunk's three barriers
   (histories and payloads, chain slots, stamps), plus a link for each
   key-chain block it starts and a word for each reservation move: about
   0.066 fences per key over the 4,000 keys of [--fig batch]. *)
let new_keys_batch_cost () =
  let heap = fresh_heap () in
  let t = PStore.create heap in
  PStore.insert t 0 0;
  let alloc = Pmem.Pheap.allocator heap in
  let blocks () = (PStore.chain_claimed t + 62) / 63 in
  let blocks0 = blocks () and reservation0 = Pmem.Alloc.reservation alloc in
  let _, fences =
    cost (Pmem.Pheap.stats heap) (fun () ->
        PStore.insert_batch t (List.init 64 (fun k -> (100 + k, k))))
  in
  let links = blocks () - blocks0 in
  let moves = if Pmem.Alloc.reservation alloc > reservation0 then 1 else 0 in
  check_int "the batch starts the second key-chain block" 1 links;
  check_int "fences: three barriers, a block link, a reservation move" (3 + links + moves)
    fences

(* A growth that crashed at its link's persist cut a segment that
   nothing durable links to. With persisted free lists (heap layout 3)
   it leaked for good; the rebuild at the next open finds it unmarked
   and frees it, so the next request of its size gets it back, zeroed,
   before any fresh memory. The crash point is the first flush that
   finds the link written; the segment holds the 2 records past the
   first segment's 2. *)
let crash_before_link_frees_segment () =
  let segment = 8 + (24 * 2) in
  let rec crash_at k =
    let media, heap = crash_heap () in
    let t = PStore.create heap in
    PStore.insert t 1 10;
    PStore.insert t 1 11;
    ignore (PStore.tag t);
    let _, first = chain_slot heap 1 in
    Pmem.Media.crash_after media ~flushes:k;
    (match PStore.insert t 1 12 with
    | () -> Alcotest.fail "the growing append did not crash"
    | exception Pmem.Media.Crash -> ());
    let seg = Pmem.Media.get_i64 media first in
    Pmem.Media.simulate_crash media;
    if seg = 0 then crash_at (k + 1) else (media, heap, first, seg)
  in
  let media, heap, first, seg = crash_at 1 in
  check_int "the link is not durable" 0 (Pmem.Media.get_i64 media first);
  let heap = Pmem.Pheap.reopen heap in
  let t = PStore.open_existing heap in
  check_bool "the history is as before the growth" true (history_values t 1 = [ 10; 11 ]);
  let alloc = Pmem.Pheap.allocator heap in
  let rec reused () =
    let used = Pmem.Alloc.used_bytes alloc in
    let off = Pmem.Alloc.alloc_zeroed alloc segment in
    if off = seg then true else if Pmem.Alloc.used_bytes alloc > used then false else reused ()
  in
  check_bool "the segment is handed out again before fresh memory" true (reused ());
  check_bool "zeroed" true
    (Bytes.for_all (fun c -> c = '\000') (Pmem.Media.read_bytes media seg segment))

let rebuild_free_bytes () = Obs.Snap.counter (Obs.Snap.of_registry ()) "pmem.rebuild.free_bytes"

let rebuilds () =
  match Obs.Snap.find_hist (Obs.Snap.of_registry ()) "pmem.rebuild.ns" with
  | Some h -> h.Obs.Snap.hcount
  | None -> 0

(* Each open records its rebuild in the registry: the bytes it freed
   and its time. A clean reopen of a pool no pass compacted frees at
   most the unused rest of the reservation; a reopen after a compaction
   also frees what the pass freed (and its allocations did not take
   back), which the registry shows. *)
let rebuild_reports_freed_bytes () =
  let heap = fresh_heap () in
  let t = PStore.create heap in
  for round = 0 to 3 do
    for k = 0 to 199 do
      PStore.insert t k (k + round)
    done;
    ignore (PStore.tag t)
  done;
  let reopen heap =
    let bytes = rebuild_free_bytes () and runs = rebuilds () in
    let heap = Pmem.Pheap.reopen heap in
    let t = PStore.open_existing heap in
    check_int "one rebuild per open" (runs + 1) (rebuilds ());
    (heap, t, rebuild_free_bytes () - bytes)
  in
  let heap, t, clean = reopen heap in
  check_bool (Printf.sprintf "clean reopen frees %d bytes, at most one chunk" clean) true
    (clean > 0 && clean <= Pmem.Alloc.reservation_chunk);
  let stats = Pmem.Pheap.stats heap in
  let live0 = Pmem.Pstats.live_bytes stats in
  let freed0 = Obs.Snap.counter (Obs.Snap.of_registry ()) "pmem.free_bytes" in
  ignore (PStore.retain t ~keep:1);
  let reclaimed = live0 - Pmem.Pstats.live_bytes stats
  and freed = Obs.Snap.counter (Obs.Snap.of_registry ()) "pmem.free_bytes" - freed0 in
  check_bool "the pass reclaimed memory" true (reclaimed > 0);
  let _, _, after = reopen heap in
  check_bool
    (Printf.sprintf "reopen after a pass that freed %d bytes (%d net) frees %d" freed
       reclaimed after)
    true
    (after >= reclaimed && after <= freed + Pmem.Alloc.reservation_chunk)

(* Every block the store can reach from heap root 0, with its allocated
   size, found by walking the media: the key chain and its blocks, and
   per slot its key blob, the segments of the history whose first one
   the slot points at, and the blobs its records point to. *)
let rounded_size size =
  match Array.find_opt (fun c -> c >= size) Pmem.Alloc.size_classes with
  | Some c -> c
  | None -> (size + 7) land lnot 7

let reachable_blocks heap =
  let media = Pmem.Pheap.media heap in
  let blocks = ref [] in
  let add off size = blocks := (off, rounded_size size) :: !blocks in
  let blob word =
    if Mvdict.Codec.is_blob word then
      add word (Pmem.Pblob.footprint (Pmem.Pblob.length media word))
  in
  let root = Pmem.Pheap.root_get heap 0 in
  let chain = Pmem.Pblockchain.attach heap root in
  add root 16;
  Array.iter
    (fun block -> add block (8 + (16 * Pmem.Pblockchain.block_slots chain)))
    (Pmem.Pblockchain.block_offsets chain);
  Pmem.Pblockchain.iter_slots chain (fun ~key ~hist:first ->
      blob key;
      let values seg base n =
        for i = 0 to n - 1 do
          blob (Pmem.Media.get_i64 media (seg + base + (24 * i) + 8))
        done
      in
      let c = Pmem.Media.get_i64 media (first + 8) in
      add first (16 + (24 * c));
      values first 16 c;
      let rec linked seg records =
        let next = Pmem.Media.get_i64 media seg in
        if next <> 0 then begin
          add next (8 + (24 * records));
          values next 8 records;
          linked next (2 * records)
        end
      in
      linked first c);
  !blocks

(* The reachable blocks and the free blocks tile the range the rebuild
   swept, [start, reservation): no block is both, and every byte that
   no block reaches is on a free list. *)
let blocks_tile heap =
  let alloc = Pmem.Pheap.allocator heap in
  let rec tiles pos = function
    | [] -> pos = Pmem.Alloc.reservation alloc
    | (off, size) :: rest -> off = pos && tiles (off + size) rest
  in
  tiles (Pmem.Alloc.start alloc)
    (List.sort compare (reachable_blocks heap @ Pmem.Alloc.free_blocks alloc))

type crash_op =
  | Put of int * int
  | Del of int
  | New_keys of int list  (** values of a batch of keys new to the store *)
  | Compact
  | Tag

(* Random inserts (negative values are blobs), removes, batches of new
   keys and compactions; the k-th flush crashes. After the reopen, the
   blocks tile the swept range, the latest values equal those after a
   prefix of the single-key events that holds every acknowledged one,
   and no block is on a free list twice. *)
let rebuild_crash_property =
  let open QCheck in
  let op =
    Gen.(
      frequency
        [
          (5, map2 (fun k v -> Put (k, v)) (int_bound 15) (int_range (-40) 40));
          (2, map (fun k -> Del k) (int_bound 15));
          (2, map (fun vs -> New_keys vs) (list_size (int_range 1 8) (int_range (-40) 40)));
          (1, return Compact);
          (2, return Tag);
        ])
  in
  Test.make ~name:"a crash at any flush leaves the rebuilt heap partitioned" ~count:100
    (make Gen.(pair (list_size (int_range 1 40) op) (int_range 1 160)))
    (fun (program, k) ->
      let media = Pmem.Media.create_ram ~crash_sim:true ~capacity:(1 lsl 20) () in
      let heap = Pmem.Pheap.create media in
      let t = PStore.create heap in
      let next_key = ref 100 in
      let events = ref [] and acked = ref 0 in
      let run = function
        | Put (k, v) -> events := !events @ [ (k, Some v) ]; PStore.insert t k v
        | Del k -> events := !events @ [ (k, None) ]; PStore.remove t k
        | New_keys vs ->
            let pairs = List.mapi (fun i v -> (!next_key + i, v)) vs in
            next_key := !next_key + List.length vs;
            events := !events @ List.map (fun (k, v) -> (k, Some v)) pairs;
            PStore.insert_batch t pairs
        | Compact -> ignore (PStore.retain t ~keep:1)
        | Tag -> ignore (PStore.tag t)
      in
      Pmem.Media.crash_after media ~flushes:k;
      (try
         List.iter
           (fun op ->
             run op;
             acked := List.length !events)
           program
       with Pmem.Media.Crash -> ());
      Pmem.Media.simulate_crash media;
      let heap = Pmem.Pheap.reopen heap in
      let t = PStore.open_existing heap in
      let seen = Array.to_list (PStore.extract_snapshot t ()) in
      let after j =
        let m =
          List.fold_left
            (fun m (k, v) -> IntMap.add k v m)
            IntMap.empty
            (List.filteri (fun i _ -> i < j) !events)
        in
        IntMap.fold (fun k v acc -> match v with Some v -> (k, v) :: acc | None -> acc) m []
        |> List.rev
      in
      let prefix =
        List.exists
          (fun j -> after j = seen)
          (List.init (List.length !events - !acked + 1) (fun i -> !acked + i))
      in
      prefix && blocks_tile heap && free_lists_distinct heap)

let () =
  Alcotest.run "mvdict"
    [
      ( "codec",
        [
          Alcotest.test_case "int inline" `Quick codec_int_inline_roundtrip;
          Alcotest.test_case "int blob fallback" `Quick codec_int_blob_fallback;
          Alcotest.test_case "string" `Quick codec_string_roundtrip;
          Alcotest.test_case "marker distinct" `Quick codec_marker_distinct;
        ] );
      ( "recovery",
        [
          Alcotest.test_case "recover_fc" `Quick recover_fc_cases;
          Alcotest.test_case "plan_blocks" `Quick plan_blocks_partition;
        ] );
      ( "lazy_tail",
        [
          Alcotest.test_case "basic" `Quick lazy_tail_basic;
          Alcotest.test_case "laziness" `Quick lazy_tail_is_lazy;
          Alcotest.test_case "events" `Quick lazy_tail_events;
          Alcotest.test_case "growth" `Quick lazy_tail_growth;
          Alcotest.test_case "concurrent appends" `Quick lazy_tail_concurrent_appends;
          Alcotest.test_case "fc gating" `Quick lazy_tail_fc_gates_visibility;
          Alcotest.test_case "find racing a growth, ESkipList, 1 writer" `Quick
            (find_races_growth (module E) ~writers:1);
          Alcotest.test_case "find racing a growth, ESkipList, 2 writers" `Quick
            (find_races_growth (module E) ~writers:2);
          Alcotest.test_case "find racing a growth, PSkipList, 1 writer" `Quick
            (find_races_growth (module P) ~writers:1);
          Alcotest.test_case "find racing a growth, PSkipList, 2 writers" `Quick
            (find_races_growth (module P) ~writers:2);
          Alcotest.test_case "a held stamp stalls the 4,096-cell ring" `Quick
            completion_ring_wraps;
          Alcotest.test_case "the completion ring keeps one word per cell" `Quick
            completion_footprint;
        ] );
      ("pskiplist-conformance", PC.tests "PSkipList");
      ("eskiplist-conformance", EC.tests "ESkipList");
      ("lockedmap-conformance", LC.tests "LockedMap");
      ("sqlitereg-conformance", SRC.tests "SQLiteReg");
      ("sqlitemem-conformance", SMC.tests "SQLiteMem");
      ( "pskiplist-persistence",
        [
          Alcotest.test_case "restart preserves data" `Quick pskiplist_restart_preserves_data;
          Alcotest.test_case "restart large, parallel rebuild" `Slow
            pskiplist_restart_large_parallel;
          Alcotest.test_case "continues after restart" `Quick
            pskiplist_store_continues_after_restart;
          Alcotest.test_case "crash consistency" `Quick pskiplist_crash_consistency;
          Alcotest.test_case "crash prunes torn append" `Quick
            pskiplist_crash_prunes_torn_append;
          Alcotest.test_case "recovery stamps" `Quick
            pskiplist_recovery_skips_out_of_order_stamp;
          Alcotest.test_case "blob values" `Quick pskiplist_blob_values;
          Alcotest.test_case "file-backed pool" `Quick pskiplist_file_backed_pool;
          Alcotest.test_case "string keys/values" `Quick pskiplist_string_store;
          Alcotest.test_case "insert into existing key allocation" `Quick
            pskiplist_insert_existing_allocation;
          Alcotest.test_case "find hit allocation" `Quick pskiplist_find_allocation;
          Alcotest.test_case "a pull allocates for the events it ships" `Quick
            pull_allocation;
          Alcotest.test_case "recovery counts stamps behind an unstamped slot" `Quick
            recovery_counts_stamps_behind_an_unstamped_slot;
        ] );
      ( "compaction",
        [
          Alcotest.test_case "preserves recent snapshots" `Quick
            compact_preserves_recent_snapshots;
          Alcotest.test_case "store works and recovers after compact" `Quick
            compact_store_still_works_and_recovers;
          Alcotest.test_case "recycles blob values" `Quick compact_recycles_blob_values;
          Alcotest.test_case "random program model" `Slow compact_random_program_model;
          Alcotest.test_case "a pass costs the floor plus the dropping keys" `Quick
            compaction_pass_cost;
          Alcotest.test_case "every crash point of a pass" `Quick compaction_crash_points;
          Alcotest.test_case "every crash point of a range drop" `Quick
            range_drop_crash_points;
          Alcotest.test_case "the horizon survives a reopen" `Quick compaction_horizon;
        ] );
      ( "gc",
        [
          Alcotest.test_case "scrubs emptied keys" `Quick compact_scrubs_emptied_keys;
          Alcotest.test_case "scrub survives restart" `Quick scrub_survives_restart;
          Alcotest.test_case "online gc with concurrent writer" `Quick
            online_gc_with_concurrent_writer;
          QCheck_alcotest.to_alcotest compact_twin_equivalence;
        ] );
      ( "batch",
        [
          Alcotest.test_case "coalescing saves pmem work" `Quick
            batch_coalescing_saves_pmem_work;
          QCheck_alcotest.to_alcotest batch_twin_equivalence;
          QCheck_alcotest.to_alcotest canonical_batches_equal_map_fold;
        ] );
      ( "append-persistence",
        [
          Alcotest.test_case "8 appends cost 10 lines and 10 fences" `Quick
            history_append_cost;
          Alcotest.test_case "growth persists no zeros" `Quick history_growth_cost;
          Alcotest.test_case "8 appends hold 224 live bytes" `Quick history_live_bytes;
          Alcotest.test_case "keys of 1, 2, 4 and 8 entries hold 64, 64, 120 and 224 bytes"
            `Quick bytes_per_key;
          Alcotest.test_case "crash before the stamp leaves a zero slot" `Quick
            crash_unstamped_one_line_record;
          Alcotest.test_case "crash mid straddling record at 48" `Quick
            (crash_unstamped_blob_record 48);
          Alcotest.test_case "crash mid straddling record at 56" `Quick
            (crash_unstamped_blob_record 56);
          Alcotest.test_case "crash before a one-line record's stamp frees its blob"
            `Quick (crash_unstamped_blob_record 0);
          Alcotest.test_case "crash after growth into a reused block" `Quick
            crash_growth_into_reused_block;
          Alcotest.test_case "crash mid batch keeps fresh memory zero" `Quick
            crash_mid_batch_keeps_fresh_memory_zero;
          Alcotest.test_case "every crash point of a growing history" `Quick
            (growth_crash_points ~batch:false);
          Alcotest.test_case "every crash point of a growing history, batched" `Quick
            (growth_crash_points ~batch:true);
          Alcotest.test_case "a new key's first insert costs 3 fences" `Quick
            new_key_insert_cost;
          Alcotest.test_case "an existing key's insert costs its record and a growth's link"
            `Quick existing_key_insert_cost;
          Alcotest.test_case "a 64-key batch of existing keys costs 2 fences" `Quick
            existing_keys_batch_cost;
          Alcotest.test_case "a 64-key batch of new keys costs 3 fences and its links" `Quick
            new_keys_batch_cost;
          Alcotest.test_case
            "a segment cut for a growth that crashed before its link is free after reopen"
            `Quick crash_before_link_frees_segment;
          Alcotest.test_case "a rebuild reports the bytes it frees" `Quick
            rebuild_reports_freed_bytes;
          Alcotest.test_case "a 4-entry history keeps at most 9 words of DRAM" `Quick
            history_footprint;
        ] );
      ( "new-keys",
        [
          Alcotest.test_case "an indexed new key's chain slot is durable at every crash point"
            `Quick (new_key_publication ~batch:false);
          Alcotest.test_case
            "an indexed new key's chain slot is durable at every crash point, 64-key batch"
            `Quick (new_key_publication ~batch:true);
          Alcotest.test_case "a find in a batch scope counts no unpersisted stamp" `Quick
            find_in_scope_counts_no_unpersisted_stamp;
          Alcotest.test_case "a new key crashed at its stamp is released at reopen" `Quick
            new_key_crashed_at_its_stamp;
          Alcotest.test_case "a chunk holding a new key twice publishes it once, at every crash point"
            `Quick (chunk_racing_itself ~blobs:false);
          Alcotest.test_case
            "a chunk holding a new key twice publishes it once, at every crash point, blob values"
            `Quick (chunk_racing_itself ~blobs:true);
          Alcotest.test_case "two domains racing to insert the same new keys" `Quick
            racing_new_keys;
          Alcotest.test_case "ESkipList: two domains racing to insert the same new keys"
            `Quick (fun () -> race_new_keys (module E) (E.create ()));
          Alcotest.test_case "appends seen visible survive a seeded crash (2 domains)" `Quick
            publication_oracle;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest qcheck_store_agreement;
          QCheck_alcotest.to_alcotest crash_point_property;
          QCheck_alcotest.to_alcotest rebuild_crash_property;
          Alcotest.test_case "crash after concurrent inserts" `Quick
            crash_after_concurrent_inserts;
        ] );
    ]
