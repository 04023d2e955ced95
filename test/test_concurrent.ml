(* Tests for lib/concurrent: skip list (sequential + concurrent +
   properties against a reference Map), red-black tree, parallel
   utilities, backoff. *)

module IntMap = Map.Make (Int)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let int_skiplist () = Concurrent.Skiplist.create ~compare:Int.compare ()

(* Skiplist: sequential behaviour *)

let skiplist_empty () =
  let s = int_skiplist () in
  check_int "cardinal" 0 (Concurrent.Skiplist.cardinal s);
  check_bool "find misses" true (Concurrent.Skiplist.find s 42 = None)

let skiplist_insert_find () =
  let s = int_skiplist () in
  (match Concurrent.Skiplist.find_or_insert s 10 ~make:(fun () -> "ten") with
  | Concurrent.Skiplist.Added v -> check_bool "added" true (v = "ten")
  | _ -> Alcotest.fail "expected Added");
  check_bool "found" true (Concurrent.Skiplist.find s 10 = Some "ten");
  (match Concurrent.Skiplist.find_or_insert s 10 ~make:(fun () -> "TEN") with
  | Concurrent.Skiplist.Found v -> check_bool "existing wins" true (v = "ten")
  | _ -> Alcotest.fail "expected Found");
  check_int "cardinal" 1 (Concurrent.Skiplist.cardinal s)

let skiplist_sorted_iteration () =
  let s = int_skiplist () in
  let keys = Workload.Keygen.unique_keys ~seed:3 2000 in
  Array.iter
    (fun k ->
      ignore (Concurrent.Skiplist.find_or_insert s k ~make:(fun () -> k * 2)))
    keys;
  check_int "cardinal" 2000 (Concurrent.Skiplist.cardinal s);
  let prev = ref min_int and count = ref 0 and ok = ref true in
  Concurrent.Skiplist.iter s (fun k v ->
      if k <= !prev || v <> k * 2 then ok := false;
      prev := k;
      incr count);
  check_bool "ascending with right values" true !ok;
  check_int "iterated all" 2000 !count

let skiplist_make_called_once () =
  let s = int_skiplist () in
  let calls = ref 0 in
  ignore
    (Concurrent.Skiplist.find_or_insert s 1 ~make:(fun () ->
         incr calls;
         ()));
  ignore (Concurrent.Skiplist.find_or_insert s 1 ~make:(fun () -> incr calls));
  check_int "make called once" 1 !calls

(* Skiplist: concurrent behaviour (small domain counts; the container has
   one core, so these mostly exercise interleavings via preemption). *)

let skiplist_concurrent_disjoint_inserts () =
  let s = int_skiplist () in
  let threads = 4 and per = 2000 in
  ignore
    (Concurrent.Parallel.run ~threads (fun tid ->
         for i = 0 to per - 1 do
           let k = (i * threads) + tid in
           ignore (Concurrent.Skiplist.find_or_insert s k ~make:(fun () -> k))
         done));
  check_int "cardinal" (threads * per) (Concurrent.Skiplist.cardinal s);
  let prev = ref min_int and n = ref 0 and ok = ref true in
  Concurrent.Skiplist.iter s (fun k _ ->
      if k <= !prev then ok := false;
      prev := k;
      incr n);
  check_bool "sorted" true !ok;
  check_int "all reachable" (threads * per) !n

let skiplist_concurrent_same_keys () =
  (* All domains fight over the same keys: exactly one Added per key,
     and every other domain, whether it lost the CAS or came later, is
     answered Found with the winner's value. *)
  let s = int_skiplist () in
  let threads = 4 and keys = 500 in
  let added = Array.init threads (fun _ -> ref 0) in
  let not_winner = Atomic.make 0 in
  ignore
    (Concurrent.Parallel.run ~threads (fun tid ->
         for k = 0 to keys - 1 do
           match Concurrent.Skiplist.find_or_insert s k ~make:(fun () -> (tid, k)) with
           | Concurrent.Skiplist.Added _ -> incr added.(tid)
           | Concurrent.Skiplist.Found v ->
               if Concurrent.Skiplist.find s k <> Some v then Atomic.incr not_winner
         done));
  let total_added = Array.fold_left (fun acc r -> acc + !(r)) 0 added in
  check_int "one winner per key" keys total_added;
  check_int "Found answers the winner's value" 0 (Atomic.get not_winner);
  check_int "cardinal" keys (Concurrent.Skiplist.cardinal s)

let skiplist_concurrent_readers_during_inserts () =
  let s = int_skiplist () in
  let n = 3000 in
  let writer_done = Atomic.make false in
  let results =
    Concurrent.Parallel.run ~threads:3 (fun tid ->
        if tid = 0 then begin
          for k = 0 to n - 1 do
            ignore (Concurrent.Skiplist.find_or_insert s k ~make:(fun () -> k))
          done;
          Atomic.set writer_done true;
          0
        end
        else begin
          (* Readers: sorted iteration must never observe disorder. *)
          let violations = ref 0 in
          while not (Atomic.get writer_done) do
            let prev = ref min_int in
            Concurrent.Skiplist.iter s (fun k _ ->
                if k <= !prev then incr violations;
                prev := k)
          done;
          !violations
        end)
  in
  check_int "no order violations" 0 (results.(1) + results.(2))

(* Two writers race towers of every height into one list from opposite
   ends (evens ascending, odds descending), while a reader descends from
   whatever [top] it reads: every key acknowledged before a find or a
   range scan must be in it, and every range comes back sorted, inside
   its bounds. *)
let skiplist_race_from_top () =
  let s = int_skiplist () in
  let n = 4_000 and width = 64 in
  let acked = [| Atomic.make 0; Atomic.make 0 |] in
  let key writer i = if writer = 0 then 2 * i else (2 * (n - 1 - i)) + 1 in
  let acknowledged k =
    if k >= 2 * n then false
    else if k land 1 = 0 then k / 2 < Atomic.get acked.(0)
    else n - 1 - (k / 2) < Atomic.get acked.(1)
  in
  let results =
    Concurrent.Parallel.run ~threads:3 (fun tid ->
        if tid < 2 then begin
          for i = 0 to n - 1 do
            let k = key tid i in
            ignore (Concurrent.Skiplist.find_or_insert s k ~make:(fun () -> k));
            Atomic.set acked.(tid) (i + 1)
          done;
          0
        end
        else begin
          let failures = ref 0 and round = ref 0 in
          while Atomic.get acked.(0) < n || Atomic.get acked.(1) < n do
            incr round;
            for writer = 0 to 1 do
              let upto = Atomic.get acked.(writer) in
              if upto > 0 then begin
                let k = key writer (!round * 7919 mod upto) in
                if Concurrent.Skiplist.find s k <> Some k then incr failures
              end
            done;
            let lo = !round * 37 mod (2 * n) in
            let hi = lo + width in
            let before = Array.init width (fun i -> acknowledged (lo + i)) in
            let seen = Array.make width false in
            let prev = ref (lo - 1) in
            Concurrent.Skiplist.iter_range s ~lo ~hi (fun k v ->
                if k <= !prev || k >= hi || v <> k then incr failures
                else seen.(k - lo) <- true;
                prev := k);
            Array.iteri
              (fun i acked_before -> if acked_before && not seen.(i) then incr failures)
              before
          done;
          !failures
        end)
  in
  check_int "acknowledged keys found, ranges sorted and complete" 0 results.(2);
  for k = 0 to (2 * n) - 1 do
    if Concurrent.Skiplist.find s k <> Some k then Alcotest.failf "key %d lost" k
  done;
  check_int "cardinal" (2 * n) (Concurrent.Skiplist.cardinal s)

(* Skiplist: footprint and allocation. A node is one block of its key,
   its value and one next cell per level it drew (2 expected, 5 words
   per key with the header) and every descent is a top-level recursion
   from [top], so the bounds below hold; a tower in its own array (7
   words per key), a boxed Atomic per cell, a tower of max_level cells
   per key, or a closure and a tuple per level per descent fails them. *)

let even_skiplist n =
  let s = int_skiplist () in
  for k = 0 to n - 1 do
    ignore (Concurrent.Skiplist.find_or_insert s (2 * k) ~make:(fun () -> ()))
  done;
  s

let skiplist_footprint () =
  let n = 10_000 in
  let words = Obj.reachable_words (Obj.repr (even_skiplist n)) in
  check_bool
    (Printf.sprintf "%d words for %d keys: at most 5.2 per key" words n)
    true
    (words * 5 <= 26 * n)

(* The two Gc.minor_words calls may box a handful of words; a per-call
   allocation shows up as thousands. *)
let skiplist_find_allocation () =
  let n = 10_000 in
  let s = even_skiplist n in
  let misses = 100_000 in
  let w0 = Gc.minor_words () in
  for i = 1 to misses do
    ignore (Sys.opaque_identity (Concurrent.Skiplist.find s ((2 * (i mod n)) + 1)))
  done;
  let w1 = Gc.minor_words () in
  check_bool
    (Printf.sprintf "%d find misses allocate < 64 words (%.0f)" misses (w1 -. w0))
    true
    (w1 -. w0 < 64.0);
  let hits = 10_000 in
  let w0 = Gc.minor_words () in
  for i = 1 to hits do
    ignore (Sys.opaque_identity (Concurrent.Skiplist.find s (2 * (i mod n))))
  done;
  let w1 = Gc.minor_words () in
  check_bool
    (Printf.sprintf "a find hit allocates at most its Some (%.0f words for %d)"
       (w1 -. w0) hits)
    true
    (w1 -. w0 <= (2.0 *. float_of_int hits) +. 64.0)

let skiplist_iter_range_allocation () =
  let s = even_skiplist 10_000 in
  let visited = ref 0 in
  let count _ () = incr visited in
  let w0 = Gc.minor_words () in
  for i = 1 to 1_000 do
    Concurrent.Skiplist.iter_range s ~lo:(i * 17) ~hi:((i * 17) + 40) count
  done;
  let w1 = Gc.minor_words () in
  check_int "every range visited" (1_000 * 20) !visited;
  check_bool
    (Printf.sprintf "1000 iter_range calls allocate < 64 words (%.0f)" (w1 -. w0))
    true
    (w1 -. w0 < 64.0)

(* Skiplist: model-based property test against Map *)

type skiplist_op =
  | Insert of int * int
  | Find of int
  | Scrub of (int * int) option * int * int
      (* range, then a dead set: the bindings whose seeded hash is 0 mod m *)

let skiplist_op =
  let open QCheck.Gen in
  let key = int_bound 200 in
  frequency
    [
      (6, map2 (fun k v -> Insert (k, v)) key small_nat);
      (2, map (fun k -> Find k) key);
      ( 1,
        map3 (fun r seed m -> Scrub (r, seed, m)) (opt (pair key key)) nat (int_range 1 4) );
    ]

let print_skiplist_op = function
  | Insert (k, v) -> Printf.sprintf "insert %d %d" k v
  | Find k -> Printf.sprintf "find %d" k
  | Scrub (None, seed, m) -> Printf.sprintf "scrub seed %d mod %d" seed m
  | Scrub (Some (lo, hi), seed, m) ->
      Printf.sprintf "scrub [%d, %d) seed %d mod %d" lo hi seed m

(* Scrubs store into published cells without a CAS, so the model checks
   every level they relink through [find] (which descends all of them),
   level 0 through [iter], and the count. *)
let qcheck_skiplist_vs_map =
  let open QCheck in
  Test.make ~name:"skiplist agrees with Map on random programs" ~count:200
    (make
       ~print:Print.(list print_skiplist_op)
       Gen.(list_size (int_bound 400) skiplist_op))
    (fun ops ->
      let s = int_skiplist () in
      let model = ref IntMap.empty in
      let agrees () =
        let from_skiplist = ref [] in
        Concurrent.Skiplist.iter s (fun k v -> from_skiplist := (k, v) :: !from_skiplist);
        List.rev !from_skiplist = IntMap.bindings !model
        && Concurrent.Skiplist.cardinal s = IntMap.cardinal !model
        && List.for_all
             (fun k -> Concurrent.Skiplist.find s k = IntMap.find_opt k !model)
             (List.init 202 (fun k -> k - 1))
      in
      List.for_all
        (function
          | Insert (k, v) ->
              (match Concurrent.Skiplist.find_or_insert s k ~make:(fun () -> v) with
              | Concurrent.Skiplist.Added _ ->
                  if not (IntMap.mem k !model) then model := IntMap.add k v !model
              | _ -> ());
              true
          | Find k -> Concurrent.Skiplist.find s k = IntMap.find_opt k !model
          | Scrub (range, seed, m) ->
              let in_range k =
                match range with None -> true | Some (lo, hi) -> lo <= k && k < hi
              in
              let gone k v = in_range k && Hashtbl.seeded_hash seed (k, v) mod m = 0 in
              let asked_wrong = ref 0 in
              let removed =
                Concurrent.Skiplist.scrub ?range s ~dead:(fun k v ->
                    if not (in_range k) || IntMap.find_opt k !model <> Some v then
                      incr asked_wrong;
                    gone k v)
              in
              let before = IntMap.cardinal !model in
              model := IntMap.filter (fun k v -> not (gone k v)) !model;
              !asked_wrong = 0
              && removed = before - IntMap.cardinal !model
              && agrees ())
        ops
      && agrees ())

(* Red-black tree *)

let rbtree_basic () =
  let t = Concurrent.Rbtree.create ~compare:Int.compare () in
  check_bool "empty find" true (Concurrent.Rbtree.find t 1 = None);
  Concurrent.Rbtree.insert t 5 "five";
  Concurrent.Rbtree.insert t 3 "three";
  Concurrent.Rbtree.insert t 8 "eight";
  check_bool "find 3" true (Concurrent.Rbtree.find t 3 = Some "three");
  check_bool "find 9" true (Concurrent.Rbtree.find t 9 = None);
  check_int "cardinal" 3 (Concurrent.Rbtree.cardinal t);
  Concurrent.Rbtree.insert t 3 "THREE";
  check_bool "replace" true (Concurrent.Rbtree.find t 3 = Some "THREE");
  check_int "cardinal unchanged" 3 (Concurrent.Rbtree.cardinal t)

let rbtree_sorted_iter () =
  let t = Concurrent.Rbtree.create ~compare:Int.compare () in
  let keys = Workload.Keygen.unique_keys ~seed:9 5000 in
  Array.iter (fun k -> Concurrent.Rbtree.insert t k k) keys;
  let prev = ref min_int and count = ref 0 and ok = ref true in
  Concurrent.Rbtree.iter t (fun k _ ->
      if k <= !prev then ok := false;
      prev := k;
      incr count);
  check_bool "ascending" true !ok;
  check_int "all present" 5000 !count;
  check_bool "red-black invariants" true (Concurrent.Rbtree.invariants_ok t)

let rbtree_find_or_insert () =
  let t = Concurrent.Rbtree.create ~compare:Int.compare () in
  let v1 = Concurrent.Rbtree.find_or_insert t 1 ~make:(fun () -> ref 10) in
  let v2 = Concurrent.Rbtree.find_or_insert t 1 ~make:(fun () -> ref 20) in
  check_bool "same ref returned" true (v1 == v2)

let qcheck_rbtree_vs_map =
  let open QCheck in
  Test.make ~name:"rbtree agrees with Map and keeps invariants" ~count:200
    (list (pair small_int small_int))
    (fun ops ->
      let t = Concurrent.Rbtree.create ~compare:Int.compare () in
      let model = ref IntMap.empty in
      List.iter
        (fun (k, v) ->
          Concurrent.Rbtree.insert t k v;
          model := IntMap.add k v !model)
        ops;
      let bindings = ref [] in
      Concurrent.Rbtree.iter t (fun k v -> bindings := (k, v) :: !bindings);
      List.rev !bindings = IntMap.bindings !model
      && Concurrent.Rbtree.invariants_ok t)

(* Range scans *)

let skiplist_iter_range () =
  let s = int_skiplist () in
  List.iter
    (fun k -> ignore (Concurrent.Skiplist.find_or_insert s k ~make:(fun () -> k)))
    [ 2; 4; 6; 8; 10 ];
  let collect lo hi =
    let acc = ref [] in
    Concurrent.Skiplist.iter_range s ~lo ~hi (fun k _ -> acc := k :: !acc);
    List.rev !acc
  in
  Alcotest.(check (list int)) "interior" [ 4; 6 ] (collect 3 8);
  Alcotest.(check (list int)) "inclusive lo" [ 4; 6; 8 ] (collect 4 9);
  Alcotest.(check (list int)) "exclusive hi" [ 4; 6 ] (collect 4 8);
  Alcotest.(check (list int)) "empty" [] (collect 11 20);
  Alcotest.(check (list int)) "all" [ 2; 4; 6; 8; 10 ] (collect min_int max_int)

let rbtree_iter_range () =
  let t = Concurrent.Rbtree.create ~compare:Int.compare () in
  List.iter (fun k -> Concurrent.Rbtree.insert t k k) [ 5; 1; 9; 3; 7 ];
  let collect lo hi =
    let acc = ref [] in
    Concurrent.Rbtree.iter_range t ~lo ~hi (fun k _ -> acc := k :: !acc);
    List.rev !acc
  in
  Alcotest.(check (list int)) "interior" [ 3; 5; 7 ] (collect 2 8);
  Alcotest.(check (list int)) "bounds" [ 3; 5 ] (collect 3 7);
  Alcotest.(check (list int)) "empty" [] (collect 10 20)

let qcheck_range_vs_map =
  let open QCheck in
  Test.make ~name:"iter_range agrees with Map filtering" ~count:200
    (triple (list small_int) small_int small_int)
    (fun (keys, a, b) ->
      let lo = min a b and hi = max a b in
      let s = int_skiplist () in
      let t = Concurrent.Rbtree.create ~compare:Int.compare () in
      let model = ref IntMap.empty in
      List.iter
        (fun k ->
          ignore (Concurrent.Skiplist.find_or_insert s k ~make:(fun () -> k));
          Concurrent.Rbtree.insert t k k;
          if not (IntMap.mem k !model) then model := IntMap.add k k !model)
        keys;
      let expected =
        List.filter (fun (k, _) -> k >= lo && k < hi) (IntMap.bindings !model)
      in
      let got_s = ref [] and got_t = ref [] in
      Concurrent.Skiplist.iter_range s ~lo ~hi (fun k v -> got_s := (k, v) :: !got_s);
      Concurrent.Rbtree.iter_range t ~lo ~hi (fun k v -> got_t := (k, v) :: !got_t);
      List.rev !got_s = expected
      && List.sort compare (List.rev !got_t) = expected)

(* RW lock *)

let rwlock_mutual_exclusion () =
  let lock = Concurrent.Rwlock.create () in
  let counter = ref 0 in
  let threads = 4 and per = 2000 in
  ignore
    (Concurrent.Parallel.run ~threads (fun _ ->
         for _ = 1 to per do
           Concurrent.Rwlock.write lock (fun () ->
               let v = !counter in
               counter := v + 1)
         done));
  check_int "no lost increments" (threads * per) !counter

let rwlock_readers_share () =
  let lock = Concurrent.Rwlock.create () in
  let peak = Atomic.make 0 in
  ignore
    (Concurrent.Parallel.run ~threads:4 (fun _ ->
         for _ = 1 to 200 do
           Concurrent.Rwlock.read lock (fun () ->
               let now = Concurrent.Rwlock.readers lock in
               let rec bump () =
                 let best = Atomic.get peak in
                 if now > best && not (Atomic.compare_and_set peak best now) then bump ()
               in
               bump ())
         done));
  check_bool "lock works under reader load" true (Atomic.get peak >= 1)

let rwlock_writer_sees_consistent_state () =
  let lock = Concurrent.Rwlock.create () in
  let a = ref 0 and b = ref 0 in
  let torn = Atomic.make 0 in
  ignore
    (Concurrent.Parallel.run ~threads:3 (fun tid ->
         if tid = 0 then
           for i = 1 to 3000 do
             Concurrent.Rwlock.write lock (fun () ->
                 a := i;
                 b := i)
           done
         else
           for _ = 1 to 3000 do
             Concurrent.Rwlock.read lock (fun () ->
                 if !a <> !b then ignore (Atomic.fetch_and_add torn 1))
           done));
  check_int "readers never observe a torn write" 0 (Atomic.get torn)

(* Parallel *)

let parallel_results_in_order () =
  let r = Concurrent.Parallel.run ~threads:4 (fun tid -> tid * tid) in
  Alcotest.(check (array int)) "results" [| 0; 1; 4; 9 |] r

let parallel_single_thread_inline () =
  let r = Concurrent.Parallel.run ~threads:1 (fun tid -> tid + 100) in
  Alcotest.(check (array int)) "inline" [| 100 |] r

let parallel_exception_propagates () =
  Alcotest.check_raises "worker failure" (Failure "worker 2") (fun () ->
      ignore
        (Concurrent.Parallel.run ~threads:4 (fun tid ->
             if tid = 2 then failwith "worker 2")))

let backoff_bounded () =
  let b = Concurrent.Backoff.create ~min:1 ~max:4 () in
  (* Just exercise the growth/reset paths. *)
  for _ = 1 to 10 do
    Concurrent.Backoff.once b
  done;
  Concurrent.Backoff.reset b;
  Concurrent.Backoff.once b;
  check_bool "alive" true true

let backoff_jitter_decorrelated () =
  (* Delays stay within [min, max] under jitter, and the schedule is
     deterministic for a given seed. *)
  let schedule seed =
    let b = Concurrent.Backoff.create ~min:2 ~max:64 ~jitter:true ~seed () in
    List.init 20 (fun _ ->
        let d = Concurrent.Backoff.current b in
        Concurrent.Backoff.once b;
        d)
  in
  List.iter
    (fun d -> check_bool "delay within [min,max]" true (d >= 2 && d <= 64))
    (schedule 42);
  check_bool "seeded schedule is reproducible" true (schedule 42 = schedule 42);
  (* The point of jitter: two contenders created side by side must NOT
     walk identical delay sequences (the lockstep re-dial storm). With
     distinct seeds, 20 draws over [2,64] colliding at every step is
     ~impossible; without jitter both schedules are the same doubling. *)
  check_bool "distinct instances decorrelate" true (schedule 1 <> schedule 2);
  let unjittered () =
    let b = Concurrent.Backoff.create ~min:2 ~max:64 () in
    List.init 20 (fun _ ->
        let d = Concurrent.Backoff.current b in
        Concurrent.Backoff.once b;
        d)
  in
  check_bool "no jitter means lockstep doubling" true (unjittered () = unjittered ())

(* Atomic_field: CAS and fetch-and-add on a field in place. *)

let atomic_field_cas () =
  let x = ref 1 and y = ref 2 and z = ref 3 in
  let a = [| x; y |] in
  check_bool "CAS from a value the cell does not hold fails" false
    (Concurrent.Atomic_field.compare_and_set a 0 y z);
  check_bool "and leaves the cell unchanged" true (a.(0) == x && a.(1) == y);
  check_bool "CAS from the value it holds succeeds" true
    (Concurrent.Atomic_field.compare_and_set a 1 y z);
  check_bool "and sets that cell alone" true (a.(0) == x && a.(1) == z);
  check_bool "CAS compares physically" false
    (Concurrent.Atomic_field.compare_and_set a 1 (ref 3) y);
  Alcotest.check_raises "CAS past the end"
    (Invalid_argument "Atomic_field.compare_and_set") (fun () ->
      ignore (Concurrent.Atomic_field.compare_and_set a 2 z y))

(* [hits] is field 1 of the record. *)
type counter = { label : string; mutable hits : int }

let atomic_field_fetch_and_add () =
  let c = { label = "c"; hits = 0 } in
  check_int "returns the old value" 0 (Concurrent.Atomic_field.fetch_and_add_field c 1 5);
  check_int "returns the old value again" 5
    (Concurrent.Atomic_field.fetch_and_add_field c 1 (-2));
  check_int "field holds the sum" 3 c.hits;
  check_bool "other fields untouched" true (c.label = "c");
  let adds = 100_000 in
  ignore
    (Concurrent.Parallel.run ~threads:2 (fun _ ->
         for _ = 1 to adds do
           ignore (Concurrent.Atomic_field.fetch_and_add_field c 1 1)
         done));
  check_int "2 domains x 100,000 adds sum exactly" (3 + (2 * adds)) c.hits

(* Sequentially consistent int stores and loads, on array cells and a
   record field alike: a store lands in its field alone, and a load
   reads what the last store left. *)
let atomic_field_int_store_load () =
  let a = Array.make 4 0 in
  Concurrent.Atomic_field.store_int_field a 2 7;
  check_bool "a store sets its cell alone" true (a = [| 0; 0; 7; 0 |]);
  check_int "a load reads it back" 7 (Concurrent.Atomic_field.load_int_field a 2);
  let c = { label = "c"; hits = 0 } in
  Concurrent.Atomic_field.store_int_field c 1 (-5);
  check_int "a record field too" (-5) (Concurrent.Atomic_field.load_int_field c 1);
  check_bool "other fields untouched" true (c.label = "c");
  ignore
    (Concurrent.Parallel.run ~threads:2 (fun tid ->
         for i = 1 to 10_000 do
           Concurrent.Atomic_field.store_int_field a tid i
         done));
  check_bool "each domain's last store stays" true (a.(0) = 10_000 && a.(1) = 10_000)

(* The write barrier: a CAS stores fresh (minor-heap) blocks into a
   promoted array, and nothing else refers to them once [fill]
   returns. Only the remembered set keeps them alive and updates the
   cells at the next minor collection; a CAS without the barrier
   leaves the cells pointing into a reused minor heap (a stub that did
   a raw C11 CAS read back none of the 10,000, and the suite then
   crashed). *)
let atomic_field_write_barrier () =
  let n = 10_000 in
  let cells = Array.make n (0, 0) in
  Gc.full_major ();
  let[@inline never] fill () =
    for i = 0 to n - 1 do
      let seen = cells.(i) in
      if not (Concurrent.Atomic_field.compare_and_set cells i seen (i, -i)) then
        Alcotest.fail "uncontended CAS failed"
    done
  in
  fill ();
  Gc.minor ();
  (* Overwrite the minor heap the fresh blocks were allocated in. *)
  let junk = List.init 100_000 (fun i -> (-1, i)) in
  let intact = ref 0 in
  Array.iteri (fun i (a, b) -> if a = i && b = -i then incr intact) cells;
  check_int "every CASed block reads back intact after Gc.minor" n !intact;
  Gc.full_major ();
  check_int "and after Gc.full_major" n
    (Array.fold_left (fun acc (a, b) -> if a = -b then acc + 1 else acc) 0 cells);
  ignore (Sys.opaque_identity junk)

(* [scrub] on keys 0..4095 inserted in scrambled order (towers of many
   levels), with [dead] holding runs of consecutive keys. Every level
   must stay sorted and reachable afterwards: [find] answers each key,
   [iter] yields the survivors in order and [cardinal] agrees, and after
   the removed keys are inserted again (each insert descends through
   every level) all 4,096 are reachable. A ranged scrub asks [dead]
   about keys in its range only. *)
let scrub_check ?range ~dead () =
  let n = 4096 in
  let s = int_skiplist () in
  let scrambled = List.init n (fun i -> (i * 2_654_435_761) land (n - 1)) in
  let insert k = ignore (Concurrent.Skiplist.find_or_insert s k ~make:(fun () -> 2 * k)) in
  List.iter insert scrambled;
  check_bool "multi-level towers" true (Concurrent.Skiplist.height s >= 6);
  let in_range k = match range with None -> true | Some (lo, hi) -> lo <= k && k < hi in
  let gone k = in_range k && dead k in
  let asked_outside = ref 0 in
  let removed =
    Concurrent.Skiplist.scrub ?range s ~dead:(fun k v ->
        if not (in_range k) || v <> 2 * k then incr asked_outside;
        dead k)
  in
  check_int "dead asked about keys in the range only" 0 !asked_outside;
  let survivors = List.filter (fun k -> not (gone k)) (List.init n Fun.id) in
  let reachable expect =
    check_int "cardinal" (List.length expect) (Concurrent.Skiplist.cardinal s);
    let seen = ref [] in
    Concurrent.Skiplist.iter s (fun k _ -> seen := k :: !seen);
    check_bool "iter yields the keys in order" true (List.rev !seen = expect);
    let wrong = ref 0 in
    for k = 0 to n - 1 do
      let want = if List.mem k expect then Some (2 * k) else None in
      if Concurrent.Skiplist.find s k <> want then incr wrong
    done;
    check_int "keys find answers wrongly" 0 !wrong
  in
  check_int "removed" (n - List.length survivors) removed;
  reachable survivors;
  List.iter (fun k -> if gone k then insert k) scrambled;
  reachable (List.init n Fun.id)

let runs_of_seven k = k / 7 mod 2 = 0

let skiplist_scrub_whole () = scrub_check ~dead:runs_of_seven ()

let skiplist_scrub_range () =
  scrub_check ~range:(1000, 3001) ~dead:runs_of_seven ();
  scrub_check ~range:(1000, 1100) ~dead:(fun _ -> true) ();
  scrub_check ~range:(min_int, 1) ~dead:(fun _ -> true) ();
  scrub_check ~range:(4000, max_int) ~dead:(fun _ -> true) ();
  scrub_check ~range:(5000, 6000) ~dead:(fun _ -> true) ()

let () =
  Alcotest.run "concurrent"
    [
      ( "skiplist",
        [
          Alcotest.test_case "empty" `Quick skiplist_empty;
          Alcotest.test_case "insert/find" `Quick skiplist_insert_find;
          Alcotest.test_case "sorted iteration" `Quick skiplist_sorted_iteration;
          Alcotest.test_case "make called once" `Quick skiplist_make_called_once;
          Alcotest.test_case "concurrent disjoint inserts" `Quick
            skiplist_concurrent_disjoint_inserts;
          Alcotest.test_case "concurrent same keys" `Quick skiplist_concurrent_same_keys;
          Alcotest.test_case "readers during inserts" `Quick
            skiplist_concurrent_readers_during_inserts;
          Alcotest.test_case "race from top" `Quick skiplist_race_from_top;
          Alcotest.test_case "footprint per key" `Quick skiplist_footprint;
          Alcotest.test_case "find allocation" `Quick skiplist_find_allocation;
          Alcotest.test_case "iter_range allocation" `Quick
            skiplist_iter_range_allocation;
          Alcotest.test_case "scrub the whole index" `Quick skiplist_scrub_whole;
          Alcotest.test_case "scrub a range" `Quick skiplist_scrub_range;
          QCheck_alcotest.to_alcotest qcheck_skiplist_vs_map;
        ] );
      ( "rbtree",
        [
          Alcotest.test_case "basic" `Quick rbtree_basic;
          Alcotest.test_case "sorted iter + invariants" `Quick rbtree_sorted_iter;
          Alcotest.test_case "find_or_insert" `Quick rbtree_find_or_insert;
          QCheck_alcotest.to_alcotest qcheck_rbtree_vs_map;
        ] );
      ( "range",
        [
          Alcotest.test_case "skiplist iter_range" `Quick skiplist_iter_range;
          Alcotest.test_case "rbtree iter_range" `Quick rbtree_iter_range;
          QCheck_alcotest.to_alcotest qcheck_range_vs_map;
        ] );
      ( "rwlock",
        [
          Alcotest.test_case "mutual exclusion" `Quick rwlock_mutual_exclusion;
          Alcotest.test_case "readers share" `Quick rwlock_readers_share;
          Alcotest.test_case "no torn reads" `Quick rwlock_writer_sees_consistent_state;
        ] );
      ( "parallel",
        [
          Alcotest.test_case "results in order" `Quick parallel_results_in_order;
          Alcotest.test_case "single thread inline" `Quick parallel_single_thread_inline;
          Alcotest.test_case "exception propagates" `Quick parallel_exception_propagates;
          Alcotest.test_case "backoff" `Quick backoff_bounded;
          Alcotest.test_case "backoff jitter decorrelates" `Quick
            backoff_jitter_decorrelated;
        ] );
      ( "atomic",
        [
          Alcotest.test_case "a failed CAS leaves the cell unchanged" `Quick
            atomic_field_cas;
          Alcotest.test_case "fetch_and_add from 2 domains sums exactly" `Quick
            atomic_field_fetch_and_add;
          Alcotest.test_case "write barrier: CASed young blocks survive Gc.minor"
            `Quick atomic_field_write_barrier;
          Alcotest.test_case "an int stored in place loads back" `Quick
            atomic_field_int_store_load;
        ] );
    ]
