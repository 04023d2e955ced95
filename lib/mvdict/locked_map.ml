module EH = Ehistory.Make (Int)

type key = int
type value = int

type t = {
  map : (int, EH.t) Concurrent.Rbtree.t;
  lock : Mutex.t;
  ctx : Version.t;
  board : Completion.t;
}

let name = "LockedMap"

(* Hot-path op metrics (lib/obs). *)
let m_insert = Obs.Instr.op "mvdict.lockedmap.insert"
let m_remove = Obs.Instr.op "mvdict.lockedmap.remove"
let m_insert_batch = Obs.Instr.op "mvdict.lockedmap.insert_batch"
let m_remove_batch = Obs.Instr.op "mvdict.lockedmap.remove_batch"
let m_find = Obs.Instr.op "mvdict.lockedmap.find"
let m_history = Obs.Instr.op "mvdict.lockedmap.history"
let m_snapshot = Obs.Instr.op "mvdict.lockedmap.snapshot"

let create () =
  let ctx = Version.create () in
  { map = Concurrent.Rbtree.create ~compare:Int.compare ();
    lock = Mutex.create ();
    ctx;
    board = Completion.create ctx }

let with_lock t f =
  Mutex.lock t.lock;
  match f () with
  | result ->
      Mutex.unlock t.lock;
      result
  | exception e ->
      Mutex.unlock t.lock;
      raise e

let append t key value =
  let version = Version.stamp t.ctx in
  let h = with_lock t (fun () -> Concurrent.Rbtree.find_or_insert t.map key ~make:EH.create) in
  (* The history itself is lock-free; only the index is serialised. *)
  EH.H.append () h ~ctx:t.ctx ~board:t.board ~version value

let insert t key value =
  let t0 = Obs.Instr.start () in
  append t key (Some value);
  Obs.Instr.finish m_insert t0

let remove t key =
  let t0 = Obs.Instr.start () in
  append t key None;
  Obs.Instr.finish m_remove t0

(* Amortized fallback: resolve every history under one lock
   acquisition instead of one per key, then append lock-free with a
   single stamped version for the whole canonical batch. *)
let append_all t items ~value_of =
  let version = Version.stamp t.ctx in
  let resolved =
    with_lock t (fun () ->
        List.map
          (fun (key, x) ->
            (Concurrent.Rbtree.find_or_insert t.map key ~make:EH.create, x))
          items)
  in
  List.iter
    (fun (h, x) ->
      EH.H.append () h ~ctx:t.ctx ~board:t.board ~version (value_of x))
    resolved

let insert_batch t pairs =
  let t0 = Obs.Instr.start () in
  append_all t
    (Dict_intf.canonical_pairs ~compare:Int.compare pairs)
    ~value_of:(fun v -> Some v);
  Obs.Instr.finish m_insert_batch t0

let remove_batch t keys =
  let t0 = Obs.Instr.start () in
  append_all t
    (List.map
       (fun k -> (k, ()))
       (Dict_intf.canonical_keys ~compare:Int.compare keys))
    ~value_of:(fun () -> None);
  Obs.Instr.finish m_remove_batch t0

let tag t = Version.tag t.ctx
let current_version t = Version.current t.ctx

let find t ?(version = max_int) key =
  let t0 = Obs.Instr.start () in
  let result =
    match with_lock t (fun () -> Concurrent.Rbtree.find t.map key) with
    | None -> None
    | Some h -> EH.lookup h ~ctx:t.ctx ~version
  in
  Obs.Instr.finish m_find t0;
  result

let extract_history t key =
  let t0 = Obs.Instr.start () in
  let result =
    match with_lock t (fun () -> Concurrent.Rbtree.find t.map key) with
    | None -> []
    | Some h ->
        List.map
          (fun (version, value) ->
            match value with
            | Some v -> (version, Dict_intf.Put v)
            | None -> (version, Dict_intf.Del))
          (EH.H.events () h ~ctx:t.ctx ~since:0)
  in
  Obs.Instr.finish m_history t0;
  result

let iter_snapshot t ?(version = max_int) f =
  (* The whole ordered walk holds the lock — the behaviour the paper's
     extract-snapshot experiment punishes. *)
  with_lock t (fun () ->
      Concurrent.Rbtree.iter t.map (fun key h ->
          match EH.lookup h ~ctx:t.ctx ~version with
          | None -> ()
          | Some v -> f key v))

let iter_range t ?(version = max_int) ~lo ~hi f =
  with_lock t (fun () ->
      Concurrent.Rbtree.iter_range t.map ~lo ~hi (fun key h ->
          match EH.lookup h ~ctx:t.ctx ~version with
          | None -> ()
          | Some v -> f key v))

let extract_snapshot t ?version () =
  let t0 = Obs.Instr.start () in
  let acc = ref [] in
  iter_snapshot t ?version (fun k v -> acc := (k, v) :: !acc);
  let a = Array.of_list !acc in
  let n = Array.length a in
  let result = Array.init n (fun i -> a.(n - 1 - i)) in
  Obs.Instr.finish m_snapshot t0;
  result

let key_count t = with_lock t (fun () -> Concurrent.Rbtree.cardinal t.map)
