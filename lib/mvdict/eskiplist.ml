module Make (K : sig
  type t

  val compare : t -> t -> int
end) (V : sig
  type t
end) =
struct
  module EH = Ehistory.Make (V)

  type key = K.t
  type value = V.t

  type t = {
    index : (K.t, EH.t) Concurrent.Skiplist.t;
    ctx : Version.t;
    board : Completion.t;
  }

  let name = "ESkipList"

  (* Hot-path op metrics (lib/obs); shared across instantiations. *)
  let m_insert = Obs.Instr.op "mvdict.eskiplist.insert"
  let m_remove = Obs.Instr.op "mvdict.eskiplist.remove"
  let m_insert_batch = Obs.Instr.op "mvdict.eskiplist.insert_batch"
  let m_remove_batch = Obs.Instr.op "mvdict.eskiplist.remove_batch"
  let m_find = Obs.Instr.op "mvdict.eskiplist.find"
  let m_history = Obs.Instr.op "mvdict.eskiplist.history"
  let m_snapshot = Obs.Instr.op "mvdict.eskiplist.snapshot"

  let create () =
    let ctx = Version.create () in
    { index = Concurrent.Skiplist.create ~compare:K.compare ();
      ctx;
      board = Completion.create ctx }

  let history_of t key =
    match
      Concurrent.Skiplist.find_or_insert t.index key ~make:EH.create
    with
    | Concurrent.Skiplist.Added h | Found h | Raced { existing = h; _ } -> h
    (* A raced speculative history was never linked nor appended to; the
       GC reclaims it — nothing to clean up in the ephemeral store. *)

  let append t key value =
    let version = Version.stamp t.ctx in
    EH.H.append () (history_of t key) ~ctx:t.ctx ~board:t.board ~version value

  let insert t key value =
    let t0 = Obs.Instr.start () in
    append t key (Some value);
    Obs.Instr.finish m_insert t0

  let remove t key =
    let t0 = Obs.Instr.start () in
    append t key None;
    Obs.Instr.finish m_remove t0

  (* Amortized fallback: one stamped version shared by the whole
     canonical batch, events appended key-at-a-time (an ephemeral store
     has no persistence epilogue to coalesce). *)
  let append_all t items ~value_of =
    let version = Version.stamp t.ctx in
    List.iter
      (fun (key, x) ->
        EH.H.append () (history_of t key) ~ctx:t.ctx ~board:t.board ~version
          (value_of x))
      items

  let insert_batch t pairs =
    let t0 = Obs.Instr.start () in
    append_all t
      (Dict_intf.canonical_pairs ~compare:K.compare pairs)
      ~value_of:(fun v -> Some v);
    Obs.Instr.finish m_insert_batch t0

  let remove_batch t keys =
    let t0 = Obs.Instr.start () in
    append_all t
      (List.map
         (fun k -> (k, ()))
         (Dict_intf.canonical_keys ~compare:K.compare keys))
      ~value_of:(fun () -> None);
    Obs.Instr.finish m_remove_batch t0

  let tag t = Version.tag t.ctx
  let current_version t = Version.current t.ctx

  let find t ?(version = max_int) key =
    let t0 = Obs.Instr.start () in
    let result =
      match Concurrent.Skiplist.find t.index key with
      | None -> None
      | Some h -> EH.lookup h ~ctx:t.ctx ~version
    in
    Obs.Instr.finish m_find t0;
    result

  let extract_history t key =
    let t0 = Obs.Instr.start () in
    let result =
      match Concurrent.Skiplist.find t.index key with
      | None -> []
      | Some h ->
          List.map
            (fun (version, value) ->
              match value with
              | Some v -> (version, Dict_intf.Put v)
              | None -> (version, Dict_intf.Del))
            (EH.H.events () h ~ctx:t.ctx)
    in
    Obs.Instr.finish m_history t0;
    result

  let iter_snapshot t ?(version = max_int) f =
    Concurrent.Skiplist.iter t.index (fun key h ->
        match EH.lookup h ~ctx:t.ctx ~version with
        | None -> ()
        | Some v -> f key v)

  let iter_range t ?(version = max_int) ~lo ~hi f =
    Concurrent.Skiplist.iter_range t.index ~lo ~hi (fun key h ->
        match EH.lookup h ~ctx:t.ctx ~version with
        | None -> ()
        | Some v -> f key v)

  let extract_snapshot t ?version () =
    let t0 = Obs.Instr.start () in
    let acc = ref [] in
    iter_snapshot t ?version (fun k v -> acc := (k, v) :: !acc);
    let a = Array.of_list !acc in
    (* Collected in descending key order; restore ascending. *)
    let n = Array.length a in
    let sorted = Array.init n (fun i -> a.(n - 1 - i)) in
    Obs.Instr.finish m_snapshot t0;
    sorted

  let key_count t = Concurrent.Skiplist.cardinal t.index
end
