(* Header page (page 0):
     +0  magic  +8 index root  +16 table tail  +24 row count  +32 next seq *)

type mode = Mem | Reg

type t = {
  mode : mode;
  storage : Storage.t;
  wal : Wal.t option;
  generation : int Atomic.t;
  global : Mutex.t; (* Mem: serialises every statement *)
  rw : Concurrent.Rwlock.t; (* Reg: one writer / many readers *)
  shared_cache : Pagecache.t option; (* Mem: the database itself *)
}

type conn = { db : t; cache : Pagecache.t }

let magic = 0x4d494e4944420a land max_int

let make_source t =
  match t.mode with
  | Mem ->
      {
        Pagecache.fetch = (fun id buf -> Storage.read t.storage id buf);
        store = (fun _ -> ());
        allocate = (fun () -> Storage.allocate t.storage);
        generation = (fun () -> 0);
      }
  | Reg ->
      let wal = Option.get t.wal in
      {
        Pagecache.fetch =
          (fun id buf ->
            match Wal.lookup wal id with
            | Some image -> Page.blit ~src:image ~dst:buf
            | None -> Storage.read t.storage id buf);
        store =
          (fun dirty ->
            Wal.commit wal dirty;
            ignore (Atomic.fetch_and_add t.generation 1));
        allocate = (fun () -> Storage.allocate t.storage);
        generation = (fun () -> Atomic.get t.generation);
      }

let mode t = t.mode

let connect t =
  match t.shared_cache with
  | Some cache -> { db = t; cache }
  | None -> { db = t; cache = Pagecache.create (make_source t) }

(* Header access helpers (page 0 through a cache). *)
let read_header cache =
  let h = Pagecache.get cache 0 in
  if Page.get_i64 h 0 <> magic then failwith "Minidb: bad header magic";
  (Page.get_i64 h 8, Page.get_i64 h 16, Page.get_i64 h 24, Page.get_i64 h 32)

let write_header cache ~root ~tail ~rows ~seq =
  let h = Pagecache.get_mut cache 0 in
  Page.set_i64 h 0 magic;
  Page.set_i64 h 8 root;
  Page.set_i64 h 16 tail;
  Page.set_i64 h 24 rows;
  Page.set_i64 h 32 seq

let create mode =
  let t =
    let storage = Storage.create () in
    {
      mode;
      storage;
      wal = (match mode with Reg -> Some (Wal.create storage) | Mem -> None);
      generation = Atomic.make 0;
      global = Mutex.create ();
      rw = Concurrent.Rwlock.create ();
      shared_cache = None;
    }
  in
  let t =
    match mode with
    | Mem -> { t with shared_cache = Some (Pagecache.create ~capacity:max_int (make_source t)) }
    | Reg -> t
  in
  (* Bootstrap: page 0 (header), an empty index, an empty table. *)
  let boot =
    match t.shared_cache with
    | Some cache -> cache
    | None -> Pagecache.create (make_source t)
  in
  let header_id, _ = Pagecache.allocate boot in
  assert (header_id = 0);
  let index = Btree.create boot in
  let table = Table.create boot in
  write_header boot ~root:(Btree.root index) ~tail:(Table.tail table) ~rows:0 ~seq:0;
  Pagecache.commit boot;
  t

let reopen t =
  match t.mode with
  | Mem -> t (* the shared cache is the database; nothing to drop *)
  | Reg ->
      (* Fresh generation space and no live connections: connections made
         from the returned handle start with cold caches, like a process
         that reopened the database file (+ WAL). *)
      {
        t with
        generation = Atomic.make (Atomic.get t.generation + 1);
        global = Mutex.create ();
        rw = Concurrent.Rwlock.create ();
      }

let with_read conn f =
  match conn.db.mode with
  | Mem ->
      Mutex.lock conn.db.global;
      let result = try f () with e -> Mutex.unlock conn.db.global; raise e in
      Mutex.unlock conn.db.global;
      result
  | Reg -> Concurrent.Rwlock.read conn.db.rw f

let with_write conn f =
  match conn.db.mode with
  | Mem ->
      Mutex.lock conn.db.global;
      let result = try f () with e -> Mutex.unlock conn.db.global; raise e in
      Mutex.unlock conn.db.global;
      result
  | Reg ->
      Concurrent.Rwlock.write conn.db.rw (fun () ->
          let result = f () in
          Pagecache.commit conn.cache;
          result)

let insert_row conn ~version ~key ~value =
  with_write conn (fun () ->
      let root, tail, rows, seq = read_header conn.cache in
      let index = Btree.attach conn.cache ~root in
      let table = Table.attach conn.cache ~tail ~row_count:rows in
      let rowid = Table.append table ~version ~key ~value in
      Btree.insert index { Btree.a = key; b = version; seq } rowid;
      write_header conn.cache ~root:(Btree.root index) ~tail:(Table.tail table)
        ~rows:(Table.row_count table) ~seq:(seq + 1))

let find_row conn ~key ~version =
  with_read conn (fun () ->
      let root, tail, rows, _ = read_header conn.cache in
      let index = Btree.attach conn.cache ~root in
      let table = Table.attach conn.cache ~tail ~row_count:rows in
      match Btree.find_floor index ~a:key ~b_max:version with
      | None -> None
      | Some (k, rowid) ->
          let _, _, value = Table.fetch table rowid in
          Some (k.Btree.b, value))

let history_rows conn ~key =
  with_read conn (fun () ->
      let root, tail, rows, _ = read_header conn.cache in
      let index = Btree.attach conn.cache ~root in
      let table = Table.attach conn.cache ~tail ~row_count:rows in
      let acc = ref [] in
      Btree.iter_prefix index ~a:key (fun k rowid ->
          let _, _, value = Table.fetch table rowid in
          acc := (k.Btree.b, value) :: !acc);
      List.rev !acc)

let iter_snapshot_rows conn ~version f =
  with_read conn (fun () ->
      let root, tail, rows, _ = read_header conn.cache in
      let index = Btree.attach conn.cache ~root in
      let table = Table.attach conn.cache ~tail ~row_count:rows in
      (* The index is ordered by (key, version, seq): within a key, the
         last entry at or below [version] is the visible row. *)
      let current_key = ref None in
      let best = ref None in
      let emit () =
        match (!current_key, !best) with
        | Some key, Some rowid ->
            let row_version, _, value = Table.fetch table rowid in
            f key row_version value
        | _ -> ()
      in
      Btree.iter_all index (fun k rowid ->
          (match !current_key with
          | Some key when key = k.Btree.a -> ()
          | _ ->
              emit ();
              current_key := Some k.Btree.a;
              best := None);
          if k.Btree.b <= version then best := Some rowid);
      emit ())

let iter_range_rows conn ~lo ~hi ~version f =
  with_read conn (fun () ->
      let root, tail, rows, _ = read_header conn.cache in
      let index = Btree.attach conn.cache ~root in
      let table = Table.attach conn.cache ~tail ~row_count:rows in
      let current_key = ref None in
      let best = ref None in
      let emit () =
        match (!current_key, !best) with
        | Some key, Some rowid ->
            let row_version, _, value = Table.fetch table rowid in
            f key row_version value
        | _ -> ()
      in
      Btree.iter_from index { Btree.a = lo; b = min_int; seq = min_int }
        (fun k rowid ->
          if k.Btree.a >= hi then false
          else begin
            (match !current_key with
            | Some key when key = k.Btree.a -> ()
            | _ ->
                emit ();
                current_key := Some k.Btree.a;
                best := None);
            if k.Btree.b <= version then best := Some rowid;
            true
          end);
      emit ())

let distinct_keys conn =
  with_read conn (fun () ->
      let root, _, _, _ = read_header conn.cache in
      let index = Btree.attach conn.cache ~root in
      let count = ref 0 and last = ref None in
      Btree.iter_all index (fun k _ ->
          match !last with
          | Some key when key = k.Btree.a -> ()
          | _ ->
              incr count;
              last := Some k.Btree.a);
      !count)

let max_version conn =
  with_read conn (fun () ->
      let root, _, _, _ = read_header conn.cache in
      let index = Btree.attach conn.cache ~root in
      let highest = ref 0 in
      Btree.iter_all index (fun k _ -> if k.Btree.b > !highest then highest := k.Btree.b);
      !highest)
