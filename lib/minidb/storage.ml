type t = {
  mutable pages : Page.t array;
  mutable count : int;
  lock : Mutex.t;
  reads : int Atomic.t;
  writes : int Atomic.t;
}

let create () =
  {
    pages = Array.init 8 (fun _ -> Page.create ());
    count = 0;
    lock = Mutex.create ();
    reads = Atomic.make 0;
    writes = Atomic.make 0;
  }

let with_lock t f =
  Mutex.lock t.lock;
  match f () with
  | result ->
      Mutex.unlock t.lock;
      result
  | exception e ->
      Mutex.unlock t.lock;
      raise e

let allocate t =
  with_lock t (fun () ->
      if t.count = Array.length t.pages then begin
        let bigger = Array.init (2 * t.count) (fun _ -> Bytes.empty) in
        Array.blit t.pages 0 bigger 0 t.count;
        for i = t.count to Array.length bigger - 1 do
          bigger.(i) <- Page.create ()
        done;
        t.pages <- bigger
      end;
      let id = t.count in
      t.count <- t.count + 1;
      id)

let check t id =
  if id < 0 || id >= t.count then
    invalid_arg (Printf.sprintf "Storage: page %d out of range (count %d)" id t.count)

let read t id out =
  ignore (Atomic.fetch_and_add t.reads 1);
  with_lock t (fun () ->
      check t id;
      Page.blit ~src:t.pages.(id) ~dst:out)

let write t id data =
  ignore (Atomic.fetch_and_add t.writes 1);
  with_lock t (fun () ->
      check t id;
      Page.blit ~src:data ~dst:t.pages.(id))

let reads t = Atomic.get t.reads
let writes t = Atomic.get t.writes
