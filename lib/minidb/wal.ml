type t = {
  storage : Storage.t;
  checkpoint_frames : int;
  lock : Mutex.t;
  latest : (int, Page.t) Hashtbl.t;
  mutable frame_count : int;
  mutable commit_count : int;
  mutable checkpoint_count : int;
}

let create ?(checkpoint_frames = 1000) storage =
  {
    storage;
    checkpoint_frames;
    lock = Mutex.create ();
    latest = Hashtbl.create 1024;
    frame_count = 0;
    commit_count = 0;
    checkpoint_count = 0;
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

let checkpoint_locked t =
  Hashtbl.iter (fun id image -> Storage.write t.storage id image) t.latest;
  Hashtbl.reset t.latest;
  t.frame_count <- 0;
  t.checkpoint_count <- t.checkpoint_count + 1

let commit t dirty =
  with_lock t (fun () ->
      List.iter
        (fun (id, image) ->
          Hashtbl.replace t.latest id (Page.copy image);
          t.frame_count <- t.frame_count + 1)
        dirty;
      t.commit_count <- t.commit_count + 1;
      if t.frame_count >= t.checkpoint_frames then checkpoint_locked t)

let lookup t id =
  with_lock t (fun () ->
      match Hashtbl.find_opt t.latest id with
      | Some image -> Some (Page.copy image)
      | None -> None)

let commits t = with_lock t (fun () -> t.commit_count)
let checkpoints t = with_lock t (fun () -> t.checkpoint_count)
let checkpoint t = with_lock t (fun () -> checkpoint_locked t)
