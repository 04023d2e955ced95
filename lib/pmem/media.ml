open Bigarray

type mapped = (char, int8_unsigned_elt, c_layout) Array1.t

(* RAM media use Bytes and file media mmapped bigarrays; both move a
   word with one 64-bit load or store, so a reader racing a writer of
   the same aligned word sees either the old or the new value, never a
   torn mix. *)
type buffer = Ram_buf of Bytes.t | Map_buf of mapped

(* The crash-sim durable image. Flushes copy whole lines into it under
   [lock]: an unlocked copy that read a line before a neighbour's write
   and stored it after the neighbour's own flush would drop that word.
   [fuse] is the {!crash_after} countdown: 0 disarmed, n > 0 flushes to
   go before the crash, -1 crashed (flushes no longer reach [image]). *)
type shadow = { image : Bytes.t; lock : Mutex.t; mutable fuse : int }

exception Crash

type backing =
  | Ram of { shadow : shadow option }
  | File of { fd : Unix.file_descr; path : string }

type t = {
  buf : buffer;
  capacity : int;
  backing : backing;
  stats : Pstats.t;
  mutable closed : bool;
}

let cache_line = 64

let create_ram ?(crash_sim = false) ~capacity () =
  if capacity <= 0 then invalid_arg "Media.create_ram: capacity must be positive";
  let shadow =
    if crash_sim then
      Some { image = Bytes.make capacity '\000'; lock = Mutex.create (); fuse = 0 }
    else None
  in
  {
    buf = Ram_buf (Bytes.make capacity '\000');
    capacity;
    backing = Ram { shadow };
    stats = Pstats.create ();
    closed = false;
  }

let map_fd fd capacity =
  let genarray = Unix.map_file fd char c_layout true [| capacity |] in
  array1_of_genarray genarray

(* One process per pool: the allocator's free lists live in the DRAM of
   the process that opened it, so a second one would hand out the same
   blocks. The lock is a POSIX record lock on the whole file, dropped by
   [close] and by the kernel when the holder dies, killed or not. *)
let lock_pool fd =
  try Unix.lockf fd Unix.F_TLOCK 0
  with Unix.Unix_error ((Unix.EAGAIN | Unix.EACCES), _, _) ->
    Unix.close fd;
    raise (Sys_error "locked by another process")

let create_file ~path ~capacity =
  if capacity <= 0 then invalid_arg "Media.create_file: capacity must be positive";
  let fd = Unix.openfile path [ Unix.O_RDWR; Unix.O_CREAT ] 0o644 in
  lock_pool fd;
  Unix.ftruncate fd 0;
  Unix.ftruncate fd capacity;
  let buf = Map_buf (map_fd fd capacity) in
  { buf; capacity; backing = File { fd; path }; stats = Pstats.create (); closed = false }

let open_file ~path =
  let fd = Unix.openfile path [ Unix.O_RDWR ] 0o644 in
  lock_pool fd;
  let capacity = (Unix.fstat fd).Unix.st_size in
  if capacity = 0 then begin
    Unix.close fd;
    invalid_arg (Printf.sprintf "Media.open_file: %s is empty" path)
  end;
  let buf = Map_buf (map_fd fd capacity) in
  { buf; capacity; backing = File { fd; path }; stats = Pstats.create (); closed = false }

let close t =
  if not t.closed then begin
    t.closed <- true;
    match t.backing with
    | Ram _ -> ()
    | File { fd; _ } -> Unix.close fd
  end

let capacity t = t.capacity
let stats t = t.stats

let check_range t off len =
  if off < 0 || len < 0 || off + len > t.capacity then
    invalid_arg
      (Printf.sprintf "Media: access [%d, %d) out of bounds (capacity %d)" off
         (off + len) t.capacity)

external map_get64 : mapped -> int -> int64 = "%caml_bigstring_get64"
external map_set64 : mapped -> int -> int64 -> unit = "%caml_bigstring_set64"
external swap64 : int64 -> int64 = "%bswap_int64"

(* Words are little-endian on the media; the primitives are native
   order. [Int64.to_int] drops bit 63, so pools written when file media
   stored words bytewise with bit 63 cleared decode to the same ints. *)
let get_i64 t off =
  assert (off land 7 = 0);
  check_range t off 8;
  match t.buf with
  | Ram_buf b -> Int64.to_int (Bytes.get_int64_le b off)
  | Map_buf b ->
      let w = map_get64 b off in
      Int64.to_int (if Sys.big_endian then swap64 w else w)

let set_i64 t off v =
  assert (off land 7 = 0);
  check_range t off 8;
  match t.buf with
  | Ram_buf b -> Bytes.set_int64_le b off (Int64.of_int v)
  | Map_buf b ->
      let w = Int64.of_int v in
      map_set64 b off (if Sys.big_endian then swap64 w else w)

let read_bytes t off len =
  check_range t off len;
  match t.buf with
  | Ram_buf b -> Bytes.sub b off len
  | Map_buf b ->
      let out = Bytes.create len in
      for i = 0 to len - 1 do
        Bytes.unsafe_set out i (Array1.unsafe_get b (off + i))
      done;
      out

let write_bytes t off data =
  let len = Bytes.length data in
  check_range t off len;
  match t.buf with
  | Ram_buf b -> Bytes.blit data 0 b off len
  | Map_buf b ->
      for i = 0 to len - 1 do
        Array1.unsafe_set b (off + i) (Bytes.unsafe_get data i)
      done

let fill t off len c =
  check_range t off len;
  match t.buf with
  | Ram_buf b -> Bytes.fill b off len c
  | Map_buf b ->
      for i = off to off + len - 1 do
        Array1.unsafe_set b i c
      done

(* Make cache lines [first, last] durable in the crash-sim shadow.
   Accounting is the caller's job, so batch drains can blit many
   deduplicated lines under one [record_flush]. *)
let blit_lines t first last =
  match (t.backing, t.buf) with
  | Ram { shadow = Some shadow }, Ram_buf b ->
      let lo = first * cache_line in
      let hi = min t.capacity ((last + 1) * cache_line) in
      if hi > lo then begin
        Mutex.lock shadow.lock;
        let fuse = shadow.fuse in
        if fuse = 1 then shadow.fuse <- -1
        else if fuse >= 0 then begin
          Bytes.blit b lo shadow.image lo (hi - lo);
          if fuse > 1 then shadow.fuse <- fuse - 1
        end;
        Mutex.unlock shadow.lock;
        if fuse = 1 then raise Crash
      end
  | (Ram { shadow = None } | File _), _ | Ram { shadow = Some _ }, Map_buf _ -> ()

let flush_lines t first last =
  Pstats.record_flush t.stats ~lines:(last - first + 1);
  blit_lines t first last

(* Batch scopes. Inside [with_batch] the calling domain defers every
   flush and fence: dirty cache-line ranges are only appended to a flat
   log (deduplication waits for the drain — the hot path must stay
   cheaper than the atomic increment it replaces), and fences only
   counted. [batch_barrier] — also run at scope exit — then makes each
   touched media durable: sort the range log, sweep-merge it, blit each
   distinct line once under one [record_flush] and a single fence,
   crediting the difference to [Pstats] as
   [flushes_saved]/[fences_saved]. Crash correctness is preserved
   because the crash-sim shadow is untouched until the barrier: a
   simulated crash mid-batch loses the entire unfenced suffix, exactly
   as real pmem would. The scope is per-domain (DLS), so concurrent
   domains outside the batch are unaffected. *)

(* One entry per media a scope touched. Entries are kept in the
   domain's scope record and reused by later scopes, so a scope in
   steady state allocates nothing; between scopes an entry points at
   [nowhere], so no media is kept alive by a domain that once batched
   it. *)
type scope_entry = {
  mutable media : t;
  mutable firsts : int array;
  mutable lasts : int array;
      (* parallel arrays: [firsts.(i), lasts.(i)] is the i-th recorded
         dirty line range, in request order; the drain packs each range
         into [firsts.(i)] *)
  mutable nranges : int;
  mutable asked_lines : int;
  mutable asked_fences : int;
}

(* [entries.(0 .. used - 1)] belong to the open scope, if [active]. *)
type scope = {
  mutable active : bool;
  mutable entries : scope_entry array;
  mutable used : int;
}

let nowhere =
  { buf = Ram_buf Bytes.empty; capacity = 0; backing = Ram { shadow = None };
    stats = Pstats.create (); closed = true }

let scope_key : scope Domain.DLS.key =
  Domain.DLS.new_key (fun () -> { active = false; entries = [||]; used = 0 })

(* Bind the next spare entry to [media]; a crash may have left its
   counts set. *)
let bind_entry scope media =
  let n = scope.used in
  if n = Array.length scope.entries then begin
    let bigger =
      Array.init (max 1 (2 * n)) (fun _ ->
          { media = nowhere; firsts = Array.make 64 0; lasts = Array.make 64 0;
            nranges = 0; asked_lines = 0; asked_fences = 0 })
    in
    Array.blit scope.entries 0 bigger 0 n;
    scope.entries <- bigger
  end;
  let e = scope.entries.(n) in
  e.media <- media;
  e.nranges <- 0;
  e.asked_lines <- 0;
  e.asked_fences <- 0;
  scope.used <- n + 1;
  e

let rec find_entry scope media i =
  if i = scope.used then bind_entry scope media
  else
    let e = scope.entries.(i) in
    if e.media == media then e else find_entry scope media (i + 1)

let scope_entry scope media = find_entry scope media 0

(* A batch's writes alternate between a few regions (entry payloads,
   new segments' capacity words, the key chain), so a range adjacent
   to any of the last few recorded ones merges in place; only genuinely
   scattered ranges grow the log and wait for the drain's sort. *)
let rec try_merge e first last n i =
  if i < 0 || i < n - 4 then false
  else if first <= e.lasts.(i) + 1 && last + 1 >= e.firsts.(i) then begin
    if first < e.firsts.(i) then e.firsts.(i) <- first;
    if last > e.lasts.(i) then e.lasts.(i) <- last;
    true
  end
  else try_merge e first last n (i - 1)

let record_range e first last =
  e.asked_lines <- e.asked_lines + (last - first + 1);
  let n = e.nranges in
  if not (try_merge e first last n (n - 1)) then begin
    if n = Array.length e.firsts then begin
      let cap = 2 * n in
      let firsts = Array.make cap 0 and lasts = Array.make cap 0 in
      Array.blit e.firsts 0 firsts 0 n;
      Array.blit e.lasts 0 lasts 0 n;
      e.firsts <- firsts;
      e.lasts <- lasts
    end;
    e.firsts.(n) <- first;
    e.lasts.(n) <- last;
    e.nranges <- n + 1
  end

(* Lines fit in 31 bits (capacity / 64), so a range packs into one
   immediate int and the drain sorts monomorphically. *)
let range_bits = 31
let range_mask = (1 lsl range_bits) - 1

(* Blit the sorted packed ranges [i, n) as maximal runs of lines,
   starting with the run [first, last]; returns the lines blitted. *)
let rec blit_runs media packed n i first last lines =
  if i = n then begin
    blit_lines media first last;
    lines + (last - first + 1)
  end
  else
    let f = packed.(i) lsr range_bits and l = packed.(i) land range_mask in
    if f > last + 1 then begin
      blit_lines media first last;
      blit_runs media packed n (i + 1) f l (lines + (last - first + 1))
    end
    else blit_runs media packed n (i + 1) first (max l last) lines

let drain_entry e =
  let actual =
    if e.nranges = 0 then 0
    else begin
      let n = e.nranges in
      let packed = e.firsts in
      let sorted = ref true in
      for i = 0 to n - 1 do
        let p = (e.firsts.(i) lsl range_bits) lor e.lasts.(i) in
        packed.(i) <- p;
        if i > 0 && p < packed.(i - 1) then sorted := false
      done;
      e.nranges <- 0;
      (* Only scattered ranges pay for a copy to sort. *)
      let packed =
        if !sorted then packed
        else begin
          let a = Array.sub packed 0 n in
          Array.sort Int.compare a;
          a
        end
      in
      blit_runs e.media packed n 1 (packed.(0) lsr range_bits)
        (packed.(0) land range_mask) 0
    end
  in
  if actual > 0 then Pstats.record_flush e.media.stats ~lines:actual;
  Pstats.record_flush_saved e.media.stats ~lines:(e.asked_lines - actual);
  if e.asked_fences > 0 then begin
    Pstats.record_fence e.media.stats;
    Pstats.record_fence_saved e.media.stats ~count:(e.asked_fences - 1)
  end;
  e.asked_lines <- 0;
  e.asked_fences <- 0

let batch_barrier () =
  let scope = Domain.DLS.get scope_key in
  if scope.active then
    for i = 0 to scope.used - 1 do
      drain_entry scope.entries.(i)
    done

(* Close the scope before draining it, so a {!Crash} raised by a drain
   leaves this domain outside any scope. Each entry lets go of its
   media once drained (or when a crash cuts its drain short, at its
   next binding). *)
let close_scope scope =
  let n = scope.used in
  scope.active <- false;
  scope.used <- 0;
  for i = 0 to n - 1 do
    let e = scope.entries.(i) in
    drain_entry e;
    e.media <- nowhere
  done

let with_batch f =
  let scope = Domain.DLS.get scope_key in
  if scope.active then f () (* nested: the outer scope's barriers cover us *)
  else begin
    scope.active <- true;
    match f () with
    | result ->
        close_scope scope;
        result
    | exception e ->
        close_scope scope;
        raise e
  end

let flush t off len =
  check_range t off len;
  if len > 0 then begin
    let first = off / cache_line and last = (off + len - 1) / cache_line in
    let scope = Domain.DLS.get scope_key in
    if scope.active then record_range (scope_entry scope t) first last
    else flush_lines t first last
  end

let fence t =
  let scope = Domain.DLS.get scope_key in
  if scope.active then begin
    let e = scope_entry scope t in
    e.asked_fences <- e.asked_fences + 1
  end
  else Pstats.record_fence t.stats

let persist_now t off len =
  check_range t off len;
  if len > 0 then flush_lines t (off / cache_line) ((off + len - 1) / cache_line);
  Pstats.record_fence t.stats

(* One DLS lookup for the flush + fence pair (persist is the hot call
   on every entry write). *)
let persist t off len =
  let scope = Domain.DLS.get scope_key in
  if scope.active then begin
    check_range t off len;
    let e = scope_entry scope t in
    if len > 0 then
      record_range e (off / cache_line) ((off + len - 1) / cache_line);
    e.asked_fences <- e.asked_fences + 1
  end
  else persist_now t off len

let persist_before t off ~commit =
  let commit_line = commit / cache_line in
  if off / cache_line < commit_line then
    persist t off ((commit_line * cache_line) - off)

let crash_sim_shadow t fn =
  match (t.backing, t.buf) with
  | Ram { shadow = Some shadow }, Ram_buf b -> (shadow, b)
  | Ram { shadow = None }, _ ->
      invalid_arg ("Media." ^ fn ^ ": media created without crash_sim")
  | File _, _ | Ram { shadow = Some _ }, Map_buf _ ->
      invalid_arg ("Media." ^ fn ^ ": unsupported on file-backed media")

let crash_after t ~flushes =
  if flushes < 1 then invalid_arg "Media.crash_after: flushes must be positive";
  let shadow, _ = crash_sim_shadow t "crash_after" in
  Mutex.lock shadow.lock;
  shadow.fuse <- flushes;
  Mutex.unlock shadow.lock

let simulate_crash t =
  let shadow, b = crash_sim_shadow t "simulate_crash" in
  Mutex.lock shadow.lock;
  Bytes.blit shadow.image 0 b 0 t.capacity;
  shadow.fuse <- 0;
  Mutex.unlock shadow.lock
