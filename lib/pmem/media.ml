open Bigarray

(* Every media is one bigarray: malloced for RAM media, mmapped for file
   media. A word moves with one 64-bit load or store, so a reader racing
   a writer of the same aligned word sees either the old or the new
   value, never a torn mix. *)
type buffer = (char, int8_unsigned_elt, c_layout) Array1.t

(* The crash-sim durable image. Flushes copy whole lines into it under
   [lock]: an unlocked copy that read a line before a neighbour's write
   and stored it after the neighbour's own flush would drop that word.
   [fuse] is the {!crash_after} countdown: 0 disarmed, n > 0 flushes to
   go before the crash, -1 crashed (flushes no longer reach [image]). *)
type shadow = { image : buffer; lock : Mutex.t; mutable fuse : int }

exception Crash

type t = {
  buf : buffer;
  capacity : int;
  fd : Unix.file_descr option;  (* file media *)
  shadow : shadow option;  (* crash-sim RAM media *)
  stats : Pstats.t;
  mutable closed : bool;
}

let cache_line = 64

(* RAM buffers are rounded up to whole words, so a line copy past a
   capacity that is no multiple of 8 stays inside them. *)
let zeroed_buffer capacity =
  let b = Array1.create char c_layout ((capacity + 7) land lnot 7) in
  Array1.fill b '\000';
  b

let create_ram ?(crash_sim = false) ~capacity () =
  if capacity <= 0 then invalid_arg "Media.create_ram: capacity must be positive";
  let shadow =
    if crash_sim then
      Some { image = zeroed_buffer capacity; lock = Mutex.create (); fuse = 0 }
    else None
  in
  { buf = zeroed_buffer capacity; capacity; fd = None; shadow; stats = Pstats.create ();
    closed = false }

(* One process per pool: the allocator's free lists live in the DRAM of
   the process that opened it, so a second one would hand out the same
   blocks. The lock is a POSIX record lock on the whole file, dropped by
   [close] and by the kernel when the holder dies, killed or not. *)
let lock_pool fd =
  try Unix.lockf fd Unix.F_TLOCK 0
  with Unix.Unix_error ((Unix.EAGAIN | Unix.EACCES), _, _) ->
    Unix.close fd;
    raise (Sys_error "locked by another process")

let map_file fd capacity =
  let buf = array1_of_genarray (Unix.map_file fd char c_layout true [| capacity |]) in
  { buf; capacity; fd = Some fd; shadow = None; stats = Pstats.create (); closed = false }

let create_file ~path ~capacity =
  if capacity <= 0 then invalid_arg "Media.create_file: capacity must be positive";
  let fd = Unix.openfile path [ Unix.O_RDWR; Unix.O_CREAT ] 0o644 in
  lock_pool fd;
  Unix.ftruncate fd 0;
  Unix.ftruncate fd capacity;
  map_file fd capacity

let open_file ~path =
  let fd = Unix.openfile path [ Unix.O_RDWR ] 0o644 in
  lock_pool fd;
  let capacity = (Unix.fstat fd).Unix.st_size in
  if capacity = 0 then begin
    Unix.close fd;
    invalid_arg (Printf.sprintf "Media.open_file: %s is empty" path)
  end;
  map_file fd capacity

let close t =
  if not t.closed then begin
    t.closed <- true;
    Option.iter Unix.close t.fd
  end

let capacity t = t.capacity
let stats t = t.stats

let check_range t off len =
  if off < 0 || len < 0 || off + len > t.capacity then
    invalid_arg
      (Printf.sprintf "Media: access [%d, %d) out of bounds (capacity %d)" off
         (off + len) t.capacity)

external get64 : buffer -> int -> int64 = "%caml_bigstring_get64u"
external set64 : buffer -> int -> int64 -> unit = "%caml_bigstring_set64u"
external swap64 : int64 -> int64 = "%bswap_int64"

(* Words are little-endian on the media; the primitives are native
   order. [Int64.to_int] drops bit 63, so pools written when file media
   stored words bytewise with bit 63 cleared decode to the same ints. *)
let get_i64 t off =
  assert (off land 7 = 0);
  check_range t off 8;
  let w = get64 t.buf off in
  Int64.to_int (if Sys.big_endian then swap64 w else w)

let set_i64 t off v =
  assert (off land 7 = 0);
  check_range t off 8;
  let w = Int64.of_int v in
  set64 t.buf off (if Sys.big_endian then swap64 w else w)

let read_bytes t off len =
  check_range t off len;
  let out = Bytes.create len in
  for i = 0 to len - 1 do
    Bytes.unsafe_set out i (Array1.unsafe_get t.buf (off + i))
  done;
  out

let write_bytes t off data =
  let len = Bytes.length data in
  check_range t off len;
  for i = 0 to len - 1 do
    Array1.unsafe_set t.buf (off + i) (Bytes.unsafe_get data i)
  done

let zero t off len =
  assert (off land 7 = 0 && len land 7 = 0);
  check_range t off len;
  for i = 0 to (len / 8) - 1 do
    set64 t.buf (off + (8 * i)) 0L
  done

(* Make cache lines [first, last] durable in the crash-sim shadow, a
   word at a time. Accounting is the caller's job, so batch drains can
   copy many deduplicated lines under one [record_flush]. *)
let blit_lines t first last =
  match t.shadow with
  | None -> ()
  | Some shadow ->
      let lo = first * cache_line in
      let hi = min t.capacity ((last + 1) * cache_line) in
      if hi > lo then begin
        Mutex.lock shadow.lock;
        let fuse = shadow.fuse in
        if fuse = 1 then shadow.fuse <- -1
        else if fuse >= 0 then begin
          for w = lo / 8 to ((hi + 7) / 8) - 1 do
            set64 shadow.image (8 * w) (get64 t.buf (8 * w))
          done;
          if fuse > 1 then shadow.fuse <- fuse - 1
        end;
        Mutex.unlock shadow.lock;
        if fuse = 1 then raise Crash
      end

let flush_lines t first last =
  Pstats.record_flush t.stats ~lines:(last - first + 1);
  blit_lines t first last

(* Batch scopes. Inside [with_batch] the calling domain defers every
   persist: dirty cache-line ranges are only appended to a flat log
   (deduplication waits for the drain — the hot path must stay cheaper
   than the atomic increment it replaces), and fences only counted.
   [batch_barrier] — also run at scope exit — then makes them durable:
   sort the range log, sweep-merge it, copy each distinct line once
   under one [record_flush] and a single fence, crediting the difference
   to [Pstats] as [flushes_saved]/[fences_saved]. Crash correctness is
   preserved because the crash-sim shadow is untouched until the drain:
   a simulated crash mid-batch loses the entire unfenced suffix, exactly
   as real pmem would. The scope is per-domain (DLS), so concurrent
   domains outside the batch are unaffected.

   A scope defers the persists of one media at a time: a persist to
   another media drains the scope first, so every persist stays ordered
   after the ones before it. The scope record is reused by later scopes,
   so a scope in steady state allocates nothing; its [media] is
   [nowhere] whenever nothing is deferred, so no media is kept alive by
   a domain that once batched it. *)
type scope = {
  mutable active : bool;
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

let nowhere =
  { buf = Array1.create char c_layout 0; capacity = 0; fd = None; shadow = None;
    stats = Pstats.create (); closed = true }

let scope_key : scope Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      { active = false; media = nowhere; firsts = Array.make 64 0; lasts = Array.make 64 0;
        nranges = 0; asked_lines = 0; asked_fences = 0 })

(* A batch's writes alternate between a few regions (entry payloads,
   new segments' capacity words, the key chain), so a range adjacent
   to any of the last few recorded ones merges in place; only genuinely
   scattered ranges grow the log and wait for the drain's sort. *)
let rec try_merge s first last n i =
  if i < 0 || i < n - 4 then false
  else if first <= s.lasts.(i) + 1 && last + 1 >= s.firsts.(i) then begin
    if first < s.firsts.(i) then s.firsts.(i) <- first;
    if last > s.lasts.(i) then s.lasts.(i) <- last;
    true
  end
  else try_merge s first last n (i - 1)

let record_range s first last =
  s.asked_lines <- s.asked_lines + (last - first + 1);
  let n = s.nranges in
  if not (try_merge s first last n (n - 1)) then begin
    if n = Array.length s.firsts then begin
      let cap = 2 * n in
      let firsts = Array.make cap 0 and lasts = Array.make cap 0 in
      Array.blit s.firsts 0 firsts 0 n;
      Array.blit s.lasts 0 lasts 0 n;
      s.firsts <- firsts;
      s.lasts <- lasts
    end;
    s.firsts.(n) <- first;
    s.lasts.(n) <- last;
    s.nranges <- n + 1
  end

(* Lines fit in 31 bits (capacity / 64), so a range packs into one
   immediate int and the drain sorts monomorphically. *)
let range_bits = 31
let range_mask = (1 lsl range_bits) - 1

(* Copy the sorted packed ranges [i, n) as maximal runs of lines,
   starting with the run [first, last]; returns the lines copied. *)
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

(* The scope is emptied before its lines are copied, so a {!Crash}
   raised by the copy leaves nothing deferred behind it. *)
let drain s =
  let media = s.media and n = s.nranges in
  let asked_lines = s.asked_lines and asked_fences = s.asked_fences in
  s.media <- nowhere;
  s.nranges <- 0;
  s.asked_lines <- 0;
  s.asked_fences <- 0;
  let actual =
    if n = 0 then 0
    else begin
      let packed = s.firsts in
      let sorted = ref true in
      for i = 0 to n - 1 do
        let p = (s.firsts.(i) lsl range_bits) lor s.lasts.(i) in
        packed.(i) <- p;
        if i > 0 && p < packed.(i - 1) then sorted := false
      done;
      (* Only scattered ranges pay for a copy to sort. *)
      let packed =
        if !sorted then packed
        else begin
          let a = Array.sub packed 0 n in
          Array.sort Int.compare a;
          a
        end
      in
      blit_runs media packed n 1 (packed.(0) lsr range_bits) (packed.(0) land range_mask) 0
    end
  in
  if actual > 0 then Pstats.record_flush media.stats ~lines:actual;
  Pstats.record_flush_saved media.stats ~lines:(asked_lines - actual);
  if asked_fences > 0 then begin
    Pstats.record_fence media.stats;
    Pstats.record_fence_saved media.stats ~count:(asked_fences - 1)
  end

let batch_barrier () =
  let s = Domain.DLS.get scope_key in
  if s.active then drain s

(* Close the scope before draining it, so a {!Crash} raised by the
   drain leaves this domain outside any scope. *)
let close_scope s =
  s.active <- false;
  drain s

let with_batch f =
  let s = Domain.DLS.get scope_key in
  if s.active then f () (* nested: the outer scope's barriers cover us *)
  else begin
    s.active <- true;
    match f () with
    | result ->
        close_scope s;
        result
    | exception e ->
        close_scope s;
        raise e
  end

let persist_now t off len =
  check_range t off len;
  if len > 0 then flush_lines t (off / cache_line) ((off + len - 1) / cache_line);
  Pstats.record_fence t.stats

(* One DLS lookup per persist (the hot call on every entry write). *)
let persist t off len =
  let s = Domain.DLS.get scope_key in
  if s.active then begin
    check_range t off len;
    if s.media != t then begin
      drain s;
      s.media <- t
    end;
    if len > 0 then record_range s (off / cache_line) ((off + len - 1) / cache_line);
    s.asked_fences <- s.asked_fences + 1
  end
  else persist_now t off len

let persist_before t off ~commit =
  let commit_line = commit / cache_line in
  if off / cache_line < commit_line then
    persist t off ((commit_line * cache_line) - off)

let crash_shadow t fn =
  match t.shadow with
  | Some shadow -> shadow
  | None -> invalid_arg ("Media." ^ fn ^ ": media created without crash_sim")

let crash_after t ~flushes =
  if flushes < 1 then invalid_arg "Media.crash_after: flushes must be positive";
  let shadow = crash_shadow t "crash_after" in
  Mutex.lock shadow.lock;
  shadow.fuse <- flushes;
  Mutex.unlock shadow.lock

let simulate_crash t =
  let shadow = crash_shadow t "simulate_crash" in
  Mutex.lock shadow.lock;
  Array1.blit shadow.image t.buf;
  shadow.fuse <- 0;
  Mutex.unlock shadow.lock
