open Bigarray

type mapped = (char, int8_unsigned_elt, c_layout) Array1.t

(* RAM media use Bytes and file media mmapped bigarrays; both move a
   word with one 64-bit load or store, so a reader racing a writer of
   the same aligned word sees either the old or the new value, never a
   torn mix. *)
type buffer = Ram_buf of Bytes.t | Map_buf of mapped

(* The crash-sim durable image. Flushes copy whole lines into it under
   [lock]: an unlocked copy that read a line before a neighbour's write
   and stored it after the neighbour's own flush would drop that word. *)
type shadow = { image : Bytes.t; lock : Mutex.t }

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
    if crash_sim then Some { image = Bytes.make capacity '\000'; lock = Mutex.create () }
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

let create_file ~path ~capacity =
  if capacity <= 0 then invalid_arg "Media.create_file: capacity must be positive";
  let fd = Unix.openfile path [ Unix.O_RDWR; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  Unix.ftruncate fd capacity;
  let buf = Map_buf (map_fd fd capacity) in
  { buf; capacity; backing = File { fd; path }; stats = Pstats.create (); closed = false }

let open_file ~path =
  let fd = Unix.openfile path [ Unix.O_RDWR ] 0o644 in
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

let is_file_backed t =
  match t.backing with File _ -> true | Ram _ -> false

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

let get_byte t off =
  check_range t off 1;
  match t.buf with
  | Ram_buf b -> Char.code (Bytes.unsafe_get b off)
  | Map_buf b -> Char.code (Array1.unsafe_get b off)

let set_byte t off v =
  check_range t off 1;
  match t.buf with
  | Ram_buf b -> Bytes.unsafe_set b off (Char.unsafe_chr (v land 0xff))
  | Map_buf b -> Array1.unsafe_set b off (Char.unsafe_chr (v land 0xff))

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
        Bytes.blit b lo shadow.image lo (hi - lo);
        Mutex.unlock shadow.lock
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

type scope_entry = {
  media : t;
  mutable firsts : int array;
  mutable lasts : int array;
      (* parallel arrays: [firsts.(i), lasts.(i)] is the i-th recorded
         dirty line range, in request order *)
  mutable nranges : int;
  mutable asked_lines : int;
  mutable asked_fences : int;
}

type scope = {
  mutable entries : scope_entry list;
  mutable pool : (int array * int array) list;
      (* retired range-log arrays, reused by the next scope on this
         domain so short batches don't pay a fresh allocation each *)
}

(* [active] is the open batch scope, if any; [cached] keeps the scope
   value (and its array pool) alive between batches so back-to-back
   batches allocate nothing. *)
type slot = { mutable active : scope option; cached : scope }

let scope_key : slot Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      { active = None; cached = { entries = []; pool = [] } })

let rec find_entry media = function
  | [] -> None
  | e :: rest -> if e.media == media then Some e else find_entry media rest

let scope_entry scope media =
  (* one media per scope is the overwhelmingly common case *)
  match scope.entries with
  | e :: _ when e.media == media -> e
  | entries -> (
      match find_entry media entries with
      | Some e -> e
      | None ->
          let firsts, lasts =
            match scope.pool with
            | arrays :: rest ->
                scope.pool <- rest;
                arrays
            | [] -> (Array.make 64 0, Array.make 64 0)
          in
          let e =
            { media; firsts; lasts; nranges = 0; asked_lines = 0;
              asked_fences = 0 }
          in
          scope.entries <- e :: scope.entries;
          e)

let record_range e first last =
  e.asked_lines <- e.asked_lines + (last - first + 1);
  (* A batch's writes alternate between a few regions (entry payloads,
     history headers, the key chain), so ranges adjacent to any of the
     last few recorded ones merge in place; only genuinely scattered
     ranges grow the log and wait for the drain's sort. *)
  let n = e.nranges in
  let rec try_merge i =
    if i < 0 || i < n - 4 then false
    else if first <= e.lasts.(i) + 1 && last + 1 >= e.firsts.(i) then begin
      if first < e.firsts.(i) then e.firsts.(i) <- first;
      if last > e.lasts.(i) then e.lasts.(i) <- last;
      true
    end
    else try_merge (i - 1)
  in
  if not (try_merge (n - 1)) then begin
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

let drain_entry e =
  let actual = ref 0 in
  if e.nranges > 0 then begin
    let n = e.nranges in
    let packed = Array.make n 0 in
    let sorted = ref true in
    for i = 0 to n - 1 do
      let p = (e.firsts.(i) lsl range_bits) lor e.lasts.(i) in
      packed.(i) <- p;
      if i > 0 && p < packed.(i - 1) then sorted := false
    done;
    if not !sorted then Array.sort (fun (a : int) b -> Stdlib.compare a b) packed;
    let flush_run first last =
      actual := !actual + (last - first + 1);
      blit_lines e.media first last
    in
    let mask = (1 lsl range_bits) - 1 in
    let cur_first = ref (packed.(0) lsr range_bits)
    and cur_last = ref (packed.(0) land mask) in
    for i = 1 to n - 1 do
      let f = packed.(i) lsr range_bits and l = packed.(i) land mask in
      if f > !cur_last + 1 then begin
        flush_run !cur_first !cur_last;
        cur_first := f;
        cur_last := l
      end
      else if l > !cur_last then cur_last := l
    done;
    flush_run !cur_first !cur_last;
    Pstats.record_flush e.media.stats ~lines:!actual;
    e.nranges <- 0
  end;
  Pstats.record_flush_saved e.media.stats ~lines:(e.asked_lines - !actual);
  if e.asked_fences > 0 then begin
    Pstats.record_fence e.media.stats;
    Pstats.record_fence_saved e.media.stats ~count:(e.asked_fences - 1)
  end;
  e.asked_lines <- 0;
  e.asked_fences <- 0

let batch_barrier () =
  match (Domain.DLS.get scope_key).active with
  | None -> ()
  | Some scope -> List.iter drain_entry scope.entries

let with_batch f =
  let slot = Domain.DLS.get scope_key in
  match slot.active with
  | Some _ -> f () (* nested: the outer scope's barriers cover us *)
  | None ->
      let scope = slot.cached in
      slot.active <- Some scope;
      Fun.protect
        ~finally:(fun () ->
          List.iter drain_entry scope.entries;
          (* retire the entries (no media refs survive the scope) but
             keep their arrays for the next batch on this domain *)
          List.iter
            (fun e -> scope.pool <- (e.firsts, e.lasts) :: scope.pool)
            scope.entries;
          scope.entries <- [];
          slot.active <- None)
        f

let flush t off len =
  check_range t off len;
  if len > 0 then begin
    let first = off / cache_line and last = (off + len - 1) / cache_line in
    match (Domain.DLS.get scope_key).active with
    | Some scope -> record_range (scope_entry scope t) first last
    | None -> flush_lines t first last
  end

let fence t =
  match (Domain.DLS.get scope_key).active with
  | Some scope ->
      let e = scope_entry scope t in
      e.asked_fences <- e.asked_fences + 1
  | None -> Pstats.record_fence t.stats

let persist_now t off len =
  check_range t off len;
  if len > 0 then flush_lines t (off / cache_line) ((off + len - 1) / cache_line);
  Pstats.record_fence t.stats

(* One DLS lookup for the flush + fence pair (persist is the hot call
   on every entry write). *)
let persist t off len =
  match (Domain.DLS.get scope_key).active with
  | Some scope ->
      check_range t off len;
      let e = scope_entry scope t in
      if len > 0 then
        record_range e (off / cache_line) ((off + len - 1) / cache_line);
      e.asked_fences <- e.asked_fences + 1
  | None -> persist_now t off len

let persist_before t off ~commit =
  let commit_line = commit / cache_line in
  if off / cache_line < commit_line then
    persist t off ((commit_line * cache_line) - off)

let simulate_crash t =
  match (t.backing, t.buf) with
  | Ram { shadow = Some shadow }, Ram_buf b ->
      Mutex.lock shadow.lock;
      Bytes.blit shadow.image 0 b 0 t.capacity;
      Mutex.unlock shadow.lock
  | Ram { shadow = None }, _ ->
      invalid_arg "Media.simulate_crash: media created without crash_sim"
  | File _, _ | Ram { shadow = Some _ }, Map_buf _ ->
      invalid_arg "Media.simulate_crash: unsupported on file-backed media"
