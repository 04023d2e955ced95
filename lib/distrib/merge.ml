let is_sorted a =
  let ok = ref true in
  for i = 1 to Array.length a - 1 do
    if fst a.(i - 1) >= fst a.(i) then ok := false
  done;
  !ok

(* Observability (lib/obs): per-call op metrics for the three merge
   entry points, plus per-round spans and bytes-moved accounting for
   the recursive-doubling schedule (Figs. 6-8). *)
let m_two_way = Obs.Instr.op "distrib.merge.two_way"
let m_multi_threaded = Obs.Instr.op "distrib.merge.multi_threaded"
let m_k_way = Obs.Instr.op "distrib.merge.k_way"
let c_elements = Obs.Registry.counter "distrib.merge.elements"
let c_rounds = Obs.Registry.counter "distrib.merge.rounds"
let c_bytes_moved = Obs.Registry.counter "distrib.merge.bytes_moved"

let merge_into a alo ahi b blo bhi out olo =
  (* Merge a[alo,ahi) with b[blo,bhi) into out starting at olo. *)
  let i = ref alo and j = ref blo and o = ref olo in
  while !i < ahi && !j < bhi do
    if fst a.(!i) <= fst b.(!j) then begin
      out.(!o) <- a.(!i);
      incr i
    end
    else begin
      out.(!o) <- b.(!j);
      incr j
    end;
    incr o
  done;
  while !i < ahi do
    out.(!o) <- a.(!i);
    incr i;
    incr o
  done;
  while !j < bhi do
    out.(!o) <- b.(!j);
    incr j;
    incr o
  done

let two_way a b =
  let t0 = Obs.Instr.start () in
  let out = Array.make (Array.length a + Array.length b) (0, 0) in
  merge_into a 0 (Array.length a) b 0 (Array.length b) out 0;
  Obs.Metric.add c_elements (Array.length out);
  Obs.Instr.finish m_two_way t0;
  out

(* First index in b whose key is > key (b sorted by key). *)
let upper_bound b key =
  let rec search lo hi =
    if lo >= hi then lo
    else begin
      let mid = (lo + hi) / 2 in
      if fst b.(mid) <= key then search (mid + 1) hi else search lo mid
    end
  in
  search 0 (Array.length b)

let multi_threaded ~threads a b =
  if threads < 1 then invalid_arg "Merge.multi_threaded";
  let na = Array.length a and nb = Array.length b in
  (* Clamp to |A|: with more threads than A elements some partitions
     are empty and the boundary probe below would read a.(-1) (e.g.
     na=3, threads=8 gives a_bound 1 = 0). Clamping also keeps every
     partition non-empty, so a_bound — and therefore b_bound, probed on
     sorted keys — stays monotone. *)
  let threads = min threads na in
  if threads <= 1 || na = 0 || nb = 0 then two_way a b
  else begin
    let t0 = Obs.Instr.start () in
    let out = Array.make (na + nb) (0, 0) in
    (* Thread i owns a[a_lo_i, a_lo_{i+1}); its B range ends where the
       next thread's partition boundary lands in B (binary search); all
       output offsets are then known without communication (Sec. IV-A). *)
    let a_bound i = i * na / threads in
    let b_bound = Array.make (threads + 1) 0 in
    b_bound.(threads) <- nb;
    for i = 1 to threads - 1 do
      b_bound.(i) <- upper_bound b (fst a.(a_bound i - 1))
    done;
    ignore
      (Concurrent.Parallel.run ~threads (fun tid ->
           let alo = a_bound tid and ahi = a_bound (tid + 1) in
           let blo = b_bound.(tid) and bhi = b_bound.(tid + 1) in
           merge_into a alo ahi b blo bhi out (alo + blo)));
    Obs.Metric.add c_elements (na + nb);
    Obs.Instr.finish m_multi_threaded t0;
    out
  end

(* Int-keyed binary min-heap of input cursors for the K-way merge, keys
   compared exactly (a float-keyed queue would lose precision above 2^53
   and box a float per push). Ties break on the input index, so equal
   keys merge deterministically in input order. *)
module Cursor_heap = struct
  type t = {
    keys : int array;
    idxs : int array;
    mutable size : int;
  }

  let create capacity = { keys = Array.make (max capacity 1) 0; idxs = Array.make (max capacity 1) 0; size = 0 }

  let less h i j =
    h.keys.(i) < h.keys.(j) || (h.keys.(i) = h.keys.(j) && h.idxs.(i) < h.idxs.(j))

  let swap h i j =
    let k = h.keys.(i) in
    h.keys.(i) <- h.keys.(j);
    h.keys.(j) <- k;
    let x = h.idxs.(i) in
    h.idxs.(i) <- h.idxs.(j);
    h.idxs.(j) <- x

  let rec sift_up h i =
    if i > 0 then begin
      let parent = (i - 1) / 2 in
      if less h i parent then begin
        swap h i parent;
        sift_up h parent
      end
    end

  let rec sift_down h i =
    let left = (2 * i) + 1 and right = (2 * i) + 2 in
    let smallest = ref i in
    if left < h.size && less h left !smallest then smallest := left;
    if right < h.size && less h right !smallest then smallest := right;
    if !smallest <> i then begin
      swap h i !smallest;
      sift_down h !smallest
    end

  let push h ~key idx =
    h.keys.(h.size) <- key;
    h.idxs.(h.size) <- idx;
    h.size <- h.size + 1;
    sift_up h (h.size - 1)

  let pop_idx h =
    if h.size = 0 then -1
    else begin
      let idx = h.idxs.(0) in
      h.size <- h.size - 1;
      if h.size > 0 then begin
        h.keys.(0) <- h.keys.(h.size);
        h.idxs.(0) <- h.idxs.(h.size);
        sift_down h 0
      end;
      idx
    end
end

let k_way inputs =
  let k = Array.length inputs in
  if k = 0 then [||]
  else begin
    let t0 = Obs.Instr.start () in
    let total = Array.fold_left (fun acc a -> acc + Array.length a) 0 inputs in
    let out = Array.make total (0, 0) in
    (* At most one cursor per input lives in the heap. *)
    let heap = Cursor_heap.create k in
    let cursors = Array.make k 0 in
    Array.iteri
      (fun i a -> if Array.length a > 0 then Cursor_heap.push heap ~key:(fst a.(0)) i)
      inputs;
    let o = ref 0 in
    let rec pump () =
      match Cursor_heap.pop_idx heap with
      | -1 -> ()
      | i ->
          let c = cursors.(i) in
          out.(!o) <- inputs.(i).(c);
          incr o;
          cursors.(i) <- c + 1;
          if c + 1 < Array.length inputs.(i) then
            Cursor_heap.push heap ~key:(fst inputs.(i).(c + 1)) i;
          pump ()
    in
    pump ();
    Obs.Metric.add c_elements total;
    Obs.Instr.finish m_k_way t0;
    out
  end

let pair_bytes = 16

let recursive_doubling ?(threads = 1) ?(round = fun ~round:_ ~merges:_ -> ()) inputs =
  let k = Array.length inputs in
  if k = 0 then [||]
  else begin
    let buffers = Array.copy inputs in
    let alive = Array.init k (fun i -> i) in
    let rec run alive round_index =
      if Array.length alive <= 1 then buffers.(alive.(0))
      else begin
        let token = Obs.Span.enter "distrib.merge.round" in
        let survivors = ref [] and merges = ref [] in
        let round_bytes = ref 0 in
        let n = Array.length alive in
        let i = ref 0 in
        while !i < n do
          let dst = alive.(!i) in
          if !i + 1 < n then begin
            let src = alive.(!i + 1) in
            let bytes = Array.length buffers.(src) * pair_bytes in
            merges := (dst, src, bytes) :: !merges;
            round_bytes := !round_bytes + bytes;
            buffers.(dst) <- multi_threaded ~threads buffers.(dst) buffers.(src);
            buffers.(src) <- [||]
          end;
          survivors := dst :: !survivors;
          i := !i + 2
        done;
        Obs.Metric.incr c_rounds;
        Obs.Metric.add c_bytes_moved !round_bytes;
        Obs.Span.exit "distrib.merge.round" token;
        round ~round:round_index ~merges:(List.rev !merges);
        run (Array.of_list (List.rev !survivors)) (round_index + 1)
      end
    in
    run alive 0
  end
