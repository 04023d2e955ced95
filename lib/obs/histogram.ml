(* Log-bucketed (HDR-style) latency histogram.

   Values are nanoseconds (non-negative ints). Buckets: exact for
   v < 16, then 16 sub-buckets per power-of-two octave — a worst-case
   relative error of 1/16 per recorded value, constant memory, and a
   wait-free record path (one fetch-and-add on the bucket, one on the
   sum, and a CAS loop for the max). Safe under concurrent Domains.
   Percentiles and merges are computed on {!Snap} histograms, built
   from [nonzero_buckets]. *)

let sub_bits = 4
let subs = 1 lsl sub_bits (* 16 sub-buckets per octave *)
let octaves = 60
let bucket_count = subs * octaves

(* 4 words until the first record allocates the bucket array (961
   words): most registered histograms never record in a given process.
   The fields and the bucket cells are read with plain loads and
   changed only by CAS and fetch-and-add in place ([Atomic_field]):
   keep [buckets_field], [sum_field] and [max_field] equal to their
   declaration order. The count is not stored: it is the sum of the
   buckets, so a reader's count always equals the sum of the buckets
   it loaded. *)
type t = {
  mutable buckets : int array;  (** [[||]] until the first record *)
  mutable sum : int;
  mutable max : int;
}

let buckets_field = 0
let sum_field = 1
let max_field = 2

let create () = { buckets = [||]; sum = 0; max = 0 }

(* Position of the most significant set bit of v >= 1: a fixed six-step
   binary search. The refs never escape, so it allocates nothing. *)
let msb v =
  let v = ref v and m = ref 0 in
  if !v lsr 32 <> 0 then (v := !v lsr 32; m := 32);
  if !v lsr 16 <> 0 then (v := !v lsr 16; m := !m + 16);
  if !v lsr 8 <> 0 then (v := !v lsr 8; m := !m + 8);
  if !v lsr 4 <> 0 then (v := !v lsr 4; m := !m + 4);
  if !v lsr 2 <> 0 then (v := !v lsr 2; m := !m + 2);
  if !v lsr 1 <> 0 then !m + 1 else !m

let index_of v =
  if v < subs then v
  else begin
    let m = msb v in
    let sub = (v lsr (m - sub_bits)) land (subs - 1) in
    min (bucket_count - 1) (((m - sub_bits + 1) * subs) + sub)
  end

(* Inclusive lower bound of bucket [i]; the upper bound is the next
   bucket's lower bound. *)
let bucket_lo i =
  if i < subs then i
  else begin
    let m = (i / subs) + sub_bits - 1 in
    let sub = i mod subs in
    (1 lsl m) + (sub lsl (m - sub_bits))
  end

let bucket_hi i = if i + 1 >= bucket_count then max_int else bucket_lo (i + 1)

(* The first record's path: CAS a fresh array over the empty one this
   domain loaded ([seen]), then load whichever array won. *)
let rec publish_buckets t seen =
  ignore
    (Concurrent.Atomic_field.compare_and_set_field t buckets_field seen
       (Array.make bucket_count 0));
  let b = t.buckets in
  if Array.length b = 0 then publish_buckets t b else b

let rec raise_max t v =
  let cur = t.max in
  if v > cur && not (Concurrent.Atomic_field.compare_and_set_field t max_field cur v)
  then raise_max t v

let record t v =
  let v = if v < 0 then 0 else v in
  let b = t.buckets in
  let b = if Array.length b = 0 then publish_buckets t b else b in
  ignore (Concurrent.Atomic_field.fetch_and_add_field b (index_of v) 1);
  ignore (Concurrent.Atomic_field.fetch_and_add_field t sum_field v);
  raise_max t v

let count t = Array.fold_left ( + ) 0 t.buckets
let sum t = t.sum
let max_value t = t.max

(* Sparse (index, count) view of the nonzero buckets, ascending — the
   portable form {!Snap} serialises for fleet aggregation. *)
let nonzero_buckets t =
  let b = t.buckets in
  let out = ref [] in
  for i = Array.length b - 1 downto 0 do
    let n = b.(i) in
    if n > 0 then out := (i, n) :: !out
  done;
  !out

let reset t =
  let b = t.buckets in
  Array.fill b 0 (Array.length b) 0;
  t.sum <- 0;
  t.max <- 0
