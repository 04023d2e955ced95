(* Log-bucketed (HDR-style) latency histogram.

   Values are nanoseconds (non-negative ints). Buckets: exact for
   v < 16, then 16 sub-buckets per power-of-two octave — a worst-case
   relative error of 1/16 per recorded value, constant memory, and a
   wait-free record path (one atomic add per bucket plus a CAS loop for
   the max). Safe under concurrent Domains; percentile reads are
   monotone snapshots (they may race with writers, which only makes
   them conservative). *)

let sub_bits = 4
let subs = 1 lsl sub_bits (* 16 sub-buckets per octave *)
let octaves = 60
let bucket_count = subs * octaves

type t = {
  name : string;
  buckets : int Atomic.t array;
  count : int Atomic.t;
  sum : int Atomic.t;
  max : int Atomic.t;
}

let create name =
  {
    name;
    buckets = Array.init bucket_count (fun _ -> Atomic.make 0);
    count = Atomic.make 0;
    sum = Atomic.make 0;
    max = Atomic.make 0;
  }

let name t = t.name

(* Position of the most significant set bit; v must be >= 1. *)
let rec msb_from v acc = if v <= 1 then acc else msb_from (v lsr 1) (acc + 1)

let index_of v =
  if v < subs then v
  else begin
    let m = msb_from v 0 in
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

let rec atomic_max cell v =
  let cur = Atomic.get cell in
  if v > cur && not (Atomic.compare_and_set cell cur v) then atomic_max cell v

let record t v =
  let v = if v < 0 then 0 else v in
  ignore (Atomic.fetch_and_add t.buckets.(index_of v) 1);
  ignore (Atomic.fetch_and_add t.count 1);
  ignore (Atomic.fetch_and_add t.sum v);
  atomic_max t.max v

let count t = Atomic.get t.count
let sum t = Atomic.get t.sum
let max_value t = Atomic.get t.max

let mean t =
  let n = count t in
  if n = 0 then 0.0 else float_of_int (sum t) /. float_of_int n

(* Smallest bucket whose cumulative count reaches [q * count]; reported
   as the bucket midpoint (clamped to the observed max). *)
let percentile t q =
  let n = count t in
  if n = 0 then 0
  else begin
    let rank = int_of_float (ceil (q *. float_of_int n)) in
    let rank = if rank < 1 then 1 else if rank > n then n else rank in
    let acc = ref 0 and result = ref (max_value t) and found = ref false in
    (try
       for i = 0 to bucket_count - 1 do
         acc := !acc + Atomic.get t.buckets.(i);
         if !acc >= rank then begin
           let hi = min (bucket_hi i) (max_value t + 1) in
           result := (bucket_lo i + hi) / 2;
           found := true;
           raise Exit
         end
       done
     with Exit -> ());
    if !found then !result else max_value t
  end

(* Sparse (index, count) view of the nonzero buckets, ascending — the
   portable form {!Snap} serialises for fleet aggregation. *)
let nonzero_buckets t =
  let out = ref [] in
  for i = bucket_count - 1 downto 0 do
    let n = Atomic.get t.buckets.(i) in
    if n > 0 then out := (i, n) :: !out
  done;
  !out

(* Log-bucket merge: because both inputs share the same bucket
   boundaries, adding the bucket arrays is exact — count and sum are
   exactly additive and every percentile of the merge lies between the
   inputs' percentiles (bracketing, property-tested in test_obs). *)
let merge a b =
  let m = create a.name in
  for i = 0 to bucket_count - 1 do
    Atomic.set m.buckets.(i) (Atomic.get a.buckets.(i) + Atomic.get b.buckets.(i))
  done;
  Atomic.set m.count (count a + count b);
  Atomic.set m.sum (sum a + sum b);
  Atomic.set m.max (max (max_value a) (max_value b));
  m

let reset t =
  Array.iter (fun b -> Atomic.set b 0) t.buckets;
  Atomic.set t.count 0;
  Atomic.set t.sum 0;
  Atomic.set t.max 0
