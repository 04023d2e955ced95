(** Log-bucketed latency histogram (HDR-style).

    Records non-negative nanosecond values into 16 sub-buckets per
    power-of-two octave (worst-case relative error 1/16), with exact
    small values. The record path is wait-free — two atomic adds, one
    bucket add and one CAS-loop max — and allocation-free. Percentile
    queries snapshot the buckets and return the matching bucket's
    midpoint, clamped to the observed maximum. Safe under concurrent
    [Domain]s. Create named instances through {!Registry}. *)

type t

val create : string -> t
val name : t -> string

val record : t -> int -> unit
(** [record t ns] adds one sample. Negative values clamp to 0. *)

val count : t -> int
val sum : t -> int
val max_value : t -> int
val mean : t -> float

val percentile : t -> float -> int
(** [percentile t q] for [q] in [0,1], e.g. [percentile t 0.99]. 0 when
    empty. *)

val merge : t -> t -> t
(** [merge a b] is a fresh histogram (named after [a]) whose buckets,
    count and sum are the exact element-wise sums of the inputs and
    whose max is the larger of the two. Percentiles of the merge
    bracket the inputs' percentiles. The fleet-aggregation primitive
    behind [mvkv cluster top]. *)

val nonzero_buckets : t -> (int * int) list
(** [(bucket_index, count)] per nonzero bucket, ascending — the sparse
    form {!Snap} ships across the wire. *)

val reset : t -> unit

(**/**)

val index_of : int -> int
val bucket_lo : int -> int
val bucket_hi : int -> int
