(** Log-bucketed latency histogram (HDR-style).

    Records non-negative nanosecond values into 16 sub-buckets per
    power-of-two octave (worst-case relative error 1/16), with exact
    small values. A histogram holds no buckets until its first record
    allocates them (960 ints, outside the minor heap). The record path
    is wait-free — a fetch-and-add on the bucket, one on the sum, and a
    CAS-loop max — and allocates nothing after that first record. Safe
    under concurrent [Domain]s. Create named instances through
    {!Registry}; percentiles and merges are read off a {!Snap}
    snapshot. *)

type t

val create : unit -> t

val record : t -> int -> unit
(** [record t ns] adds one sample. Negative values clamp to 0. *)

val count : t -> int
(** The sum of the buckets. *)

val sum : t -> int
val max_value : t -> int

val nonzero_buckets : t -> (int * int) list
(** [(bucket_index, count)] per nonzero bucket, ascending — the sparse
    form {!Snap} ships across the wire. *)

val reset : t -> unit
(** Zeroes a recorded histogram in place; an unrecorded one stays
    unallocated. *)

(**/**)

val index_of : int -> int
val bucket_lo : int -> int
val bucket_hi : int -> int
