(** Threshold-gated ring log of slow operations.

    [note] records (op name, optional key, latency, wall timestamp)
    into an overwrite-oldest ring when the latency is at or above the
    threshold; faster operations cost one atomic load and a compare. A
    threshold of 0 (or negative) disables recording entirely. Safe
    under concurrent [Domain]s. *)

type entry = { op : string; key : int option; latency_ns : int; wall_ns : int }

type t

val create : ?capacity:int -> threshold_ns:int -> unit -> t
(** Default capacity 128. Raises [Invalid_argument] when
    [capacity < 1]. *)

val set_threshold : t -> int -> unit

val total : t -> int
(** Entries ever logged, including overwritten ones. *)

val note : t -> op:string -> ?key:int -> latency_ns:int -> unit -> unit

val newest : t -> n:int -> entry list
(** Up to [n] most recent entries, newest first. *)

val to_json : entry list -> Json.t
(** A list of [{op, key, latency_ns, wall_ts}] objects ([wall_ts] in
    fractional Unix seconds; [key] is [null] when absent). *)
