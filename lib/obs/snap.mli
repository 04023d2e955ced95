(** Portable, mergeable registry snapshots — the fleet-aggregation
    unit.

    A snapshot captures every registered metric as plain data:
    counters and gauges as values, histograms with their raw log-bucket
    counts (so merged percentiles are exact up to bucket resolution).
    Snapshots serialise to JSON (the [Registry_snap] wire opcode),
    merge associatively (bucket-wise for histograms, sums for the
    rest), and render as one labelled Prometheus page. Every rate,
    percentile, SLO attainment and fleet merge is a read over
    snapshots: a rate is the delta of a counter between two of them. *)

type hist = {
  hcount : int;
  hsum : int;
  hmax : int;
  buckets : (int * int) list;  (** (log-bucket index, count), ascending *)
}

type entry =
  | Counter of int
  | Gauge of int
  | Hist of hist

type t = (string * entry) list
(** Sorted by name. *)

val of_registry : unit -> t
(** Snapshot the process-global {!Registry}. *)

val counter : t -> string -> int
(** 0 when absent. *)

val gauge : t -> string -> int
(** 0 when absent. *)

val find_hist : t -> string -> hist option

val hist_percentile : hist -> float -> int
(** [hist_percentile h q] for [q] in [0,1]: the midpoint of the
    smallest bucket whose cumulative count reaches [q * count], clamped
    to the observed maximum. 0 when empty. *)

val hist_le_fraction : hist -> le:int -> float option
(** Fraction of samples certainly [<= le] (whole log-buckets only, so
    conservative by at most 1/16 relative). [None] when empty. The SLO
    attainment primitive. *)

val merge : t -> t -> t
(** Counters and gauges add; histograms merge bucket-wise (count/sum
    exactly additive, max of max, and every percentile of the merge
    lies between the inputs' at bucket granularity). *)

val merge_all : t list -> t
(** [[]] for the empty list. *)

val to_json : t -> Json.t
val of_json : Json.t -> (t, string) result

val sanitize : string -> string
(** A registry name in the Prometheus grammar: every
    non-[[a-zA-Z0-9_:]] character becomes ['_'], and a leading digit
    gets a ['_'] prefix. *)

val prometheus : ((string * string) list * t) list -> string
(** One exposition page over many labelled snapshots: one HELP/TYPE
    preamble per metric family, one series per part carrying its label
    set (e.g. [shard="2",replica="1"]). *)
