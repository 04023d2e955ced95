(** Global metric registry: named counters, gauges and histograms.

    [counter]/[gauge]/[histogram] are get-or-create — the same name
    always returns the same handle, so functor instantiations and
    repeated module loads share metrics. Resolve handles once at module
    initialisation; updates on the returned handles are lock-free.
    Asking for an existing name as a different kind raises
    [Invalid_argument]. *)

val counter : string -> Metric.counter
val gauge : string -> Metric.gauge
val histogram : string -> Histogram.t
val window : string -> Window.t

type entry =
  | Counter of Metric.counter
  | Gauge of Metric.gauge
  | Histogram of Histogram.t
  | Window of Window.t

val snapshot : unit -> (string * entry) list
(** Every registered metric, sorted by name — what {!Snap} and the
    renderers below iterate. *)

val reset : unit -> unit
(** Zero every registered metric (registration survives). *)

val to_json : unit -> Json.t
(** [{"counters": {...}, "gauges": {...}, "histograms": {name:
    {count, mean_ns, p50_ns, p90_ns, p99_ns, max_ns}}, "windows":
    {name: {rate_1s, rate_10s, rate_60s}}}], names sorted. *)

val pp : Format.formatter -> unit -> unit
(** Human-readable dump of the whole registry, one line per metric. *)
