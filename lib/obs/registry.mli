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
(** Every registered metric, sorted by name — what {!Snap} iterates;
    every rendering of the registry goes through a {!Snap.t}. *)

val reset : unit -> unit
(** Zero every registered metric (registration survives). *)
