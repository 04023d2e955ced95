(** Bounded overwrite-oldest ring buffer of {!Span.event}s plus Chrome
    [trace_event] JSON exporters — per-node and cluster-merged.

    Install one as the span sink with {!install} and the last
    [capacity] spans are always available: [drain] hands them out
    oldest-first, each exactly once, [to_chrome_json] renders a
    document that opens directly in [chrome://tracing] / Perfetto (one
    lane per domain, span depth in [args], trace context in [args] when
    present). Recording is one fetch-and-add plus one compare-and-set;
    safe under concurrent [Domain]s.

    {!merge_chrome} assembles the rings of many nodes into one causal
    document: one Chrome process lane per node, timestamps rebased by
    per-node clock deltas onto a common epoch. *)

type t

val create : capacity:int -> t
(** Raises [Invalid_argument] when [capacity < 1]. *)

val total : t -> int
(** Events ever recorded, including overwritten ones. *)

val length : t -> int
(** Events [dump] would report now. *)

val record : t -> Span.event -> unit

val install : t -> unit
(** [Span.set_sink] this buffer's [record]. *)

val dump : t -> Span.event list
(** The events recorded since the last {!drain} that the ring still
    holds, oldest-first, up to the first one whose writer has not yet
    stored it. Drains nothing. *)

val drain : t -> Span.event list
(** As {!dump}, and marks those events drained: a drain racing writers
    or other drains reports each recorded event exactly once, unless
    the ring overwrote it first. *)

val chrome_json : ?clock_ns:int -> Span.event list -> Json.t
(** [clock_ns] (the emitting node's monotonic clock at dump time)
    is stamped into the document as ["clockNs"] — the rebasing anchor
    for {!merge_chrome}. *)

val to_chrome_json : t -> Json.t

val merge_chrome : (string * Json.t * int) list -> Json.t
(** [merge_chrome [(label, doc, delta_ns); ...]] merges per-node
    Chrome documents (as produced by {!chrome_json}) into one: part
    [i] becomes pid [i+1] with a [process_name] metadata event naming
    [label], and its timestamps are shifted by [delta_ns] (typically
    [collector_now_ns - node clockNs]) so all lanes share one time
    base. Events carrying a span id are deduplicated across parts. *)
