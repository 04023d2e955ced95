(** Lightweight span tracing with optional cross-node trace contexts.

    [enter name] reads the monotonic clock and returns it as the span
    token (an [int] — no allocation); [exit name token] notifies the
    sink, if any, with the nesting depth (1 = outermost). A span records
    no histogram, so with no sink installed it allocates nothing. Depth
    is tracked per domain. With {!Control} disabled, [enter] returns 0
    and [exit] ignores it.

    A per-domain {!context} (set by servers when dispatching a traced
    request, or by a router when originating one) links local spans
    into a distributed trace: while a sampled context is installed,
    every event carries the trace id, a fresh {!Traceid.new_span_id},
    and the context's parent span. [with_] additionally re-points the
    context at its own span for the duration of the body, so nested
    spans and outgoing requests parent to it. *)

type context = { trace : Traceid.t; parent : int; sampled : bool }
(** [parent] is the span id new child spans should parent to. *)

type event = {
  name : string;
  depth : int;
  start_ns : int;
  stop_ns : int;
  dom : int;
  trace : Traceid.t;
  span_id : int;
  parent : int;
}
(** [dom] is the recording domain's id — trace exporters use it as the
    thread lane. [trace]/[span_id]/[parent] are {!Traceid.null}/0/0 for
    events recorded outside a sampled context. *)

val set_sink : (event -> unit) option -> unit
(** Install (or remove) the span sink. The sink runs inside [exit];
    keep it cheap. *)

val get_context : unit -> context option

val with_context : context option -> (unit -> 'a) -> 'a
(** Install [c] for the duration of the body (also on exception),
    restoring whatever was installed before. *)

val enter : string -> int
val exit : string -> int -> unit

val with_ : string -> (unit -> 'a) -> 'a
(** [with_ name f] wraps [f] in a span, also on exception. Under a
    sampled context the span gets its own id and children of [f]
    parent to it. *)
