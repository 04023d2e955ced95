(** Per-op latency objectives, evaluated client-side.

    Parsed from CLI specs like ["find=1ms,insert=5ms"]; {!attainment}
    evaluates them on a node's registry snapshot, so clients can hold
    any node to an objective the node never heard of. *)

type objective = { op : string; threshold_ns : int }

val parse : string -> (objective list, string) result
(** ["op=duration,..."] with ns/us/ms/s suffixes, e.g.
    ["find=1ms,insert=500us"]. Rejects empty specs, bad durations, and
    duplicate ops. *)

val attainment : objective list -> Snap.t -> (string * float) option
(** Worst attainment across the objectives, evaluated on the
    snapshot's [net.<op>.ns] histograms: [(op, fraction meeting the
    objective)], conservative by at most one log bucket (1/16
    relative). [None] when no objective op has samples. *)
