(** Prometheus text-format building blocks, shared by the page renderer
    {!Snap.prometheus}. Registry names are sanitized to the Prometheus
    grammar (every non-[[a-zA-Z0-9_:]] character becomes ['_']); the
    original name travels in the [# HELP] line. *)

val sanitize : string -> string

val series : Buffer.t -> string -> ?labels:(string * string) list -> string -> unit
(** Append one sample line ([name{labels} value\n]). *)
