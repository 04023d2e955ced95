(** Minimal JSON values: emit the metrics report, parse it back for
    validation. No external dependencies. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

val to_string : ?indent:bool -> t -> string
(** Non-finite [Float]s (nan, infinities) are emitted as [null] — JSON
    has no literal for them and strict parsers reject [nan]/[inf]. *)

val of_string : string -> (t, string) result
(** Strict parse of a complete document (trailing garbage is an
    error). Only ASCII [\u] escapes are decoded. *)

val member : string -> t -> t option
(** Field lookup on [Obj]; [None] on other constructors. *)
