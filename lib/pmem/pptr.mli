(** Persistent pointers.

    A persistent pointer is a byte offset into a {!Media.t}; offset 0 is
    the null pointer (the heap header occupies the first bytes of every
    media, so no valid object ever lives at 0). Offsets remain valid
    across process restarts, which is what makes the compact
    representation reconstructible. *)

type t = int

val null : t
val is_null : t -> bool

val align8 : int -> int
(** Round a size or offset up to 8-byte alignment. *)
