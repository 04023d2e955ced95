(** Key/value codecs for the multi-version stores.

    The persistent store keeps keys and values as single 64-bit words in
    its compact representation: either an {e inline} payload (for small
    scalars such as the paper's integer keys/values — no allocation on
    the hot path) or a pointer to a {!Pmem.Pblob} (for arbitrary data).
    The word encoding reserves:

    - [0] — the removal marker / empty slot,
    - odd words — inline payloads ([payload lsl 1 lor 1], payload < 2{^61}),
    - even non-zero words — blob offsets (always 8-aligned, hence even).

    Ephemeral stores use the OCaml values directly and only need
    [compare]. *)

module type VALUE = sig
  type t

  val inline : t -> int option
  (** [Some payload] with [0 <= payload < 2{^61}] to store the value
      inline; [None] to store it as a blob. *)

  val of_inline : int -> t
  (** Inverse of [inline] on its [Some] range. *)

  val to_bytes : t -> Bytes.t
  val of_bytes : Bytes.t -> t
end

module type KEY = sig
  include VALUE

  val compare : t -> t -> int
end

module Int_value : VALUE with type t = int
(** Integers; inline when in [0, 2{^61}), blob otherwise. *)

module Int_key : KEY with type t = int

module String_value : VALUE with type t = string
(** Strings; always blobs. *)

module String_key : KEY with type t = string

(** {1 Word encoding} (shared by the persistent store and its tests) *)

val marker_word : int
val is_marker : int -> bool

val is_blob : int -> bool
(** Whether a word points to a blob (even and non-zero). *)

val max_inline : int

val encode : (module VALUE with type t = 'a) -> Pmem.Pheap.t -> 'a -> int
(** Encode a value as a word, allocating a blob if needed. *)

val decode : (module VALUE with type t = 'a) -> Pmem.Media.t -> int -> 'a
(** Decode a non-marker word. *)

val free_word : Pmem.Pheap.t -> int -> unit
(** Release the blob behind a word, if any (markers and inline words are
    no-ops). *)

val mark_word : Pmem.Pheap.t -> Pmem.Alloc.marks -> int -> unit
(** Mark the blob behind a word as live, if any, for
    {!Pmem.Alloc.rebuild}. *)
