(** Ephemeral (RAM) history backend — the version-history used by the
    LockedMap and ESkipList baselines.

    Same {!Lazy_tail} semantics and segment geometry as the persistent
    backend, but entries live in OCaml arrays and persistence calls are
    no-ops: this is the paper's "lock-free ephemeral vector with binary
    search support". The delta between the two backends is exactly the
    cost of persistence the experiments quantify (ESkipList vs
    PSkipList). It has no store and no handle: both are [()]. *)

module Make (V : sig
  type t
end) : sig
  module Backend :
    Lazy_tail.BACKEND with type store = unit and type handle = unit and type value = V.t option
  (** Values are [Some v]; the removal marker is [None]. *)

  module H : module type of Lazy_tail.Make (Backend)

  type t = H.t

  val create : unit -> t

  val lookup : t -> ctx:Version.t -> version:int -> V.t option
  (** The value of the latest visible entry at or below [version]; [None]
      when there is none or it is the removal marker. *)
end
