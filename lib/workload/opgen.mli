(** Pre-generated operation traces for the paper's experiments.

    Sec. V-C: all inputs are pre-generated and cached before timing starts,
    so the measured loops touch nothing but the store. A trace is an array
    of concrete operations per thread. *)

type op =
  | Insert of int * int          (** key, value *)
  | Remove of int                (** key *)
  | Find of int * int            (** key, version *)
  | History of int               (** key *)

val pp_op : Format.formatter -> op -> unit

val insert_phase : keys:int array -> values:int array -> threads:int -> op array array
(** Unique-key insert workload of Sec. V-D, split evenly over [threads].
    [keys] and [values] must have equal length. *)

val remove_phase : seed:int -> keys:int array -> threads:int -> op array array
(** Random shuffling of [keys] split evenly over [threads] (Sec. V-D). *)

val query_phase :
  seed:int -> keys:int array -> queries:int -> max_version:int ->
  kind:[ `Find | `History ] -> threads:int -> op array array
(** Sec. V-E: each thread draws [queries/threads] random keys out of the
    key population and issues a find (with a random version in
    [0, max_version]) or a history query. *)

val count : op array array -> int
(** Total number of operations in a trace. *)
