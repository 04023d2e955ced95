(** Fork-join execution over OCaml domains.

    The real-concurrency counterpart of the paper's OpenMP regions: spawn
    [threads] domains, run [f tid] on each, join all. An exception from a
    worker is re-raised after every domain has been joined (no dangling
    domains). *)

val run : threads:int -> (int -> 'a) -> 'a array
(** [run ~threads f] computes [[| f 0; ...; f (threads-1) |]] in
    parallel. [threads = 1] runs inline (no domain spawn). *)
