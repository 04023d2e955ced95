(** Snapshot utilities: diffing extracted snapshots.

    An extracted snapshot is a key-sorted [(key, value)] array (the
    result of [extract_snapshot]). Diffing two snapshots in one merge
    pass supports the introspection use cases the paper motivates
    (provenance, understanding data evolution, branch comparison). *)

type ('k, 'v) change =
  | Added of 'k * 'v  (** present in [next] only *)
  | Removed of 'k * 'v  (** present in [prev] only *)
  | Changed of 'k * 'v * 'v  (** in both, value differs: (key, old, new) *)

val diff :
  compare_key:('k -> 'k -> int) ->
  equal_value:('v -> 'v -> bool) ->
  prev:('k * 'v) array ->
  next:('k * 'v) array ->
  ('k, 'v) change list
(** Changes turning [prev] into [next], ascending key order. O(|prev| +
    |next|). Both inputs must be sorted by key with distinct keys. *)
