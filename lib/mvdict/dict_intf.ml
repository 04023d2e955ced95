(** The multi-version ordered dictionary API (Table 1 of the paper).

    All implementations — the persistent PSkipList, the ephemeral
    ESkipList and LockedMap baselines, and the SQL-engine-backed stores in
    [lib/minidb] — satisfy {!S}, so benchmarks and tests are written once
    against the signature. *)

(** One step in a key's history. *)
type 'v event =
  | Put of 'v  (** the key was inserted / updated with this value *)
  | Del  (** the key was removed *)

let pp_event pp_value fmt = function
  | Put v -> Format.fprintf fmt "put %a" pp_value v
  | Del -> Format.pp_print_string fmt "del"

let equal_event equal_value a b =
  match (a, b) with
  | Put x, Put y -> equal_value x y
  | Del, Del -> true
  | Put _, Del | Del, Put _ -> false

(* Canonical batch form, shared by every store (and by the wire/repl
   layers so backups replay exactly what the primary installed): sort
   by key, and for duplicate keys keep only the last occurrence —
   within one batch all events share one version, so earlier
   occurrences could never be observed anyway. The sort is stable, so
   "last occurrence wins" is well-defined. *)
(* Fast path shared by both canonicalisers: callers routinely send
   already-sorted batches (ascending scans, router buckets, replicated
   frames), and for those one comparison per element replaces the whole
   sort-and-dedup. *)
let rec ascending_pairs ~compare = function
  | [] | [ _ ] -> true
  | (k1, _) :: ((k2, _) :: _ as rest) ->
      compare k1 k2 < 0 && ascending_pairs ~compare rest

let rec ascending_keys ~compare = function
  | [] | [ _ ] -> true
  | k1 :: (k2 :: _ as rest) ->
      compare k1 k2 < 0 && ascending_keys ~compare rest

(* After a stable sort, the last occurrence of a key ends its run, so
   it is the first of its run in the reversed list. *)
let rec keep_last ~compare acc = function
  | [] -> acc
  | ((k, _) as pair) :: rest -> (
      match acc with
      | (k', _) :: _ when compare k k' = 0 -> keep_last ~compare acc rest
      | _ -> keep_last ~compare (pair :: acc) rest)

let canonical_pairs ~compare pairs =
  if ascending_pairs ~compare pairs then pairs
  else
    keep_last ~compare []
      (List.rev (List.stable_sort (fun (k1, _) (k2, _) -> compare k1 k2) pairs))

let canonical_keys ~compare keys =
  if ascending_keys ~compare keys then keys else List.sort_uniq compare keys

module type S = sig
  type t
  type key
  type value

  val name : string
  (** Display name used by benchmarks ("PSkipList", "SQLiteReg", ...). *)

  val insert : t -> key -> value -> unit
  (** Bind [key] to [value] in the next snapshot. Inserting an existing
      key updates it (equivalent to a remove + insert, per Sec. V-D). *)

  val remove : t -> key -> unit
  (** Remove [key] from the next snapshot (appends a removal marker;
      removing an absent key is a no-op in every visible snapshot). *)

  val insert_batch : t -> (key * value) list -> unit
  (** Install every pair under one version bump, equivalent to inserting
      them one by one with no intervening {!tag}: the batch is first
      canonicalised (sorted by key, later duplicates winning), so the
      visible history of each key gains at most one event per batch.
      The skip-list stores take the store gate and stamp the version
      once per batch, and PSkipList coalesces the flush/fence epilogue
      across it. *)

  val remove_batch : t -> key list -> unit
  (** Batch analogue of {!remove}: one removal marker per distinct key,
      all under one version bump. *)

  val tag : t -> int
  (** Commit the operations issued so far as an immutable snapshot and
      return its version number (1, 2, ...). *)

  val current_version : t -> int
  (** Latest committed version; 0 before the first {!tag}. *)

  val find : t -> ?version:int -> key -> value option
  (** Value of [key] in snapshot [version] (default: the current state,
      including not-yet-tagged operations). [None] if absent or
      removed. *)

  val extract_history : t -> key -> (int * value event) list
  (** Evolution of [key]: the versions at which it was inserted, updated
      or removed, oldest first. *)

  val extract_snapshot : t -> ?version:int -> unit -> (key * value) array
  (** All live key-value pairs of snapshot [version], in ascending key
      order. *)

  val iter_snapshot : t -> ?version:int -> (key -> value -> unit) -> unit
  (** Iterate snapshot [version] in ascending key order without
      materialising it. *)

  val iter_range : t -> ?version:int -> lo:key -> hi:key -> (key -> value -> unit) -> unit
  (** Iterate the live pairs of snapshot [version] whose keys fall in
      [lo, hi), ascending. Ordered range scans are what distinguish this
      store from unordered key-value stores (Sec. I). *)

  val key_count : t -> int
  (** Number of distinct keys ever inserted (the index cardinality
      N_k of the complexity analysis). *)
end
