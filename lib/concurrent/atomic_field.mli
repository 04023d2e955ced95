(** Compare-and-set, fetch-and-add, and sequentially consistent loads
    and stores of ints, on one field of a block: a cell of an array or a
    field of a record, in place, with no [Atomic.t] box around it.

    OCaml 5.1's [Atomic] acts only on its own one-field box, so a tower
    of [n] atomic cells costs [n] boxes of 2 words each and one more
    load per cell read. These operations act on the field itself: the
    CAS goes through the runtime's [caml_atomic_cas_field], which
    applies the write barrier (remembered set, marking) as any heap
    store does, and the fetch-and-add is a hardware [atomic_fetch_add]
    on an immediate int, which needs none. Both are sequentially
    consistent. (OCaml 5.4's [Atomic.Loc] offers the same without a
    stub.)

    Reads are plain loads ([a.(i)], [r.field]) unless their order
    matters: a field is a single word that a CAS replaces whole, and a
    reader that loads a pointer a CAS published and then reads through
    it sees the block as it was initialised, as for any other racy read
    of an OCaml field. Where a domain stores to one field and then
    loads another that a second domain stores to, plain accesses let
    both loads miss the other's store; {!store_int_field} and
    {!load_int_field} are sequentially consistent, as [Atomic.set] and
    [Atomic.get] are, and rule that out.

    The caller names the field by its position. A record field's
    position is its declaration order from 0, so a record that uses
    these operations documents the positions beside its type. Never
    apply them to a float array or an all-float record, whose fields
    are unboxed. *)

val compare_and_set : 'a array -> int -> 'a -> 'a -> bool
(** [compare_and_set a i seen v] sets [a.(i)] to [v] if it is
    physically [seen], and says whether it did. Raises
    [Invalid_argument] if [i] is out of bounds. *)

external compare_and_set_field : 'r -> int -> 'a -> 'a -> bool
  = "mvkv_atomic_cas_field"
  [@@noalloc]
(** [compare_and_set_field r i seen v] is {!compare_and_set} on field
    [i] of block [r], which must hold an ['a]. Unchecked. *)

external fetch_and_add_field : 'r -> int -> int -> int
  = "mvkv_atomic_fetch_add_field"
  [@@noalloc]
(** [fetch_and_add_field r i n] adds [n] to the int in field [i] of
    block [r] and returns the int it held before. Unchecked. *)

external load_int_field : 'r -> int -> int = "mvkv_atomic_load_int_field" [@@noalloc]
(** [load_int_field r i] loads the int in field [i] of block [r],
    sequentially consistently. Unchecked. *)

external store_int_field : 'r -> int -> int -> unit = "mvkv_atomic_store_int_field"
  [@@noalloc]
(** [store_int_field r i n] stores the int [n] into field [i] of block
    [r], sequentially consistently. An int needs no write barrier.
    Unchecked. *)
