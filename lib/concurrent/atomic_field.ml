external compare_and_set_field : 'r -> int -> 'a -> 'a -> bool
  = "mvkv_atomic_cas_field"
  [@@noalloc]

external fetch_and_add_field : 'r -> int -> int -> int
  = "mvkv_atomic_fetch_add_field"
  [@@noalloc]

external load_int_field : 'r -> int -> int = "mvkv_atomic_load_int_field" [@@noalloc]

external store_int_field : 'r -> int -> int -> unit = "mvkv_atomic_store_int_field"
  [@@noalloc]

let compare_and_set a i seen v =
  if i < 0 || i >= Array.length a then invalid_arg "Atomic_field.compare_and_set";
  compare_and_set_field a i seen v
