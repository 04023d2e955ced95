type op =
  | Insert of int * int
  | Remove of int
  | Find of int * int
  | History of int

let pp_op fmt = function
  | Insert (k, v) -> Format.fprintf fmt "insert(%d, %d)" k v
  | Remove k -> Format.fprintf fmt "remove(%d)" k
  | Find (k, ver) -> Format.fprintf fmt "find(%d, v%d)" k ver
  | History k -> Format.fprintf fmt "history(%d)" k

let insert_phase ~keys ~values ~threads =
  if Array.length keys <> Array.length values then
    invalid_arg "Opgen.insert_phase: keys/values length mismatch";
  let ops = Array.map2 (fun k v -> Insert (k, v)) keys values in
  Keygen.partition_even ops threads

let remove_phase ~seed ~keys ~threads =
  let shuffled = Keygen.shuffled_copy ~seed keys in
  Keygen.partition_even (Array.map (fun k -> Remove k) shuffled) threads

let query_phase ~seed ~keys ~queries ~max_version ~kind ~threads =
  let population = Array.length keys in
  if population = 0 then invalid_arg "Opgen.query_phase: empty key population";
  let per_thread = queries / threads in
  Array.init threads (fun tid ->
      let rng = Mt19937.create_by_array (Keygen.thread_seed ~base:seed ~node:0 ~thread:tid) in
      Array.init per_thread (fun _ ->
          let key = keys.(Mt19937.next_int rng population) in
          match kind with
          | `Find -> Find (key, Mt19937.next_int rng (max_version + 1))
          | `History -> History key))

let count trace = Array.fold_left (fun acc ops -> acc + Array.length ops) 0 trace
