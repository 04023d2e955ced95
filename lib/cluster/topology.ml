type t = {
  key_bits : int;
  epoch : int;
  sets : Net.Sockaddr.t array array;  (** sets.(i).(0) is range i's primary *)
  ranges : (int * int) array;
      (** ranges.(i) = [lo, hi) owned by shard i; ascending, contiguous,
          covering [0, 2^key_bits) — shard order IS key order *)
}

(* The key space [0, 2^key_bits) must be representable: [1 lsl 62] is
   [min_int] on 63-bit ints, which would leave it empty. *)
let max_key_bits = 61

(* Endpoints are compared textually: two spellings of the same address
   (e.g. tcp://localhost vs tcp://127.0.0.1) are operator aliases we
   cannot see through, but a literal repeat is always a mistake — one
   process cannot serve two replica slots. *)
let check_no_duplicates sets =
  let seen = Hashtbl.create 16 in
  Array.iter
    (Array.iter (fun ep ->
         let s = Net.Sockaddr.to_string ep in
         if Hashtbl.mem seen s then
           invalid_arg (Printf.sprintf "duplicate endpoint %s" s)
         else Hashtbl.add seen s ()))
    sets

(* The default placement: K ranges of ceil(2^key_bits / K) keys each,
   the last one ending at the key space's end. Topology files without
   range directives have always been split this way, so changing the
   arithmetic would move their keys. *)
let default_ranges ~key_bits k =
  let space = 1 lsl key_bits in
  let width = (space + k - 1) / k in
  Array.init k (fun i ->
      let lo = i * width in
      (lo, if i = k - 1 then space else min space (lo + width)))

let check_ranges ~key_bits ~shards ranges =
  if Array.length ranges <> shards then
    invalid_arg
      (Printf.sprintf "Topology: %d range(s) for %d shard(s)"
         (Array.length ranges) shards);
  let space = 1 lsl key_bits in
  Array.iteri
    (fun i (lo, hi) ->
      if lo >= hi then
        invalid_arg (Printf.sprintf "Topology: empty range [%d, %d) for shard %d" lo hi i);
      if i = 0 && lo <> 0 then
        invalid_arg (Printf.sprintf "Topology: shard 0 must start at 0, not %d" lo);
      if i > 0 then begin
        let _, prev_hi = ranges.(i - 1) in
        if lo <> prev_hi then
          invalid_arg
            (Printf.sprintf "Topology: gap between shard %d (ends %d) and shard %d (starts %d)"
               (i - 1) prev_hi i lo)
      end;
      if i = shards - 1 && hi <> space then
        invalid_arg
          (Printf.sprintf "Topology: last range ends at %d, key space ends at %d" hi space))
    ranges

let create_replicated ~key_bits ?(epoch = 0) ?ranges sets =
  if Array.length sets = 0 then invalid_arg "Topology.create: no shards";
  if epoch < 0 then invalid_arg "Topology.create: negative epoch";
  if key_bits < 1 || key_bits > max_key_bits then
    invalid_arg "Topology.create: key_bits";
  Array.iteri
    (fun i set ->
      if Array.length set = 0 then
        invalid_arg (Printf.sprintf "Topology.create: shard %d has no endpoints" i))
    sets;
  let sets = Array.map Array.copy sets in
  check_no_duplicates sets;
  let ranges =
    match ranges with
    | None -> default_ranges ~key_bits (Array.length sets)
    | Some ranges ->
        check_ranges ~key_bits ~shards:(Array.length sets) ranges;
        Array.copy ranges
  in
  { key_bits; epoch; sets; ranges }

let create ~key_bits endpoints =
  create_replicated ~key_bits (Array.map (fun ep -> [| ep |]) endpoints)

let key_bits t = t.key_bits
let epoch t = t.epoch
let shards t = Array.length t.sets

let check_shard t what i =
  if i < 0 || i >= Array.length t.sets then
    invalid_arg
      (Printf.sprintf "Topology.%s: shard %d of %d" what i (Array.length t.sets))

let replicas t i =
  check_shard t "replicas" i;
  Array.copy t.sets.(i)

let replica_count t i =
  check_shard t "replica_count" i;
  Array.length t.sets.(i)

let endpoint t i =
  check_shard t "endpoint" i;
  t.sets.(i).(0)

let primary = endpoint

let backups t i =
  check_shard t "backups" i;
  Array.sub t.sets.(i) 1 (Array.length t.sets.(i) - 1)

let replica t i j =
  check_shard t "replica" i;
  if j < 0 || j >= Array.length t.sets.(i) then
    invalid_arg
      (Printf.sprintf "Topology.replica: slot %d of %d (shard %d)" j
         (Array.length t.sets.(i)) i);
  t.sets.(i).(j)

let range t i =
  check_shard t "range" i;
  t.ranges.(i)

let with_epoch t epoch =
  if epoch < 0 then invalid_arg "Topology.with_epoch: negative epoch";
  { t with epoch }

(* Promotion: the chosen backup becomes the head of its replica set and
   the epoch is bumped, so requests stamped with the old epoch are
   fenced out everywhere the new epoch has been seen. The old primary
   stays in the set (as a backup) — when its process restarts it can
   rejoin and catch up instead of being forgotten. *)
let promote t ~shard ~replica =
  check_shard t "promote" shard;
  let set = t.sets.(shard) in
  if replica <= 0 || replica >= Array.length set then
    invalid_arg
      (Printf.sprintf "Topology.promote: backup slot %d of %d (shard %d)" replica
         (Array.length set) shard);
  let rotated =
    Array.init (Array.length set) (fun j ->
        if j = 0 then set.(replica)
        else if j <= replica then set.(j - 1)
        else set.(j))
  in
  let sets = Array.map Array.copy t.sets in
  sets.(shard) <- rotated;
  { t with sets; epoch = t.epoch + 1 }

(* ---- resharding rewrites (all epoch-bumped) ---- *)

(* Hand shard [shard]'s whole range to a new replica set. The outgoing
   set's endpoints leave the topology entirely; the migration
   coordinator has already shipped the range's histories to [set]. *)
let with_set t ~shard set =
  check_shard t "with_set" shard;
  if Array.length set = 0 then invalid_arg "Topology.with_set: empty replica set";
  let sets = Array.map Array.copy t.sets in
  sets.(shard) <- Array.copy set;
  check_no_duplicates sets;
  { t with sets; epoch = t.epoch + 1 }

(* Split shard [shard]'s range [lo, hi) at [at]: the shard keeps
   [lo, at), a new shard owning [at, hi) is inserted right after it
   (preserving the shard-order-equals-key-order invariant; later shard
   ids shift up by one) and is served by [set]. Epoch-bumped, so every
   router reloads the renumbered map before using it. *)
let split_range t ~shard ~at set =
  check_shard t "split_range" shard;
  if Array.length set = 0 then invalid_arg "Topology.split_range: empty replica set";
  let lo, hi = t.ranges.(shard) in
  if at <= lo || at >= hi then
    invalid_arg
      (Printf.sprintf "Topology.split_range: split point %d outside (%d, %d)" at lo hi);
  let k = Array.length t.sets in
  let sets =
    Array.init (k + 1) (fun i ->
        if i <= shard then Array.copy t.sets.(i)
        else if i = shard + 1 then Array.copy set
        else Array.copy t.sets.(i - 1))
  in
  let ranges =
    Array.init (k + 1) (fun i ->
        if i < shard then t.ranges.(i)
        else if i = shard then (lo, at)
        else if i = shard + 1 then (at, hi)
        else t.ranges.(i - 1))
  in
  check_no_duplicates sets;
  { t with sets; ranges; epoch = t.epoch + 1 }

(* Fold shard [shard + 1] into [shard]: the surviving shard's range
   absorbs its right neighbour's, the neighbour's replica set leaves the
   topology and later shard ids shift down by one. The coordinator has
   already shipped the neighbour's histories onto [shard]'s primary. *)
let merge_range t ~shard =
  check_shard t "merge_range" shard;
  if shard + 1 >= Array.length t.sets then
    invalid_arg
      (Printf.sprintf "Topology.merge_range: shard %d has no right neighbour" shard);
  let lo, _ = t.ranges.(shard) in
  let _, hi = t.ranges.(shard + 1) in
  let k = Array.length t.sets in
  let sets =
    Array.init (k - 1) (fun i ->
        if i <= shard then Array.copy t.sets.(i) else Array.copy t.sets.(i + 1))
  in
  let ranges =
    Array.init (k - 1) (fun i ->
        if i < shard then t.ranges.(i)
        else if i = shard then (lo, hi)
        else t.ranges.(i + 1))
  in
  { t with sets; ranges; epoch = t.epoch + 1 }

(* Ranges are ascending and contiguous: binary search. *)
let owner t key =
  if key < 0 || key >= 1 lsl t.key_bits then
    invalid_arg (Printf.sprintf "Topology.owner: key %d outside key space" key);
  let rec search lo hi =
    let mid = (lo + hi) / 2 in
    let rlo, rhi = t.ranges.(mid) in
    if key < rlo then search lo (mid - 1)
    else if key >= rhi then search (mid + 1) hi
    else mid
  in
  search 0 (Array.length t.ranges - 1)

let in_key_space t key = key >= 0 && key < 1 lsl t.key_bits

(* ---- spec parsing ---- *)

let strip s =
  let s = match String.index_opt s '#' with Some i -> String.sub s 0 i | None -> s in
  String.trim s

let words s = String.split_on_char ' ' s |> List.filter (fun w -> w <> "")

let ( let* ) = Result.bind

let of_string text =
  let err lineno msg = Error (Printf.sprintf "topology line %d: %s" lineno msg) in
  (* [shards]: (lineno, id, primary-first endpoint list) per `shard`
     line; [extras]: (lineno, id, endpoint) per `replica` line, appended
     to the matching set once ids are known to be dense; [ranges]:
     (lineno, id, lo, hi) per `range` line — optional, but when present
     every shard must have one. *)
  let rec scan lineno lines key_bits epoch shards extras ranges =
    match lines with
    | [] -> (
        match key_bits with
        | None -> Error "topology: missing \"key_bits N\" directive"
        | Some key_bits -> (
            match shards with
            | [] -> Error "topology: no \"shard I ENDPOINT...\" directives"
            | shards ->
                let k = List.length shards in
                let sets = Array.make k None in
                let rec place = function
                  | [] -> Ok ()
                  | (lineno, i, eps) :: rest ->
                      if i < 0 || i >= k then
                        err lineno (Printf.sprintf "shard id %d out of range for %d shard(s)" i k)
                      else if sets.(i) <> None then
                        err lineno (Printf.sprintf "duplicate shard id %d" i)
                      else begin
                        sets.(i) <- Some eps;
                        place rest
                      end
                in
                let rec attach = function
                  | [] -> Ok ()
                  | (lineno, i, ep) :: rest ->
                      if i < 0 || i >= k then
                        err lineno (Printf.sprintf "replica for shard %d out of range for %d shard(s)" i k)
                      else begin
                        sets.(i) <- Some (Option.get sets.(i) @ [ ep ]);
                        attach rest
                      end
                in
                let place_ranges () =
                  match ranges with
                  | [] -> Ok None
                  | ranges ->
                      let arr = Array.make k None in
                      let rec go = function
                        | [] ->
                            if Array.exists (( = ) None) arr then
                              Error
                                "topology: range directives must cover every shard"
                            else Ok (Some (Array.map Option.get arr))
                        | (lineno, i, lo, hi) :: rest ->
                            if i < 0 || i >= k then
                              err lineno
                                (Printf.sprintf "range for shard %d out of range for %d shard(s)" i k)
                            else if arr.(i) <> None then
                              err lineno (Printf.sprintf "duplicate range for shard %d" i)
                            else begin
                              arr.(i) <- Some (lo, hi);
                              go rest
                            end
                      in
                      go (List.rev ranges)
                in
                let* () = place shards in
                let* () = attach (List.rev extras) in
                let* ranges = place_ranges () in
                let sets = Array.map (fun s -> Array.of_list (Option.get s)) sets in
                let epoch = Option.value epoch ~default:0 in
                (match create_replicated ~key_bits ~epoch ?ranges sets with
                | t -> Ok t
                | exception Invalid_argument msg -> Error ("topology: " ^ msg))))
    | line :: rest -> (
        match words (strip line) with
        | [] -> scan (lineno + 1) rest key_bits epoch shards extras ranges
        | [ "key_bits"; n ] -> (
            match (key_bits, int_of_string_opt n) with
            | Some _, _ -> err lineno "duplicate key_bits directive"
            | None, Some n when n >= 1 && n <= max_key_bits ->
                scan (lineno + 1) rest (Some n) epoch shards extras ranges
            | None, _ ->
                err lineno
                  (Printf.sprintf "bad key_bits %S (want 1..%d)" n max_key_bits))
        | [ "epoch"; n ] -> (
            match (epoch, int_of_string_opt n) with
            | Some _, _ -> err lineno "duplicate epoch directive"
            | None, Some n when n >= 0 ->
                scan (lineno + 1) rest key_bits (Some n) shards extras ranges
            | None, _ -> err lineno (Printf.sprintf "bad epoch %S (want >= 0)" n))
        | "shard" :: i :: (_ :: _ as eps) -> (
            match int_of_string_opt i with
            | None -> err lineno (Printf.sprintf "bad shard id %S" i)
            | Some i -> (
                let rec parse_eps acc = function
                  | [] -> Ok (List.rev acc)
                  | ep :: rest -> (
                      match Net.Sockaddr.of_string ep with
                      | Error e -> Error e
                      | Ok ep -> parse_eps (ep :: acc) rest)
                in
                match parse_eps [] eps with
                | Error e -> err lineno e
                | Ok eps ->
                    scan (lineno + 1) rest key_bits epoch
                      ((lineno, i, eps) :: shards)
                      extras ranges))
        | [ "replica"; i; ep ] -> (
            match int_of_string_opt i with
            | None -> err lineno (Printf.sprintf "bad shard id %S" i)
            | Some i -> (
                match Net.Sockaddr.of_string ep with
                | Error e -> err lineno e
                | Ok ep ->
                    scan (lineno + 1) rest key_bits epoch shards
                      ((lineno, i, ep) :: extras)
                      ranges))
        | [ "range"; i; lo; hi ] -> (
            match (int_of_string_opt i, int_of_string_opt lo, int_of_string_opt hi) with
            | Some i, Some lo, Some hi ->
                scan (lineno + 1) rest key_bits epoch shards extras
                  ((lineno, i, lo, hi) :: ranges)
            | _ -> err lineno "bad range directive (want \"range I LO HI\")")
        | [ "shard"; _ ] -> err lineno "shard directive needs at least one endpoint"
        | w :: _ -> err lineno (Printf.sprintf "unknown directive %S" w))
  in
  scan 1 (String.split_on_char '\n' text) None None [] [] []

let of_file path =
  match
    let ic = open_in_bin path in
    let len = in_channel_length ic in
    let text = really_input_string ic len in
    close_in ic;
    text
  with
  | exception Sys_error e -> Error (Printf.sprintf "topology %s: %s" path e)
  | text -> (
      match of_string text with
      | Ok t -> Ok t
      | Error e -> Error (Printf.sprintf "%s: %s" path e))

let to_string t =
  let buf = Buffer.create 128 in
  Buffer.add_string buf (Printf.sprintf "key_bits %d\n" t.key_bits);
  Buffer.add_string buf (Printf.sprintf "epoch %d\n" t.epoch);
  Array.iteri
    (fun i set ->
      Buffer.add_string buf (Printf.sprintf "shard %d" i);
      Array.iter
        (fun ep -> Buffer.add_string buf (" " ^ Net.Sockaddr.to_string ep))
        set;
      Buffer.add_char buf '\n')
    t.sets;
  (* Range directives only when placement has diverged from the default
     equal split — pre-resharding topology files keep round-tripping
     byte-for-byte. *)
  if t.ranges <> default_ranges ~key_bits:t.key_bits (Array.length t.sets) then
    Array.iteri
      (fun i (lo, hi) ->
        Buffer.add_string buf (Printf.sprintf "range %d %d %d\n" i lo hi))
      t.ranges;
  Buffer.contents buf

(* Atomic *and durable* rewrite: write the temp file, fsync it, rename,
   then fsync the directory. A promotion or a migration cutover must
   never leave a torn topology for a concurrently-starting router — and
   a crash right after the rename must not roll the epoch back to a
   pre-cutover map (the rename itself is only durable once the
   directory entry is). *)
let save t path =
  match
    let tmp = path ^ ".tmp" in
    let fd = Unix.openfile tmp [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC; Unix.O_CLOEXEC ] 0o644 in
    (match
       let text = to_string t in
       let n = String.length text in
       let written = ref 0 in
       while !written < n do
         written := !written + Unix.write_substring fd text !written (n - !written)
       done;
       Unix.fsync fd
     with
    | () -> Unix.close fd
    | exception e ->
        (try Unix.close fd with _ -> ());
        raise e);
    Sys.rename tmp path;
    (* Directory fsync is advisory on filesystems that do not support
       it; failure to sync must not fail the save (the rename already
       happened). *)
    match Unix.openfile (Filename.dirname path) [ Unix.O_RDONLY ] 0 with
    | dir_fd ->
        (try Unix.fsync dir_fd with Unix.Unix_error _ -> ());
        (try Unix.close dir_fd with _ -> ())
    | exception Unix.Unix_error _ -> ()
  with
  | () -> Ok ()
  | exception Sys_error e -> Error (Printf.sprintf "topology %s: %s" path e)
  | exception Unix.Unix_error (e, fn, _) ->
      Error (Printf.sprintf "topology %s: %s: %s" path fn (Unix.error_message e))
