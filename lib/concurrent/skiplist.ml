(* A node is one heap block: its key, its value, then one next cell per
   level it drew (field [next + l] for level [l]), so a level hop loads
   one block, and a key costs 3 words plus one per level, 5 at the 2
   levels expected. The head is a block of the same shape with
   [max_level] cells; its key and value fields hold [Nil] and are never
   read. A cell is CASed in place (Atomic_field) and read with a plain
   load. *)
type ('k, 'v) node = Nil | Node of { key : 'k; value : 'v } [@@warning "-37"]

let next = 2

(* The library's only coercions. [make_node] builds every [Node], never
   the constructor, as a tag-0 block of [next + levels] fields whose
   first two are the fields [Node] reads: a [Node] and its block are one
   value seen two ways. *)

(* Sound: applied only to a [Node], a block of [next + levels] cells. *)
let cells : ('k, 'v) node -> ('k, 'v) node array = Obj.magic

(* Sound: applied only to a block [make_node] filled, which [Array.make]
   with an immediate made tag 0, never a float array. *)
let of_cells : ('k, 'v) node array -> ('k, 'v) node = Obj.magic

(* Sound: fields 0 and 1 of a node block are read back only as [Node]'s
   [key] and [value], at the types stored there. *)
let field : 'a -> ('k, 'v) node = Obj.magic

type ('k, 'v) t = {
  compare : 'k -> 'k -> int;
  head : ('k, 'v) node array;
  count : int Atomic.t;
  top : int Atomic.t;
  level_seed : int Atomic.t;
}

type 'v insert_outcome = Added of 'v | Found of 'v

let max_level = 24

let create ~compare () =
  {
    compare;
    head = Array.make (next + max_level) Nil;
    count = Atomic.make 0;
    top = Atomic.make 1;
    level_seed = Atomic.make 0x9e3779b9;
  }

(* Every field is stored before the level-0 CAS publishes the block. *)
let make_node key value succs levels =
  let block = Array.make (next + levels) Nil in
  block.(0) <- field key;
  block.(1) <- field value;
  Array.blit succs 0 block next levels;
  block

(* Deterministic per-insert level draw: hash a shared counter, count
   trailing ones (p = 1/2 per level). Cheaper and more reproducible than
   per-domain RNG state. *)
let random_level t =
  let z = Atomic.fetch_and_add t.level_seed 0x61c88647 in
  let z = (z lxor (z lsr 16)) * 0x45d9f3b land max_int in
  let z = (z lxor (z lsr 16)) * 0x45d9f3b land max_int in
  let z = z lxor (z lsr 16) in
  let rec count_ones bits level =
    if level >= max_level || bits land 1 = 0 then level
    else count_ones (bits lsr 1) (level + 1)
  in
  count_ones z 1

(* Algorithm 2, the one descent every search shares: from level
   [top - 1] down to level 0, advance along each level while the next
   key is below [key], and return the node the level-0 walk stops at
   (the first key >= [key], or Nil). Non-empty [preds]/[succs] also
   record, per level, the predecessor's block (the CAS target) and the
   successor; find and the iterators pass [[||]] and allocate nothing.

   Both the start at [top - 1] and the drawn-height blocks are safe: a
   walk reaches a node at [level] only through a link at [level], and a
   node is linked only at levels below its own height, so its cell
   [level] is always in bounds. A taller insert racing the read of
   [top] bumps [top] before it links its upper levels, so a read that
   misses them merely takes a lower road, and an insert whose upper
   levels were recorded from a stale start fails its CAS there and
   re-descends from the new [top]. *)
let rec descend t key preds succs level pred =
  match pred.(next + level) with
  | Node n as cur when t.compare n.key key < 0 -> descend t key preds succs level (cells cur)
  | cur ->
      if Array.length preds > 0 then begin
        preds.(level) <- pred;
        succs.(level) <- cur
      end;
      if level = 0 then cur else descend t key preds succs (level - 1) pred

let lower_bound t key = descend t key [||] [||] (Atomic.get t.top - 1) t.head

(* The level-0 match for [key], recording the blocks an insert needs. *)
let find_towers t key preds succs =
  match descend t key preds succs (Atomic.get t.top - 1) t.head with
  | Node n as cur when t.compare n.key key = 0 -> cur
  | Node _ | Nil -> Nil

let find t key =
  match lower_bound t key with
  | Node n when t.compare n.key key = 0 -> Some n.value
  | Node _ | Nil -> None

let rec bump_top t level =
  let current = Atomic.get t.top in
  if level > current && not (Atomic.compare_and_set t.top current level) then
    bump_top t level

(* Back off after a failed CAS. The schedule [b] is made on the first
   failure, so an insert that never retries allocates none. *)
let back_off b =
  let b = match b with Some b -> b | None -> Backoff.create () in
  Backoff.once b;
  Some b

let link_at pred level succ node =
  Atomic_field.compare_and_set_field pred (next + level) succ node

let find_or_insert t key ~make =
  let preds = Array.make max_level t.head in
  let succs = Array.make max_level Nil in
  (* [made] memoises the speculative value so [make] runs at most once
     even across CAS retries. *)
  let rec attempt made b =
    match find_towers t key preds succs with
    | Node existing_node -> Found existing_node.value
    | Nil ->
        let value = match made with Some v -> v | None -> make () in
        let level = random_level t in
        let block = make_node key value succs level in
        let node = of_cells block in
        if not (link_at preds.(0) 0 succs.(0) node) then attempt (Some value) (back_off b)
        else begin
          (* Linearized: the key is now reachable at level 0. Link the
             upper levels best-effort; competitors may force re-searches. *)
          ignore (Atomic.fetch_and_add t.count 1);
          bump_top t level;
          let rec link lvl b =
            if lvl >= level then ()
            else if link_at preds.(lvl) lvl succs.(lvl) node then link (lvl + 1) b
            else begin
              let b = back_off b in
              ignore (find_towers t key preds succs);
              (* Our node is not yet visible at [lvl], so the re-search
                 gives a fresh successor to adopt, and no reader loads
                 this cell before the CAS that links it. *)
              block.(next + lvl) <- succs.(lvl);
              link lvl b
            end
          in
          link 1 b;
          Added value
        end
  in
  attempt None None

(* Level-0 walks, top-level so that a traversal allocates no closure. *)
let rec walk f = function
  | Nil -> ()
  | Node n as cur ->
      f n.key n.value;
      walk f (cells cur).(next)

let rec walk_below t hi f = function
  | Node n as cur when t.compare n.key hi < 0 ->
      f n.key n.value;
      walk_below t hi f (cells cur).(next)
  | Node _ | Nil -> ()

let iter t f = walk f t.head.(next)
let iter_range t ~lo ~hi f = walk_below t hi f (lower_bound t lo)

(* Physically unlink every node matching [dead] at all levels, the
   vordered-kv scrub idiom: per level, walk the pred's next-cell and
   skip-link over dead nodes. A plain store is enough because the
   caller guarantees exclusive access (the store quiesces around GC) —
   this structure has no concurrent removal protocol. With a [range],
   one descent to [lo] records each level's predecessor (its key is
   below [lo], so it stays linked), and each level's walk starts there
   and stops at [hi]. *)
let scrub ?range t ~dead =
  let top = Atomic.get t.top in
  let preds = Array.make max_level t.head in
  let below_hi =
    match range with
    | None -> fun _ -> true
    | Some (lo, hi) ->
        ignore (descend t lo preds (Array.make max_level Nil) (top - 1) t.head);
        fun key -> t.compare key hi < 0
  in
  let removed = ref 0 in
  for level = top - 1 downto 0 do
    let rec sweep pred =
      match pred.(next + level) with
      | Node n as cur when below_hi n.key ->
          if dead n.key n.value then begin
            pred.(next + level) <- (cells cur).(next + level);
            if level = 0 then incr removed;
            sweep pred
          end
          else sweep (cells cur)
      | Node _ | Nil -> ()
    in
    sweep preds.(level)
  done;
  if !removed > 0 then ignore (Atomic.fetch_and_add t.count (- !removed));
  !removed

let cardinal t = Atomic.get t.count
let height t = Atomic.get t.top
