(* A tower ([next], [head]) is a plain array with one cell per level,
   CASed in place (Atomic_field) and read with plain loads: a node is
   its 4-word block plus a tower of 1 + levels words, 7 words at the 2
   levels expected. *)
type ('k, 'v) node =
  | Nil
  | Node of { key : 'k; value : 'v; next : ('k, 'v) node array }
      (* [next]: one cell per level the node drew *)

type ('k, 'v) t = {
  compare : 'k -> 'k -> int;
  head : ('k, 'v) node array;
  count : int Atomic.t;
  top : int Atomic.t;
  level_seed : int Atomic.t;
}

type 'v insert_outcome =
  | Added of 'v
  | Found of 'v
  | Raced of { made : 'v; existing : 'v }

let max_level = 24

let create ~compare () =
  {
    compare;
    head = Array.make max_level Nil;
    count = Atomic.make 0;
    top = Atomic.make 1;
    level_seed = Atomic.make 0x9e3779b9;
  }

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
   record, per level, the predecessor's next-array (the CAS target) and
   the successor; find and the iterators pass [[||]] and allocate
   nothing.

   Both the start at [top - 1] and the drawn-height towers are safe for
   the reason given on [seek] below: a walk reaches a node at [level] only
   through a link at [level], and a node is linked only at levels below
   its own height, so [n.next.(level)] is always in bounds. A taller
   insert racing the read of [top] bumps [top] before it links its upper
   levels, so a read that misses them merely takes a lower road, and an
   insert whose upper levels were recorded from a stale start fails its
   CAS there and re-descends from the new [top]. *)
let rec descend t key preds succs level pred_next =
  match pred_next.(level) with
  | Node n when t.compare n.key key < 0 -> descend t key preds succs level n.next
  | cur ->
      if Array.length preds > 0 then begin
        preds.(level) <- pred_next;
        succs.(level) <- cur
      end;
      if level = 0 then cur else descend t key preds succs (level - 1) pred_next

let lower_bound t key = descend t key [||] [||] (Atomic.get t.top - 1) t.head

(* The level-0 match for [key], recording the towers an insert needs. *)
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

(* Shared insertion body: [search] populates [preds]/[succs] for the key
   (from the head, or from a finger cursor) and returns the level-0
   match. Re-run on every CAS retry. *)
let insert_with t ~search key ~make preds succs =
  (* [made] memoises the speculative value so [make] runs at most once
     even across CAS retries. *)
  let rec attempt made b =
    match search () with
    | Node existing_node -> begin
        match made with
        | None -> Found existing_node.value
        | Some made -> Raced { made; existing = existing_node.value }
      end
    | Nil ->
        let value = match made with Some v -> v | None -> make () in
        let level = random_level t in
        let next = Array.sub succs 0 level in
        let node = Node { key; value; next } in
        if not (Atomic_field.compare_and_set preds.(0) 0 succs.(0) node) then
          attempt (Some value) (back_off b)
        else begin
          (* Linearized: the key is now reachable at level 0. Link the
             upper levels best-effort; competitors may force re-searches. *)
          ignore (Atomic.fetch_and_add t.count 1);
          bump_top t level;
          let rec link lvl b =
            if lvl >= level then ()
            else if Atomic_field.compare_and_set preds.(lvl) lvl succs.(lvl) node then
              link (lvl + 1) b
            else begin
              let b = back_off b in
              ignore (search ());
              (* Our node is not yet visible at [lvl], so the re-search
                 gives a fresh successor to adopt, and no reader loads
                 this cell before the CAS that links it. *)
              next.(lvl) <- succs.(lvl);
              link lvl b
            end
          in
          link 1 b;
          Added value
        end
  in
  attempt None None

let find_or_insert t key ~make =
  let preds = Array.make max_level t.head in
  let succs = Array.make max_level Nil in
  insert_with t ~search:(fun () -> find_towers t key preds succs) key ~make
    preds succs

(* Finger cursors (Jiffy-style batch installs): the recorded predecessor
   next-arrays of one search are valid starting points for the next
   search as long as keys are sought in ascending order — a stored
   pred's key stays strictly below every later target, and the
   structure is insert-only so the arrays remain reachable. Each level
   resumes from where the previous search left it OR from the
   predecessor the level above just found, whichever is further along
   (threading the descent down as an ordinary search would — a node
   reached via level-l links is linked at every lower level too). The
   finger alone would leave level 0 walking from wherever the batch
   started; the threaded descent keeps each seek logarithmic, and the
   fingers make a sorted batch's seeks one amortized walk over its
   span. *)
type ('k, 'v) cursor = {
  list : ('k, 'v) t;
  c_preds : ('k, 'v) node array array;
  c_pred_nodes : ('k, 'v) node array;
      (* the node whose next-array c_preds.(l) is; Nil = head *)
  c_succs : ('k, 'v) node array;
  mutable c_last : 'k option;
      (* last sought key: a same-key seek is a CAS-retry re-search and
         must re-walk every level *)
}

let cursor t =
  {
    list = t;
    c_preds = Array.make max_level t.head;
    c_pred_nodes = Array.make max_level Nil;
    c_succs = Array.make max_level Nil;
    c_last = None;
  }

(* One level of a seek: walk right from [pred] (Nil = head, whose
   next-array is [t.head]) while the next key is below [key], and record
   the straddle in the cursor — a top-level recursion, so it allocates
   nothing. *)
let rec advance_at c key level pred pred_next =
  match pred_next.(level) with
  | Node n as cur when c.list.compare n.key key < 0 ->
      advance_at c key level cur n.next
  | cur ->
      c.c_preds.(level) <- pred_next;
      c.c_pred_nodes.(level) <- pred;
      c.c_succs.(level) <- cur

(* The fast path that makes the fingers pay: a level whose recorded
   predecessor still points at its recorded successor (one load)
   with that successor >= [key] is untouched — adopt it without
   walking. Ascending seeks skip almost every level this way and only
   walk the few whose window actually moved. The skip is safe exactly
   because it is validated against the live cell: the pair it keeps is
   a true (pred, succ) straddle of [key] at that instant, and any
   staleness that develops afterwards is caught by the insert CAS,
   whose retry re-seeks the same key and therefore walks every level
   ([c_last] disables skipping on retries — also on a fresh cursor,
   whose unprimed fingers would otherwise all claim head-to-Nil). *)
let seek c key =
  let t = c.list in
  let retry =
    match c.c_last with Some k -> t.compare k key = 0 | None -> true
  in
  c.c_last <- Some key;
  (* Levels at and above [top] hold no nodes, so the cursor's init
     state (head pred, Nil succ) stays a valid straddle there; starting
     the loop at [top] skips them wholesale. A racing taller insert is
     caught by the CAS, and its bump of [top] happens before its upper
     links, so the retry's re-seek covers the new levels. *)
  let top = Atomic.get t.top in
  (* predecessor node found one level up; Nil = still at the head *)
  let carry = ref Nil in
  for level = top - 1 downto 0 do
    let finger = c.c_pred_nodes.(level) in
    let start =
      match (!carry, finger) with
      | (Node _ as carried), Nil -> carried
      | (Node cn as carried), Node fn when t.compare cn.key fn.key > 0 -> carried
      | _, finger -> finger
    in
    let skip =
      (not retry)
      && start == finger
      && c.c_preds.(level).(level) == c.c_succs.(level)
      && match c.c_succs.(level) with
         | Nil -> true
         | Node s -> t.compare s.key key >= 0
    in
    if not skip then
      advance_at c key level start
        (match start with Nil -> t.head | Node n -> n.next);
    match c.c_pred_nodes.(level) with Node _ as p -> carry := p | Nil -> ()
  done;
  match c.c_succs.(0) with
  | Node s as cur when t.compare s.key key = 0 -> cur
  | Node _ | Nil -> Nil

let find_at c key = match seek c key with Node n -> Some n.value | Nil -> None

let find_or_insert_at c key ~make =
  insert_with c.list ~search:(fun () -> seek c key) key ~make c.c_preds
    c.c_succs

(* Level-0 walks, top-level so that a traversal allocates no closure. *)
let rec walk f = function
  | Nil -> ()
  | Node n ->
      f n.key n.value;
      walk f n.next.(0)

let rec walk_below t hi f = function
  | Node n when t.compare n.key hi < 0 ->
      f n.key n.value;
      walk_below t hi f n.next.(0)
  | Node _ | Nil -> ()

let iter t f = walk f t.head.(0)
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
    let rec sweep pred_next =
      match pred_next.(level) with
      | Node n when below_hi n.key ->
          if dead n.key n.value then begin
            pred_next.(level) <- n.next.(level);
            if level = 0 then incr removed;
            sweep pred_next
          end
          else sweep n.next
      | Node _ | Nil -> ()
    in
    sweep preds.(level)
  done;
  if !removed > 0 then ignore (Atomic.fetch_and_add t.count (- !removed));
  !removed

let cardinal t = Atomic.get t.count
let height t = Atomic.get t.top
