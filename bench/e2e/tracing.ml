(* The traced run: spans around every call the benchmark makes into a
   layer, a sampled trace context per request so Net.Client stamps its
   frames and the servers record [srv.<op>] children, and a self-time
   table per layer (a span's duration minus the time its children
   cover).

   Local spans reach this module's sink as they close; their self time
   is computed online from the per-domain nesting depth. Server spans
   arrive in batches when the server rings are drained and are matched
   to their local parent by span id: their time moves from the parent's
   layer to the server layer. *)

type layer = Client | Cluster | Server | Store

let layers = [ Client; Cluster; Server; Store ]
let layer_index = function Client -> 0 | Cluster -> 1 | Server -> 2 | Store -> 3
let layer_name = function Client -> "client" | Cluster -> "cluster" | Server -> "server" | Store -> "store"

let layer_of name =
  let has p = String.length name >= String.length p && String.sub name 0 (String.length p) = p in
  if has "cluster." then Cluster
  else if has "srv." then Server
  else if has "mvdict." then Store
  else Client

(* Default span-ring capacity of `mvkv serve` (its --trace-cap). A dump
   holding this many events may have overwritten older ones. *)
let server_ring = 4096

(* Local events kept for the Chrome trace: the first drain window. *)
let window_cap = 20_000

let enabled = ref false

type dom = {
  acc : int array;  (** time covered by closed children, per depth *)
  self : int array;  (** self ns per layer *)
  by_name : (string, int ref) Hashtbl.t;  (** self ns per span name *)
  ids : (int, int * string) Hashtbl.t;  (** local span id -> layer index, name *)
  mutable active : bool;
  mutable roots : int;
  mutable root_ns : int;
  mutable local_spans : int;
}

let lock = Mutex.create ()
let doms : dom list ref = ref []
let window : Obs.Span.event list ref = ref []
let window_n = Atomic.make 0
let window_open = ref false
(* Server spans drained so far: name, duration in ns, span id, parent id. *)
let remote : (string * int * int * int) list ref = ref []
let remote_docs : (string * Obs.Json.t) list ref = ref []
let dropped = ref 0
let remote_spans = ref 0

let dom_key =
  Domain.DLS.new_key (fun () ->
      let d =
        {
          acc = Array.make 64 0;
          self = Array.make 4 0;
          by_name = Hashtbl.create 16;
          ids = Hashtbl.create 4096;
          active = false;
          roots = 0;
          root_ns = 0;
          local_spans = 0;
        }
      in
      Mutex.protect lock (fun () -> doms := d :: !doms);
      d)

let sink (e : Obs.Span.event) =
  let d = Domain.DLS.get dom_key in
  if d.active && e.depth >= 1 && e.depth < 63 then begin
    let dur = e.stop_ns - e.start_ns in
    let covered = d.acc.(e.depth + 1) in
    d.acc.(e.depth + 1) <- 0;
    d.acc.(e.depth) <- d.acc.(e.depth) + dur;
    let l = layer_index (layer_of e.name) in
    let self = dur - covered in
    d.self.(l) <- d.self.(l) + self;
    (match Hashtbl.find_opt d.by_name e.name with
    | Some r -> r := !r + self
    | None -> Hashtbl.add d.by_name e.name (ref self));
    if e.span_id <> 0 then Hashtbl.replace d.ids e.span_id (l, e.name);
    d.local_spans <- d.local_spans + 1;
    if e.depth = 1 then begin
      d.acc.(1) <- 0;
      d.roots <- d.roots + 1;
      d.root_ns <- d.root_ns + dur
    end;
    if !window_open && Atomic.fetch_and_add window_n 1 < window_cap then
      Mutex.protect lock (fun () -> window := e :: !window)
  end

let enable () =
  enabled := true;
  Obs.Control.enable ();
  Obs.Span.set_sink (Some sink)

(* One client request: a root span under a fresh sampled context. *)
let op name f =
  if not !enabled then f ()
  else begin
    let d = Domain.DLS.get dom_key in
    d.active <- true;
    let ctx = { Obs.Span.trace = Obs.Traceid.generate (); parent = 0; sampled = true } in
    Fun.protect
      ~finally:(fun () -> d.active <- false)
      (fun () -> Obs.Span.with_context (Some ctx) (fun () -> Obs.Span.with_ name f))
  end

(* A call into a layer of the benchmark's own process (the store, on
   the embedded workload). *)
let layer name f = if !enabled then Obs.Span.with_ name f else f ()

let start_timed () =
  Mutex.protect lock (fun () ->
      remote := [];
      remote_docs := [];
      dropped := 0;
      remote_spans := 0;
      window := []);
  Atomic.set window_n 0;
  window_open := true;
  List.iter
    (fun d ->
      Array.fill d.self 0 4 0;
      Hashtbl.reset d.by_name;
      Hashtbl.reset d.ids;
      d.roots <- 0;
      d.root_ns <- 0;
      d.local_spans <- 0)
    !doms

let int_field name obj = match Obs.Json.member name obj with Some (Obs.Json.Int i) -> Some i | _ -> None

let float_field name obj =
  match Obs.Json.member name obj with
  | Some (Obs.Json.Float f) -> Some f
  | Some (Obs.Json.Int i) -> Some (float_of_int i)
  | _ -> None

let events_of doc = match Obs.Json.member "traceEvents" doc with Some (Obs.Json.List l) -> l | _ -> []

(* A fleet merge holds one pid per ring; split it back into one
   document per ring so each keeps its own lane in the Chrome trace. *)
let split_by_pid ~label doc =
  let groups = Hashtbl.create 4 and names = Hashtbl.create 4 in
  List.iter
    (fun ev ->
      let pid = Option.value (int_field "pid" ev) ~default:0 in
      match (Obs.Json.member "ph" ev, Obs.Json.member "args" ev) with
      | Some (Obs.Json.String "M"), Some args -> (
          match Obs.Json.member "name" args with
          | Some (Obs.Json.String n) -> Hashtbl.replace names pid n
          | _ -> ())
      | _ -> Hashtbl.replace groups pid (ev :: Option.value (Hashtbl.find_opt groups pid) ~default:[]))
    (events_of doc);
  Hashtbl.fold
    (fun pid evs acc ->
      let name = Option.value (Hashtbl.find_opt names pid) ~default:label in
      (pid, (name, Obs.Json.Obj [ ("traceEvents", Obs.Json.List (List.rev evs)) ])) :: acc)
    groups []
  |> List.sort compare |> List.map snd

(* Take one drained Chrome document (a single ring, or a fleet merge
   with one pid per ring). The first one after [start_timed] is kept
   for the Chrome trace. A ring that comes back full may have
   overwritten spans: it counts as dropped. *)
let ingest ~label doc =
  let parts = split_by_pid ~label doc in
  let spans =
    List.concat_map
      (fun (_, part) ->
        List.filter_map
          (fun ev ->
            match (Obs.Json.member "ph" ev, Obs.Json.member "name" ev, Obs.Json.member "args" ev) with
            | Some (Obs.Json.String "X"), Some (Obs.Json.String name), Some args ->
                let dur = int_of_float (1e3 *. Option.value (float_field "dur" ev) ~default:0.) in
                let field f = Option.value (int_field f args) ~default:0 in
                Some (name, dur, field "span", field "parent")
            | _ -> None)
          (events_of part))
      parts
  in
  let full = List.length (List.filter (fun (_, part) -> List.length (events_of part) >= server_ring) parts) in
  Mutex.protect lock (fun () ->
      remote := List.rev_append spans !remote;
      remote_spans := !remote_spans + List.length spans;
      dropped := !dropped + full;
      if !remote_docs = [] then begin
        remote_docs := parts;
        window_open := false
      end)

type summary = {
  ops : int;
  total_ns : int;
  self_ns : int array;  (** per layer *)
  names : (string * int) list;  (** self ns per span name, descending *)
  local : int;
  remote_n : int;
  unmatched : int;
  dropped_n : int;
}

(* Fold the remote spans into the local table. [store_ns] is the
   server-side apply time (registry histograms) inside the [srv.*]
   spans, moved from the server layer to the store layer. *)
let summarise ~store_ns =
  let self = Array.make 4 0 and names = Hashtbl.create 16 in
  let ops = ref 0 and total = ref 0 and local = ref 0 in
  List.iter
    (fun d ->
      Array.iteri (fun i v -> self.(i) <- self.(i) + v) d.self;
      Hashtbl.iter
        (fun n r -> Hashtbl.replace names n (!r + Option.value (Hashtbl.find_opt names n) ~default:0))
        d.by_name;
      ops := !ops + d.roots;
      total := !total + d.root_ns;
      local := !local + d.local_spans)
    !doms;
  let find_local id = List.find_map (fun d -> Hashtbl.find_opt d.ids id) !doms in
  let remote_ids = Hashtbl.create 1024 in
  List.iter (fun (_, _, span, _) -> Hashtbl.replace remote_ids span ()) !remote;
  let unmatched = ref 0 in
  let add name ns = Hashtbl.replace names name (ns + Option.value (Hashtbl.find_opt names name) ~default:0) in
  List.iter
    (fun (name, dur, _, parent) ->
      match find_local parent with
      | Some (l, pname) ->
          self.(l) <- self.(l) - dur;
          self.(layer_index Server) <- self.(layer_index Server) + dur;
          add pname (-dur);
          add name dur
      | None -> if not (Hashtbl.mem remote_ids parent) then incr unmatched)
    !remote;
  let server = layer_index Server and store = layer_index Store in
  let moved = min store_ns self.(server) in
  self.(server) <- self.(server) - moved;
  self.(store) <- self.(store) + moved;
  {
    ops = !ops;
    total_ns = !total;
    self_ns = self;
    names = List.sort (fun (_, a) (_, b) -> compare b a) (Hashtbl.fold (fun n v l -> (n, v) :: l) names []);
    local = !local;
    remote_n = !remote_spans;
    unmatched = !unmatched;
    dropped_n = !dropped;
  }

let per_op_us s ns = if s.ops = 0 then 0. else float_of_int ns /. float_of_int s.ops /. 1e3
let share_pct s l = if s.total_ns = 0 then 0. else 100. *. float_of_int s.self_ns.(layer_index l) /. float_of_int s.total_ns

let self_table ~workload s =
  let b = Buffer.create 1024 in
  Printf.bprintf b "# %s: self time per layer (span minus the time its children cover)\n" workload;
  Printf.bprintf b "# ops %d, local spans %d, server spans %d, unmatched %d, dropped %d\n" s.ops s.local s.remote_n
    s.unmatched s.dropped_n;
  Printf.bprintf b "%-28s %12s %12s %8s\n" "layer" "total_ms" "per_op_us" "share_%";
  List.iter
    (fun l ->
      let ns = s.self_ns.(layer_index l) in
      Printf.bprintf b "%-28s %12.3f %12.3f %8.2f\n" (layer_name l) (float_of_int ns /. 1e6) (per_op_us s ns)
        (share_pct s l))
    layers;
  Printf.bprintf b "%-28s %12.3f %12.3f %8.2f\n" "total" (float_of_int s.total_ns /. 1e6) (per_op_us s s.total_ns) 100.;
  Printf.bprintf b "\n%-28s %12s %12s\n" "span (self; srv.* include store)" "total_ms" "per_op_us";
  List.iter
    (fun (n, ns) -> Printf.bprintf b "%-28s %12.3f %12.3f\n" n (float_of_int ns /. 1e6) (per_op_us s ns))
    s.names;
  Buffer.contents b

(* Chrome trace of the first drain window: the benchmark's spans plus
   the server spans drained with them. Every process reads the same
   monotonic clock, so no rebasing is needed. *)
let chrome () =
  let local = Obs.Tracebuf.chrome_json (List.rev !window) in
  Obs.Tracebuf.merge_chrome (("e2e (load process)", local, 0) :: List.map (fun (l, d) -> (l, d, 0)) !remote_docs)

let write ~dir ~stem ~workload s =
  Util.mkdir_p dir;
  let path ext = Filename.concat dir (stem ^ ext) in
  Out_channel.with_open_text (path ".chrome.json") (fun oc -> output_string oc (Obs.Json.to_string (chrome ())));
  Out_channel.with_open_text (path ".selftime.txt") (fun oc -> output_string oc (self_table ~workload s));
  (path ".chrome.json", path ".selftime.txt")
