(* Bounded overwrite-oldest ring buffer of span events, installable as
   the {!Span} sink — "flight recorder" tracing: always on, fixed
   memory, the last [capacity] spans are available for dumping at any
   moment.

   Writers claim a ticket with one fetch-and-add and store the
   (immutable) event, tagged with its ticket, into slot ticket mod
   capacity, so the oldest event is overwritten once the ring is full.
   Readers report tickets [max(drained, ticket - capacity), ticket).
   The slot's tag tells them what it holds: an older ticket means the
   writer has claimed but not yet stored, so the read stops there and
   the next drain starts at that ticket; a newer one means the event
   was overwritten and is gone. A drain advances [drained] by one CAS
   and reads again if another drain moved it first, so every event is
   reported by exactly one drain unless the ring overwrites it first.

   The slots are one plain array, CASed in place and read with plain
   loads, and [ticket] and [drained] plain int fields changed only by
   fetch-and-add and CAS on their positions ([Atomic_field]): keep
   [ticket_field] and [drained_field] equal to their declaration order.
   A stale load of a slot is safe: if it still shows an older ticket,
   the read stops there and the next drain resumes at that ticket; if
   it shows a newer one, that event was overwritten; if it shows the
   ticket sought, the event was stored. A stale [ticket] only ends the
   read early (a read never returns a next ticket below the one it
   started at, so [drained] never moves back), and a stale [drained]
   fails the CAS. *)

type t = {
  slots : (int * Span.event) option array;  (** (ticket, event) *)
  mutable ticket : int;
  mutable drained : int;
}

let ticket_field = 1
let drained_field = 2

let create ~capacity =
  if capacity < 1 then invalid_arg "Obs.Tracebuf.create: capacity must be positive";
  { slots = Array.make capacity None; ticket = 0; drained = 0 }

(* Events ever recorded (not clamped to capacity). *)
let total t = t.ticket

(* A writer that stalled for a whole lap of the ring stores nothing:
   its slot already holds a newer event. *)
let record t (event : Span.event) =
  let k = Concurrent.Atomic_field.fetch_and_add_field t ticket_field 1 in
  let i = k mod Array.length t.slots in
  let entry = Some (k, event) in
  let rec store () =
    let cur = t.slots.(i) in
    let newer = match cur with Some (j, _) -> j > k | None -> false in
    if (not newer) && not (Concurrent.Atomic_field.compare_and_set t.slots i cur entry)
    then store ()
  in
  store ()

let install t = Span.set_sink (Some (record t))

(* The undrained events still held, oldest-first, and the ticket the
   next drain starts at. *)
let read t drained =
  let n = t.ticket in
  let cap = Array.length t.slots in
  let rec go k acc =
    if k >= n then (List.rev acc, k)
    else
      match t.slots.(k mod cap) with
      | Some (j, e) when j = k -> go (k + 1) (e :: acc)
      | Some (j, _) when j > k -> go (k + 1) acc
      | _ -> (List.rev acc, k)
  in
  go (max drained (n - cap)) []

let dump t = fst (read t t.drained)
let length t = List.length (dump t)

let rec drain t =
  let d = t.drained in
  let events, next = read t d in
  if Concurrent.Atomic_field.compare_and_set_field t drained_field d next then events
  else drain t

(* Chrome trace_event JSON (the "X" complete-event form), loadable
   directly by chrome://tracing and Perfetto. Timestamps are in
   microseconds per the format; we keep sub-microsecond precision by
   emitting fractional ts/dur. Events recorded under a remote context
   carry the trace id (hex), their span id and parent in [args], which
   is what lets a cluster-merged document stay one causal tree.
   [clock_ns] stamps the emitting node's monotonic clock at dump time
   into the document ("clockNs"), the anchor {!merge_chrome} uses to
   rebase every node's ring onto one common epoch. *)
let chrome_json ?clock_ns (events : Span.event list) =
  let event_json (e : Span.event) =
    let base_args = [ ("depth", Json.Int e.Span.depth) ] in
    let args =
      if Traceid.is_null e.Span.trace then base_args
      else
        base_args
        @ [
            ("trace", Json.String (Traceid.to_hex e.Span.trace));
            ("span", Json.Int e.Span.span_id);
            ("parent", Json.Int e.Span.parent);
          ]
    in
    Json.Obj
      [
        ("ph", Json.String "X");
        ("name", Json.String e.Span.name);
        ("cat", Json.String "span");
        ("ts", Json.Float (float_of_int e.Span.start_ns /. 1e3));
        ("dur", Json.Float (float_of_int (e.Span.stop_ns - e.Span.start_ns) /. 1e3));
        ("pid", Json.Int 1);
        ("tid", Json.Int e.Span.dom);
        ("args", Json.Obj args);
      ]
  in
  Json.Obj
    ([ ("traceEvents", Json.List (List.map event_json events)) ]
    @ (match clock_ns with
      | Some ns -> [ ("clockNs", Json.Int ns) ]
      | None -> [])
    @ [ ("displayTimeUnit", Json.String "ns") ])

let to_chrome_json t = chrome_json (dump t)

(* ---- merging per-node rings into one cluster trace ---- *)

let float_member name obj =
  match Json.member name obj with
  | Some (Json.Float f) -> Some f
  | Some (Json.Int i) -> Some (float_of_int i)
  | _ -> None

let int_member name obj =
  match Json.member name obj with Some (Json.Int i) -> Some i | _ -> None

(* One lane (Chrome "process") per node: pid is the part's index and a
   "process_name" metadata event carries the node label. Each part's
   timestamps are shifted by its clock delta (router receive time minus
   the part's "clockNs"), rebasing every monotonic ring onto the
   caller's clock — the common epoch. Events are deduplicated by span
   id so rings that happen to share storage (in-process test clusters)
   or double-drained rings (two collectors with [clear=false]) do not
   produce duplicate spans. *)
let merge_chrome parts =
  let seen = Hashtbl.create 256 in
  let lanes =
    List.mapi
      (fun i (label, doc, delta_ns) ->
        let pid = i + 1 in
        let meta =
          Json.Obj
            [
              ("ph", Json.String "M");
              ("name", Json.String "process_name");
              ("pid", Json.Int pid);
              ("args", Json.Obj [ ("name", Json.String label) ]);
            ]
        in
        let events =
          match Json.member "traceEvents" doc with
          | Some (Json.List evs) -> evs
          | _ -> []
        in
        let shifted =
          List.filter_map
            (fun ev ->
              let span =
                match Json.member "args" ev with
                | Some args -> int_member "span" args
                | None -> None
              in
              let duplicate =
                match span with
                | Some s when s <> 0 ->
                    if Hashtbl.mem seen s then true
                    else begin
                      Hashtbl.add seen s ();
                      false
                    end
                | _ -> false
              in
              if duplicate then None
              else
                match ev with
                | Json.Obj fields ->
                    let fields =
                      List.map
                        (fun (k, v) ->
                          match (k, v) with
                          | "ts", _ -> (
                              match float_member "ts" ev with
                              | Some ts ->
                                  ( "ts",
                                    Json.Float (ts +. (float_of_int delta_ns /. 1e3))
                                  )
                              | None -> (k, v))
                          | "pid", _ -> ("pid", Json.Int pid)
                          | _ -> (k, v))
                        fields
                    in
                    Some (Json.Obj fields)
                | _ -> None)
            events
        in
        meta :: shifted)
      parts
  in
  Json.Obj
    [
      ("traceEvents", Json.List (List.concat lanes));
      ("displayTimeUnit", Json.String "ns");
    ]
