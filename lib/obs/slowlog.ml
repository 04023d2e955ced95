(* Threshold-gated ring log of slow operations.

   Call [note] with every operation's measured latency; entries at or
   above the threshold land in an overwrite-oldest ring (same ticket
   discipline as {!Tracebuf}), everything faster costs one comparison.
   Each entry carries the op name, the key it touched (when the request
   names one), the latency, and a wall-clock timestamp — wall clock on
   purpose: slow-op logs get correlated with logs from other machines,
   which the monotonic span clock cannot do. *)

type entry = { op : string; key : int option; latency_ns : int; wall_ns : int }

type t = {
  threshold_ns : int Atomic.t;
  slots : entry option Atomic.t array;
  ticket : int Atomic.t;
}

let create ?(capacity = 128) ~threshold_ns () =
  if capacity < 1 then invalid_arg "Obs.Slowlog.create: capacity must be positive";
  {
    threshold_ns = Atomic.make threshold_ns;
    slots = Array.init capacity (fun _ -> Atomic.make None);
    ticket = Atomic.make 0;
  }

let set_threshold t ns = Atomic.set t.threshold_ns ns
let total t = Atomic.get t.ticket

let note t ~op ?key ~latency_ns () =
  let threshold = Atomic.get t.threshold_ns in
  if threshold > 0 && latency_ns >= threshold then begin
    let e =
      {
        op;
        key;
        latency_ns;
        wall_ns = int_of_float (Unix.gettimeofday () *. 1e9);
      }
    in
    let k = Atomic.fetch_and_add t.ticket 1 in
    Atomic.set t.slots.(k mod Array.length t.slots) (Some e)
  end

(* Up to [n] most recent entries, newest first. *)
let newest t ~n =
  let total = Atomic.get t.ticket in
  let cap = Array.length t.slots in
  let held = min total cap in
  let take = min (max n 0) held in
  List.filter_map
    (fun j -> Atomic.get t.slots.((total - 1 - j) mod cap))
    (List.init take (fun j -> j))

let entry_json e =
  Json.Obj
    [
      ("op", Json.String e.op);
      ("key", match e.key with Some k -> Json.Int k | None -> Json.Null);
      ("latency_ns", Json.Int e.latency_ns);
      ("wall_ts", Json.Float (float_of_int e.wall_ns /. 1e9));
    ]

let to_json entries = Json.List (List.map entry_json entries)
