(* Per-op latency objectives ("find completes within 1ms"), parsed
   from the CLI spec `find=1ms,insert=5ms`. Attainment (the fraction of
   requests meeting the objective) is computed client-side from the
   per-op latency histograms via {!Snap.hist_le_fraction}, so
   `cluster client status` can hold any node to an objective the node
   never heard of, and the server keeps no second count of its
   latencies. *)

type objective = { op : string; threshold_ns : int }

(* Accepted duration suffixes, most specific first. *)
let units = [ ("ns", 1); ("us", 1_000); ("ms", 1_000_000); ("s", 1_000_000_000) ]

let parse_duration s =
  let s = String.trim s in
  let split =
    List.find_map
      (fun (suffix, scale) ->
        let ls = String.length s and lu = String.length suffix in
        if ls > lu && String.sub s (ls - lu) lu = suffix then
          Some (String.sub s 0 (ls - lu), scale)
        else None)
      units
  in
  match split with
  | None -> Error (Printf.sprintf "duration %S needs a ns/us/ms/s suffix" s)
  | Some (num, scale) -> (
      match float_of_string_opt (String.trim num) with
      | Some v when v > 0.0 -> Ok (int_of_float (v *. float_of_int scale))
      | _ -> Error (Printf.sprintf "bad duration %S" s))

let parse spec =
  let parts =
    List.filter (fun s -> String.trim s <> "") (String.split_on_char ',' spec)
  in
  if parts = [] then Error "empty SLO spec"
  else
    let rec go acc = function
      | [] -> Ok (List.rev acc)
      | part :: rest -> (
          match String.index_opt part '=' with
          | None -> Error (Printf.sprintf "SLO %S is not op=duration" part)
          | Some i -> (
              let op = String.trim (String.sub part 0 i) in
              let dur = String.sub part (i + 1) (String.length part - i - 1) in
              if op = "" then Error (Printf.sprintf "SLO %S names no op" part)
              else if List.exists (fun (o : objective) -> o.op = op) acc then
                Error (Printf.sprintf "duplicate SLO for op %S" op)
              else
                match parse_duration dur with
                | Ok threshold_ns -> go ({ op; threshold_ns } :: acc) rest
                | Error _ as e -> e))
    in
    go [] parts

(* Attainment of [objectives] against one node's snapshot, evaluated on
   the server-side per-op latency histograms (net.<op>.ns). Returns the
   worst (op, attainment) pair, or [None] when no objective op has
   recorded a sample yet. *)
let attainment (objectives : objective list) (snap : Snap.t) =
  List.filter_map
    (fun { op; threshold_ns } ->
      match Snap.find_hist snap (Printf.sprintf "net.%s.ns" op) with
      | None -> None
      | Some h ->
          Option.map (fun f -> (op, f)) (Snap.hist_le_fraction h ~le:threshold_ns))
    objectives
  |> function
  | [] -> None
  | per_op ->
      Some
        (List.fold_left
           (fun ((_, worst) as acc) ((_, f) as cand) ->
             if f < worst then cand else acc)
           (List.hd per_op) (List.tl per_op))
