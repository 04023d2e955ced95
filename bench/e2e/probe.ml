(* Per-layer probes of the traced run. Each one times a single layer on
   the workload's own data and input stream, in the benchmark process,
   for a fixed slice of wall time — so every workload reports every
   layer, including the ones its end-to-end path does not cross. *)

let slice_s = 0.2

(* Mean ns per call of [f] over [slice_s]. *)
let time_per f =
  let t0 = Util.now_ns () and n = ref 0 in
  while Util.secs_since t0 < slice_s do
    for _ = 1 to 64 do
      f ()
    done;
    n := !n + 64
  done;
  float_of_int (Util.now_ns () - t0) /. float_of_int !n

(* Minor words allocated per call of [f], over [calls] calls. *)
let minor_words_per ~calls f =
  let w0 = Gc.minor_words () in
  for _ = 1 to calls do
    f ()
  done;
  (Gc.minor_words () -. w0) /. float_of_int calls

(* [concurrent]: a standalone index over the same keys, probed with the
   workload's key stream. *)
let index_find_ns ~seed keys =
  let idx = Concurrent.Skiplist.create ~compare:Int.compare () in
  Array.iter (fun k -> ignore (Concurrent.Skiplist.find_or_insert idx k ~make:(fun () -> ()))) keys;
  let rng = Workload.Mt19937.create seed and n = Array.length keys in
  time_per (fun () -> ignore (Concurrent.Skiplist.find idx keys.(Workload.Mt19937.next_int rng n)))

(* [pmem]: random aligned word reads of the file-backed pool's used
   range. *)
let read_word_ns ~seed heap =
  let media = Pmem.Pheap.media heap in
  let words = max 1 ((Pmem.Alloc.used_bytes (Pmem.Pheap.allocator heap) / 8) - 1) in
  let rng = Workload.Mt19937.create seed and sink = ref 0 in
  let ns = time_per (fun () -> sink := !sink lxor Pmem.Media.get_i64 media (8 * Workload.Mt19937.next_int rng words)) in
  ignore (Sys.opaque_identity !sink);
  ns

(* [wire]: client-side request encoding, server-side response encoding
   and client-side response decoding of the workload's request/response
   mix ([mix] is a list of weighted pairs). *)
let wire ~mix =
  let reqs = List.concat_map (fun (w, req, _) -> List.init w (fun _ -> req)) mix |> Array.of_list in
  let resps = List.concat_map (fun (w, _, resp) -> List.init w (fun _ -> resp)) mix |> Array.of_list in
  let n = Array.length reqs in
  let buf = Buffer.create 65536 and i = ref 0 in
  let next () =
    let k = !i in
    i := (k + 1) mod n;
    k
  in
  let req_ns =
    time_per (fun () ->
        Buffer.clear buf;
        Net.Wire.add_request buf reqs.(next ()))
  in
  let resp_ns =
    time_per (fun () ->
        Buffer.clear buf;
        Net.Wire.add_response buf resps.(next ()))
  in
  let frames =
    Array.map
      (fun r ->
        Buffer.clear buf;
        Net.Wire.add_response buf r;
        Buffer.to_bytes buf)
      resps
  in
  let decode_ns =
    time_per (fun () ->
        let b = frames.(next ()) in
        match Net.Wire.decode_response b ~off:Net.Wire.header_bytes ~len:(Bytes.length b - Net.Wire.header_bytes) with
        | Ok _ -> ()
        | Error (_, msg) -> failwith ("wire probe: " ^ msg))
  in
  (req_ns, resp_ns, decode_ns)
