(* Clock, statistics, key generation and small file-system helpers shared
   by every workload. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())
let secs_since t0 = float_of_int (now_ns () - t0) /. 1e9

(* Latency samples in ns, one recorder per load domain so recording needs
   no synchronisation. Samples live outside the OCaml heap in fixed
   chunks: millions of them neither grow the heap the embedded store
   shares nor cost the collector a scan. *)
module Lat = struct
  open Bigarray

  type chunk = (int32, int32_elt, c_layout) Array1.t
  type t = { mutable full : chunk list; mutable cur : chunk; mutable fill : int }

  let chunk_len = 65536
  let fresh () : chunk = Array1.create int32 c_layout chunk_len
  let create () = { full = []; cur = fresh (); fill = 0 }

  let add t ns =
    if t.fill = chunk_len then begin
      t.full <- t.cur :: t.full;
      t.cur <- fresh ();
      t.fill <- 0
    end;
    Array1.unsafe_set t.cur t.fill (Int32.of_int (min ns (Int32.to_int Int32.max_int)));
    t.fill <- t.fill + 1

  let count t = (List.length t.full * chunk_len) + t.fill

  (* All samples of several recorders, sorted ascending. *)
  let sorted ts =
    let all = Array.make (List.fold_left (fun a t -> a + count t) 0 ts) 0 and pos = ref 0 in
    let copy (c : chunk) len =
      for i = 0 to len - 1 do
        all.(!pos) <- Int32.to_int (Array1.unsafe_get c i);
        incr pos
      done
    in
    List.iter
      (fun t ->
        List.iter (fun c -> copy c chunk_len) t.full;
        copy t.cur t.fill)
      ts;
    Array.sort compare all;
    all

  (* Exact nearest-rank percentile over every sample. *)
  let percentile sorted p =
    let n = Array.length sorted in
    if n = 0 then nan
    else float_of_int sorted.(max 0 (min (n - 1) (int_of_float (ceil (p *. float_of_int n)) - 1)))
end

(* A fixed task that runs no mvkv code: fill 2^18 ints from an LCG and
   sort them. Timed beside each set-up, it tells how fast the host ran
   at that moment (see "Noise" in README.md). *)
let reference_task_s () =
  let t0 = now_ns () in
  let a = Array.make (1 lsl 18) 0 and x = ref 0x2545F491 in
  for i = 0 to Array.length a - 1 do
    x := ((!x * 0x5851F42D4C957F2D) + 0x14057B7EF767814F) land max_int;
    a.(i) <- !x
  done;
  Array.sort Int.compare a;
  secs_since t0

let median xs =
  match List.sort compare xs with
  | [] -> nan
  | l ->
      let a = Array.of_list l in
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* [n] distinct keys below [2^bits], drawn through Workload.Keygen and
   deterministic in [seed]. PSkipList stores keys below 2^61 inline, so
   every workload stays in that range. *)
let distinct_keys ~seed ~bits n =
  let mask = (1 lsl bits) - 1 in
  let seen = Hashtbl.create (2 * n) in
  let out = Array.make n 0 in
  let filled = ref 0 and round = ref 0 in
  while !filled < n do
    let draw = Workload.Keygen.unique_keys ~seed:(seed + (7919 * !round)) (n + 64) in
    Array.iter
      (fun k ->
        let k = k land mask in
        if !filled < n && not (Hashtbl.mem seen k) then begin
          Hashtbl.add seen k ();
          out.(!filled) <- k;
          incr filled
        end)
      draw;
    incr round
  done;
  out

(* Preloaded value of key index [i] at version [v]: a per-seed base
   value from Workload.Keygen, perturbed per version, kept inline. *)
let model_value base i v = (base.(i) lxor (v * 0x9e3779b97f4a7)) land Mvdict.Codec.max_inline

(* Values written during a run: unique per (writer, sequence number), so
   a stale read can never pass for the acknowledged one. *)
let fresh_value ~writer seq = (writer lsl 48) lor (seq land 0xffff_ffff_ffff) lor (1 lsl 56)

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Sys.mkdir dir 0o755 with Sys_error _ when Sys.file_exists dir -> ()
  end

let rec rm_rf path =
  match (Unix.lstat path).Unix.st_kind with
  | Unix.S_DIR ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Unix.unlink path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

(* Peak resident set (VmHWM) of a process, in MB. *)
let vm_hwm_mb pid =
  let path = Printf.sprintf "/proc/%s/status" pid in
  In_channel.with_open_text path In_channel.input_all
  |> String.split_on_char '\n'
  |> List.find_map (fun line ->
         match String.split_on_char ':' line with
         | [ "VmHWM"; rest ] ->
             Scanf.sscanf (String.trim rest) "%d kB" (fun kb ->
                 Some (float_of_int kb *. 1024. /. 1e6))
         | _ -> None)
  |> Option.value ~default:nan

let mb bytes = float_of_int bytes /. 1e6
