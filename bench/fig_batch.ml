(* fig_batch — end-to-end batch updates: single-traversal multi-key
   installs with a coalesced fence epilogue, locally and over the wire.

   Two sweeps over batch size B in {1, 8, 64, 512}:

   - local: a PSkipList absorbing N inserts as N/B [insert_batch]
     calls (B=1 is the plain single-key path). One gate pass, one
     version stamp, one finger-guided index walk and one flush/fence
     epilogue per batch replace B of each; the persistence work the
     coalescing saved is read back from the heap's own Pstats
     ([fences_saved]/[flushes_saved]), which is the evidence the
     epilogue really collapsed B fences into one.

   - net: the same store behind a lib/net server on a Unix-domain
     socket, one client shipping N inserts as N/B [Insert_batch]
     frames. On top of the local win, a batch frame pays one request
     round trip and one dispatch for B keys.

   Per batch size we report keys/s and record
   `batch.bench.{local,net}_ops_per_sec.b<B>` gauges so the numbers
   land in BENCH_batch.json next to the `mvdict.*.insert_batch.ns` and
   `net.insert_batch.ns` histograms. The smoke gate reads the shape off
   the returned record: locally a counted one — B >= 8 issues strictly
   fewer fences per key than B = 1, B >= 64 at most 0.1, and
   fences_saved is positive — and over loopback B >= 8 strictly above
   B = 1 in keys/s. *)

module Store = Mvdict.Pskiplist.Make (Mvdict.Codec.Int_key) (Mvdict.Codec.Int_value)

let batch_sizes = [ 1; 8; 64; 512 ]

type result = {
  local : (int * float) list;  (** (B, keys/s) on the in-process store *)
  fences_per_key : (int * float) list;
      (** (B, Pstats fences per key) on the in-process store *)
  net : (int * float) list;  (** (B, keys/s) through the loopback server *)
  fences_saved : int;  (** total fences coalesced away in the local sweep *)
  flushes_saved : int;  (** total flushed lines deduplicated in the local sweep *)
}

(* Fresh heap per batch size: every configuration installs the same N
   distinct keys into an empty index, so B is the only variable. *)
let local_one ~n ~batch =
  let heap = Pmem.Pheap.create_ram ~capacity:(max (1 lsl 26) (n * 200)) () in
  let store = Store.create heap in
  Gc.full_major ();
  let t0 = Unix.gettimeofday () in
  let i = ref 0 in
  while !i < n do
    let b = min batch (n - !i) in
    if b = 1 then Store.insert store !i (!i * 3)
    else
      Store.insert_batch store (List.init b (fun j -> (!i + j, (!i + j) * 3)));
    i := !i + b
  done;
  let wall = Unix.gettimeofday () -. t0 in
  let stats = Pmem.Pheap.stats heap in
  ( float_of_int n /. wall,
    float_of_int (Pmem.Pstats.fences stats) /. float_of_int n,
    Pmem.Pstats.fences_saved stats,
    Pmem.Pstats.flushes_saved stats )

(* The 1-core CI box is noisy (GC pauses, page-fault order effects), so
   each sweep interleaves its configurations and keeps the best of
   [rounds] — comparing bests compares the same steady state. *)
let best_of ~rounds one configs =
  let best = Hashtbl.create 8 in
  for _round = 1 to rounds do
    List.iter
      (fun cfg ->
        let ops = one cfg in
        let cur = try Hashtbl.find best cfg with Not_found -> 0. in
        if ops > cur then Hashtbl.replace best cfg ops)
      configs
  done;
  List.map (fun cfg -> (cfg, Hashtbl.find best cfg)) configs

let socket_path () = Printf.sprintf "fig_batch_%d.sock" (Unix.getpid ())

(* Disjoint key range per batch size (the server's store is shared
   across the sweep), so every run installs fresh keys. *)
let net_one ~n ~batch ~base client =
  let t0 = Unix.gettimeofday () in
  let i = ref 0 in
  while !i < n do
    let b = min batch (n - !i) in
    if b = 1 then Net.Client.insert client ~key:(base + !i) ~value:(!i * 3)
    else
      Net.Client.insert_batch client
        (List.init b (fun j -> (base + !i + j, (!i + j) * 3)));
    i := !i + b
  done;
  float_of_int n /. (Unix.gettimeofday () -. t0)

let gauge name batch v =
  Obs.Metric.set
    (Obs.Registry.gauge (Printf.sprintf "batch.bench.%s.b%d" name batch))
    (int_of_float v)

let print_table title results =
  Printf.printf "   %-18s %-8s %14s %10s\n" title "B" "keys/s" "speedup";
  let base = List.assoc 1 results in
  List.iter
    (fun (batch, ops) ->
      Printf.printf "   %-18s %-8d %14.0f %9.2fx\n" "" batch ops (ops /. base))
    results

let run ~n =
  Printf.printf
    "\n== fig batch: batched installs, local store and loopback server ==\n";
  Printf.printf "   %d keys per configuration, B in {1, 8, 64, 512}\n%!" n;
  let fences_saved = ref 0 and flushes_saved = ref 0 in
  (* counted, so every round records the same value *)
  let fences = Hashtbl.create 4 in
  let local =
    best_of ~rounds:3
      (fun batch ->
        let ops, per_key, saved, flushes = local_one ~n ~batch in
        Hashtbl.replace fences batch per_key;
        fences_saved := !fences_saved + saved;
        flushes_saved := !flushes_saved + flushes;
        ops)
      batch_sizes
  in
  List.iter (fun (batch, ops) -> gauge "local_ops_per_sec" batch ops) local;
  let fences_per_key = List.map (fun b -> (b, Hashtbl.find fences b)) batch_sizes in
  let heap = Pmem.Pheap.create_ram ~capacity:(max (1 lsl 26) (n * 1600)) () in
  let store = Store.create heap in
  let path = socket_path () in
  let server =
    Net.Server.start ~store ~workers:2 ~batch:256
      ~listen:(Net.Sockaddr.Unix_sock path) ()
  in
  let net =
    Fun.protect
      ~finally:(fun () -> Net.Server.stop server)
      (fun () ->
        (* fresh key range per run: the server's store is shared *)
        let slot = ref 0 in
        best_of ~rounds:2
          (fun batch ->
            let base = !slot * n in
            incr slot;
            let client = Net.Client.connect (Net.Sockaddr.Unix_sock path) in
            Net.Client.ping client;
            let ops = net_one ~n ~batch ~base client in
            Net.Client.close client;
            ops)
          batch_sizes)
  in
  List.iter (fun (batch, ops) -> gauge "net_ops_per_sec" batch ops) net;
  print_table "local store" local;
  print_table "loopback server" net;
  Printf.printf "   fences per key (local):%s\n"
    (String.concat ","
       (List.map (fun (b, f) -> Printf.sprintf " B=%d %.3f" b f) fences_per_key));
  Printf.printf "   pmem work coalesced away (local sweep): %d fences, %d lines\n"
    !fences_saved !flushes_saved;
  let wins better results =
    let base = List.assoc 1 results in
    List.for_all (fun (batch, v) -> batch < 8 || better v base) results
  in
  Printf.printf
    "   [shape] batched (B>=8) strictly below unbatched in fences/key: %s; \
     strictly above in keys/s over loopback: %s; fences_saved > 0: %s\n\
     %!"
    (if wins ( < ) fences_per_key then "yes" else "NO")
    (if wins ( > ) net then "yes" else "NO")
    (if !fences_saved > 0 then "yes" else "NO");
  {
    local;
    fences_per_key;
    net;
    fences_saved = !fences_saved;
    flushes_saved = !flushes_saved;
  }
