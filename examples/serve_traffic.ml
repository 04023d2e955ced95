(* Serving the store over a socket: an in-process tour of lib/net.

   One PSkipList-backed server on a Unix-domain socket, two client
   domains hammering it with batch frames, then a point-in-time
   read of an old snapshot over the wire — the serving-layer version of
   the quickstart. Run with:

     dune exec examples/serve_traffic.exe *)

module Store = Mvdict.Pskiplist.Make (Mvdict.Codec.Int_key) (Mvdict.Codec.Int_value)

let () =
  let heap = Pmem.Pheap.create_ram ~capacity:(1 lsl 24) () in
  let store = Store.create heap in
  let sock = Printf.sprintf "serve_traffic_%d.sock" (Unix.getpid ()) in
  let server =
    Net.Server.start ~store ~workers:2 ~listen:(Net.Sockaddr.Unix_sock sock) ()
  in
  Format.printf "serving on %a@." Net.Sockaddr.pp (Net.Server.addr server);

  (* Two writers, disjoint key ranges, each 32-key group one
     Insert_batch frame. *)
  let writers =
    Array.init 2 (fun d ->
        Domain.spawn (fun () ->
            let client = Net.Client.connect (Net.Sockaddr.Unix_sock sock) in
            for batch = 0 to 9 do
              let base = (d * 1000) + (batch * 32) in
              Net.Client.insert_batch client
                (List.init 32 (fun i -> (base + i, base + i)))
            done;
            Net.Client.close client))
  in
  Array.iter Domain.join writers;

  let client = Net.Client.connect (Net.Sockaddr.Unix_sock sock) in
  let v1 = Net.Client.tag client in
  Format.printf "tagged version %d with %d keys@." v1
    (Array.length (Net.Client.snapshot client ()));

  (* Keep writing: version v1 stays frozen while the store moves on. *)
  Net.Client.insert client ~key:42 ~value:4242;
  Net.Client.remove client ~key:1001;
  let v2 = Net.Client.tag client in
  Format.printf "version %d: key 42 = %s, key 1001 removed@." v2
    (match Net.Client.find client 42 with Some v -> string_of_int v | None -> "-");
  Format.printf "version %d still sees key 1001 = %s@." v1
    (match Net.Client.find client ~version:v1 1001 with
    | Some v -> string_of_int v
    | None -> "-");

  (* Every hop above was counted server-side; ask for the registry. *)
  (match
     Result.bind
       (Obs.Json.of_string (Net.Client.registry_snap client))
       Obs.Snap.of_json
   with
  | Ok snap ->
      Format.printf "server handled %d requests over %d connections@."
        (Obs.Snap.counter snap "net.requests")
        (Obs.Snap.counter snap "net.connections")
  | Error e -> Format.printf "registry unavailable: %s@." e);

  Net.Client.close client;
  Net.Server.stop server;
  Format.printf "drained and stopped.@."
