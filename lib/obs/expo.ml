(* Prometheus text exposition (version 0.0.4) building blocks.

   Metric names are sanitized to the Prometheus grammar (letters,
   digits, '_' and ':', not starting with a digit): every other
   character becomes '_', and a leading digit gets a '_' prefix — so
   "net.requests" scrapes as "net_requests". {!Snap.prometheus} renders
   whole pages with these; the output has no HTTP framing on purpose:
   `mvkv metrics` prints it, and a node_exporter textfile collector (or
   any sidecar) turns it into a scrape target. *)

let is_name_char = function
  | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | ':' -> true
  | _ -> false

let sanitize name =
  let mapped = String.map (fun c -> if is_name_char c then c else '_') name in
  match mapped with
  | "" -> "_"
  | s -> ( match s.[0] with '0' .. '9' -> "_" ^ s | _ -> s)

let series buf name ?(labels = []) value =
  Buffer.add_string buf name;
  (match labels with
  | [] -> ()
  | labels ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char buf ',';
          Buffer.add_string buf (Printf.sprintf "%s=\"%s\"" k v))
        labels;
      Buffer.add_char buf '}');
  Buffer.add_char buf ' ';
  Buffer.add_string buf value;
  Buffer.add_char buf '\n'
