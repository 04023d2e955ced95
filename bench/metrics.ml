(* Metrics report plumbing for the benchmark harness: after each figure
   the whole lib/obs registry (op counters, latency histograms, pmem
   flush/fence totals) is written as BENCH_<fig>.json next to the
   printed tables, seeding the benchmark trajectory that future perf PRs
   diff against. The file is the {!Obs.Snap} JSON that `mvkv client
   stats` prints (histograms as raw log buckets, so percentiles are
   computed by the reader), plus a "figure" field. *)

let path ~fig = Printf.sprintf "BENCH_%s.json" fig

let write ~fig =
  let report =
    match Obs.Snap.to_json (Obs.Snap.of_registry ()) with
    | Obs.Json.Obj fields -> Obs.Json.Obj (("figure", Obs.Json.String fig) :: fields)
    | other -> other
  in
  let file = path ~fig in
  let oc = open_out file in
  output_string oc (Obs.Json.to_string ~indent:true report);
  output_char oc '\n';
  close_out oc;
  Printf.printf "metrics: wrote %s\n%!" file

(* Run one figure with a clean registry and report it. *)
let with_report ~fig f =
  Obs.Registry.reset ();
  f ();
  write ~fig

(* Validation used by the runtest smoke rule: the emitted report must
   parse back as a snapshot of this figure, with counters recorded and
   every expected histogram present, non-empty and with percentiles
   that its buckets can compute. Returns the list of problems (empty =
   good). *)
let validate ~fig ~expect_histograms =
  let file = path ~fig in
  match
    let ic = open_in_bin file in
    let len = in_channel_length ic in
    let s = really_input_string ic len in
    close_in ic;
    s
  with
  | exception Sys_error e -> [ Printf.sprintf "%s: unreadable (%s)" file e ]
  | text -> (
      match Obs.Json.of_string text with
      | Error e -> [ Printf.sprintf "%s: JSON parse error: %s" file e ]
      | Ok json -> (
          match Obs.Snap.of_json json with
          | Error e -> [ Printf.sprintf "%s: not a registry snapshot: %s" file e ]
          | Ok snap ->
              let problems = ref [] in
              let push p = problems := p :: !problems in
              (match Obs.Json.member "figure" json with
              | Some (Obs.Json.String f) when f = fig -> ()
              | _ -> push (file ^ ": missing/incorrect \"figure\""));
              if
                not
                  (List.exists
                     (function _, Obs.Snap.Counter _ -> true | _ -> false)
                     snap)
              then push (file ^ ": no counters recorded");
              List.iter
                (fun name ->
                  match Obs.Snap.find_hist snap name with
                  | None -> push (Printf.sprintf "%s: histogram %s missing" file name)
                  | Some h when h.Obs.Snap.hcount <= 0 ->
                      push (Printf.sprintf "%s: histogram %s is empty" file name)
                  | Some h ->
                      let p = Obs.Snap.hist_percentile h in
                      if
                        h.buckets = []
                        || not (p 0.50 <= p 0.90 && p 0.90 <= p 0.99 && p 0.99 <= h.hmax)
                      then
                        push
                          (Printf.sprintf "%s: histogram %s has no computable percentiles"
                             file name))
                expect_histograms;
              List.rev !problems))
