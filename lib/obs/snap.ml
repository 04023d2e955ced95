(* Portable, mergeable registry snapshots — the unit of fleet
   aggregation. [of_registry] captures every registered metric in a
   plain-data form that serialises to JSON and back (the Registry_snap
   wire opcode), [merge] combines snapshots from many nodes (counter
   and gauge sums, exact log-bucket histogram addition), and
   [prometheus] renders a set of labelled snapshots as one exposition
   page — how `mvkv cluster metrics` shows every shard and replica
   under `shard`/`replica` labels. *)

type hist = {
  hcount : int;
  hsum : int;
  hmax : int;
  buckets : (int * int) list;  (** (log-bucket index, count), ascending *)
}

type entry =
  | Counter of int
  | Gauge of int
  | Hist of hist

type t = (string * entry) list

let of_registry () =
  List.map
    (fun (name, entry) ->
      ( name,
        match (entry : Registry.entry) with
        | Registry.Counter c -> Counter (Metric.value c)
        | Registry.Gauge g -> Gauge (Metric.gauge_value g)
        | Registry.Histogram h ->
            (* The count from the buckets loaded once, so it equals
               their sum while other domains record. *)
            let buckets = Histogram.nonzero_buckets h in
            Hist
              {
                hcount = List.fold_left (fun acc (_, n) -> acc + n) 0 buckets;
                hsum = Histogram.sum h;
                hmax = Histogram.max_value h;
                buckets;
              } ))
    (Registry.snapshot ())

(* ---- queries ---- *)

let counter t name =
  match List.assoc_opt name t with Some (Counter v) -> v | _ -> 0

let gauge t name = match List.assoc_opt name t with Some (Gauge v) -> v | _ -> 0

let find_hist t name =
  match List.assoc_opt name t with Some (Hist h) -> Some h | _ -> None

(* Smallest bucket whose cumulative count reaches [q * count], reported
   as the bucket midpoint (clamped to the observed max). *)
let hist_percentile h q =
  if h.hcount = 0 then 0
  else begin
    let rank = int_of_float (ceil (q *. float_of_int h.hcount)) in
    let rank = if rank < 1 then 1 else if rank > h.hcount then h.hcount else rank in
    let rec scan acc = function
      | [] -> h.hmax
      | (i, n) :: rest ->
          let acc = acc + n in
          if acc >= rank then
            let hi = min (Histogram.bucket_hi i) (h.hmax + 1) in
            (Histogram.bucket_lo i + hi) / 2
          else scan acc rest
    in
    scan 0 h.buckets
  end

(* Fraction of samples whose value is certainly <= [le] (whole buckets
   only — conservative by at most one log bucket, i.e. 1/16 relative).
   The SLO attainment primitive. *)
let hist_le_fraction h ~le =
  if h.hcount = 0 then None
  else begin
    let met =
      List.fold_left
        (fun acc (i, n) ->
          if Histogram.bucket_hi i - 1 <= le then acc + n else acc)
        0 h.buckets
    in
    Some (float_of_int met /. float_of_int h.hcount)
  end

(* ---- merging ---- *)

let merge_buckets a b =
  let rec go a b =
    match (a, b) with
    | [], rest | rest, [] -> rest
    | (ia, na) :: ra, (ib, nb) :: rb ->
        if ia < ib then (ia, na) :: go ra b
        else if ia > ib then (ib, nb) :: go a rb
        else (ia, na + nb) :: go ra rb
  in
  go a b

let merge_entry a b =
  match (a, b) with
  | Counter x, Counter y -> Counter (x + y)
  | Gauge x, Gauge y -> Gauge (x + y)
  | Hist x, Hist y ->
      Hist
        {
          hcount = x.hcount + y.hcount;
          hsum = x.hsum + y.hsum;
          hmax = max x.hmax y.hmax;
          buckets = merge_buckets x.buckets y.buckets;
        }
  (* Kind clash across nodes (version skew): keep the left entry. *)
  | a, _ -> a

let merge a b =
  let names =
    List.sort_uniq String.compare (List.map fst a @ List.map fst b)
  in
  List.map
    (fun name ->
      match (List.assoc_opt name a, List.assoc_opt name b) with
      | Some x, Some y -> (name, merge_entry x y)
      | Some x, None | None, Some x -> (name, x)
      | None, None -> assert false)
    names

let merge_all = function [] -> [] | s :: rest -> List.fold_left merge s rest

(* ---- JSON (the Registry_snap wire payload) ---- *)

let to_json (t : t) =
  let counters = ref [] and gauges = ref [] and hists = ref [] in
  List.iter
    (fun (name, entry) ->
      match entry with
      | Counter v -> counters := (name, Json.Int v) :: !counters
      | Gauge v -> gauges := (name, Json.Int v) :: !gauges
      | Hist h ->
          hists :=
            ( name,
              Json.Obj
                [
                  ("count", Json.Int h.hcount);
                  ("sum", Json.Int h.hsum);
                  ("max", Json.Int h.hmax);
                  ( "buckets",
                    Json.List
                      (List.map
                         (fun (i, n) -> Json.List [ Json.Int i; Json.Int n ])
                         h.buckets) );
                ] )
            :: !hists)
    t;
  Json.Obj
    [
      ("counters", Json.Obj (List.rev !counters));
      ("gauges", Json.Obj (List.rev !gauges));
      ("histograms", Json.Obj (List.rev !hists));
    ]

let of_json (j : Json.t) : (t, string) result =
  let fail what = Error (Printf.sprintf "Obs.Snap.of_json: bad %s" what) in
  let ( let* ) = Result.bind in
  let* () = match j with Json.Obj _ -> Ok () | _ -> fail "snapshot document" in
  let int_field name obj =
    match Json.member name obj with Some (Json.Int v) -> Some v | _ -> None
  in
  let section name =
    match Json.member name j with
    | Some (Json.Obj fields) -> Ok fields
    | Some _ -> fail name
    | None -> Ok []
  in
  let* counters = section "counters" in
  let* gauges = section "gauges" in
  let* hists = section "histograms" in
  let parse_simple make (name, v) =
    match v with Json.Int v -> Ok (name, make v) | _ -> fail name
  in
  let parse_hist (name, v) =
    match (int_field "count" v, int_field "sum" v, int_field "max" v) with
    | Some hcount, Some hsum, Some hmax -> (
        match Json.member "buckets" v with
        | Some (Json.List items) -> (
            let rec buckets acc = function
              | [] -> Ok (List.rev acc)
              | Json.List [ Json.Int i; Json.Int n ] :: rest ->
                  if i < 0 || n < 0 then fail (name ^ ".buckets")
                  else buckets ((i, n) :: acc) rest
              | _ -> fail (name ^ ".buckets")
            in
            match buckets [] items with
            | Ok buckets -> Ok (name, Hist { hcount; hsum; hmax; buckets })
            | Error _ as e -> e)
        | _ -> fail (name ^ ".buckets"))
    | _ -> fail name
  in
  let rec map_m f acc = function
    | [] -> Ok (List.rev acc)
    | x :: rest -> (
        match f x with Ok v -> map_m f (v :: acc) rest | Error _ as e -> e)
  in
  let* counters = map_m (parse_simple (fun v -> Counter v)) [] counters in
  let* gauges = map_m (parse_simple (fun v -> Gauge v)) [] gauges in
  let* hists = map_m parse_hist [] hists in
  Ok
    (List.sort
       (fun (a, _) (b, _) -> String.compare a b)
       (counters @ gauges @ hists))

(* ---- labelled Prometheus page (mvkv cluster metrics) ---- *)

(* Text exposition version 0.0.4, without HTTP framing on purpose:
   `mvkv metrics` prints it, and a node_exporter textfile collector (or
   any sidecar) turns it into a scrape target. Names are sanitized to
   the Prometheus grammar (letters, digits, '_' and ':', not starting
   with a digit): every other character becomes '_', and a leading
   digit gets a '_' prefix — so "net.requests" scrapes as
   "net_requests"; the original name travels in the HELP line. *)

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

let prometheus (parts : ((string * string) list * t) list) =
  let buf = Buffer.create 4096 in
  let names =
    List.sort_uniq String.compare
      (List.concat_map (fun (_, snap) -> List.map fst snap) parts)
  in
  let int_value = string_of_int in
  let preamble name ~orig ~kind =
    Buffer.add_string buf (Printf.sprintf "# HELP %s %s\n" name orig);
    Buffer.add_string buf (Printf.sprintf "# TYPE %s %s\n" name kind)
  in
  List.iter
    (fun orig ->
      let name = sanitize orig in
      (* One preamble per family, then one series per labelled part. *)
      let first =
        List.find_map (fun (_, snap) -> List.assoc_opt orig snap) parts
      in
      (match first with
      | Some (Counter _) -> preamble name ~orig ~kind:"counter"
      | Some (Gauge _) -> preamble name ~orig ~kind:"gauge"
      | Some (Hist _) -> preamble name ~orig ~kind:"histogram"
      | None -> ());
      List.iter
        (fun (labels, snap) ->
          match List.assoc_opt orig snap with
          | None -> ()
          | Some (Counter v) | Some (Gauge v) ->
              series buf name ~labels (int_value v)
          | Some (Hist h) ->
              let acc = ref 0 in
              List.iter
                (fun (i, n) ->
                  acc := !acc + n;
                  series buf (name ^ "_bucket")
                    ~labels:(labels @ [ ("le", int_value (Histogram.bucket_hi i - 1)) ])
                    (int_value !acc))
                h.buckets;
              series buf (name ^ "_bucket")
                ~labels:(labels @ [ ("le", "+Inf") ])
                (int_value h.hcount);
              series buf (name ^ "_sum") ~labels (int_value h.hsum);
              series buf (name ^ "_count") ~labels (int_value h.hcount))
        parts)
    names;
  Buffer.contents buf
