(* Global named registry. Registration (get-or-create) takes a mutex;
   the returned handles are then updated lock-free, so instrumentation
   sites resolve their metrics once at module initialisation and never
   touch the table on the hot path. *)

type entry =
  | Counter of Metric.counter
  | Gauge of Metric.gauge
  | Histogram of Histogram.t

let lock = Mutex.create ()
let table : (string, entry) Hashtbl.t = Hashtbl.create 64

let locked f =
  Mutex.lock lock;
  match f () with
  | v ->
      Mutex.unlock lock;
      v
  | exception e ->
      Mutex.unlock lock;
      raise e

let get_or_add name ~kind ~make ~cast =
  locked (fun () ->
      match Hashtbl.find_opt table name with
      | Some entry -> (
          match cast entry with
          | Some v -> v
          | None ->
              invalid_arg
                (Printf.sprintf "Obs.Registry: %s already registered as a different kind (wanted %s)"
                   name kind))
      | None ->
          let entry, v = make () in
          Hashtbl.add table name entry;
          v)

let counter name =
  get_or_add name ~kind:"counter"
    ~make:(fun () ->
      let c = Metric.make_counter () in
      (Counter c, c))
    ~cast:(function Counter c -> Some c | _ -> None)

let gauge name =
  get_or_add name ~kind:"gauge"
    ~make:(fun () ->
      let g = Metric.make_gauge () in
      (Gauge g, g))
    ~cast:(function Gauge g -> Some g | _ -> None)

let histogram name =
  get_or_add name ~kind:"histogram"
    ~make:(fun () ->
      let h = Histogram.create () in
      (Histogram h, h))
    ~cast:(function Histogram h -> Some h | _ -> None)

let snapshot () =
  let entries = locked (fun () -> Hashtbl.fold (fun k v acc -> (k, v) :: acc) table []) in
  List.sort (fun (a, _) (b, _) -> String.compare a b) entries

let reset () =
  List.iter
    (fun (_, entry) ->
      match entry with
      | Counter c -> Metric.reset_counter c
      | Gauge g -> Metric.reset_gauge g
      | Histogram h -> Histogram.reset h)
    (snapshot ())
