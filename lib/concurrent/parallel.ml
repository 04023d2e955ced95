let run ~threads f =
  if threads < 1 then invalid_arg "Parallel.run: need at least one thread";
  if threads = 1 then [| f 0 |]
  else begin
    let domains = Array.init threads (fun tid -> Domain.spawn (fun () -> f tid)) in
    (* Join everything before re-raising so no domain is left dangling. *)
    let outcomes =
      Array.map (fun d -> try Ok (Domain.join d) with e -> Error e) domains
    in
    Array.map
      (function Ok v -> v | Error e -> raise e)
      outcomes
  end

let iter_chunks ~threads a f =
  let n = Array.length a in
  let base = n / threads and extra = n mod threads in
  let start_of tid = (tid * base) + min tid extra in
  ignore
    (run ~threads (fun tid ->
         let len = base + if tid < extra then 1 else 0 in
         f tid (Array.sub a (start_of tid) len)))

(* A waiter spins until the last of [parties] arrives; it waits on
   nothing else, so the bound is the slowest party's arrival, provided
   every party calls [await] the same number of times. *)
let make_barrier ~parties =
  if parties < 1 then invalid_arg "Parallel.make_barrier";
  let arrived = Atomic.make 0 in
  let generation = Atomic.make 0 in
  fun () ->
    let gen = Atomic.get generation in
    if Atomic.fetch_and_add arrived 1 = parties - 1 then begin
      Atomic.set arrived 0;
      Atomic.incr generation
    end
    else
      while Atomic.get generation = gen do
        Domain.cpu_relax ()
      done
