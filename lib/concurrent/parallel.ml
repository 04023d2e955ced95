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
