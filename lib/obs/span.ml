(* Lightweight span tracing: [enter] returns the start timestamp as the
   token (no allocation), [exit] reports the event to the pluggable
   sink and records nothing else, so with no sink installed a span
   allocates nothing: a site that wants a latency histogram times
   itself with an {!Instr} op or a plain histogram. Nesting depth is
   tracked per domain. When Control is disabled the token is 0 and
   both calls are no-ops.

   Remote contexts: a per-domain current {!context} (trace id, parent
   span id, sampling flag) links local spans into a cluster-wide trace.
   When a sampled context is set, every recorded event carries the
   trace id, a fresh span id, and the context's parent; [with_]
   additionally re-points the context at its own span id for the
   duration of the body, so nested spans (and outgoing wire requests,
   which read the context through {!get_context}) parent to it. *)

type context = { trace : Traceid.t; parent : int; sampled : bool }

type event = {
  name : string;
  depth : int;
  start_ns : int;
  stop_ns : int;
  dom : int;
  trace : Traceid.t;  (** {!Traceid.null} when recorded outside a context *)
  span_id : int;  (** 0 when recorded outside a context *)
  parent : int;  (** parent span id; 0 = root or no context *)
}

let sink : (event -> unit) option ref = ref None
let set_sink s = sink := s

let depth_key = Domain.DLS.new_key (fun () -> ref 0)
let context_key : context option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

let get_context () = !(Domain.DLS.get context_key)

let with_context c f =
  let cell = Domain.DLS.get context_key in
  let saved = !cell in
  cell := c;
  match f () with
  | v ->
      cell := saved;
      v
  | exception e ->
      cell := saved;
      raise e

let enter _name =
  if not (Control.is_enabled ()) then 0
  else begin
    let d = Domain.DLS.get depth_key in
    incr d;
    Clock.now_ns ()
  end

(* Shared exit path; [ids] carries explicit (trace, span, parent) when
   the caller pre-allocated its span id (see [with_]), otherwise the
   ids come from the current context. *)
let exit_ids name token ids =
  if token <> 0 then begin
    let stop = Clock.now_ns () in
    let d = Domain.DLS.get depth_key in
    let depth = !d in
    if depth > 0 then decr d;
    match !sink with
    | None -> ()
    | Some f ->
        let trace, span_id, parent =
          match ids with
          | Some ids -> ids
          | None -> (
              match get_context () with
              | Some { trace; parent; sampled = true } ->
                  (trace, Traceid.new_span_id (), parent)
              | _ -> (Traceid.null, 0, 0))
        in
        f
          {
            name;
            depth;
            start_ns = token;
            stop_ns = stop;
            dom = (Domain.self () :> int);
            trace;
            span_id;
            parent;
          }
  end

let exit name token = exit_ids name token None

let with_ name f =
  match get_context () with
  | Some ({ sampled = true; _ } as c) when Control.is_enabled () ->
      (* Pre-allocate this span's id and point the context at it, so
         children (local spans and traced wire requests) parent here. *)
      let span_id = Traceid.new_span_id () in
      let cell = Domain.DLS.get context_key in
      let token = enter name in
      cell := Some { c with parent = span_id };
      let finish () =
        cell := Some c;
        exit_ids name token (Some (c.trace, span_id, c.parent))
      in
      (match f () with
      | v ->
          finish ();
          v
      | exception e ->
          finish ();
          raise e)
  | _ -> (
      let token = enter name in
      match f () with
      | v ->
          exit name token;
          v
      | exception e ->
          exit name token;
          raise e)
