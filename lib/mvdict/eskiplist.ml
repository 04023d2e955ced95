module EH = Ehistory.Make (Int)

(* The DRAM history policy: a value is itself ([None] is the removal
   marker), a history an {!Ehistory}, and a key needs no durable
   name, scope or barrier. *)
module Policy = struct
  type key = int
  type value = int
  type store = unit
  type word = int option
  type name = unit
  type history = EH.t

  let name = "ESkipList"
  let compare = Int.compare
  let encode () v = Some v
  let decode () word = word
  let marker = None
  let words n = if n = 1 then [| None |] else Array.make n None
  let is_blob _ = false
  let free () _ = ()
  let with_batch f = f ()
  let barrier () = ()
  let claim () _ = ()
  let commit () () _ = ()
  let clear () () = None
  let create () () = EH.create ()
  let destroy () _ = ()
  let append_entry = EH.H.append_entry
  let finish_entry = EH.H.finish_entry
  let find = EH.H.find
  let value = EH.H.value
  let events = EH.H.events
end

include Vstore.Make (Policy)

let create () = make () (new_index ()) (Version.create ())
