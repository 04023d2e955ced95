(* The five compared approaches (Sec. V-B), instantiated for the int/int
   workloads and unified behind one first-class-module interface so each
   figure sweeps the same way the paper does. *)

module type DICT = sig
  include Mvdict.Dict_intf.S with type key = int and type value = int
end

type instance = Instance : (module DICT with type t = 'a) * 'a -> instance

type approach = {
  label : string;
  fresh : unit -> instance * Pmem.Pstats.t option;
      (** A fresh store plus, for the persistent approach, the stats
          counter of its heap (for flush/fence pricing). *)
  (* Concurrency laws used to project measured single-thread costs to
     the simulated 64-core node (see lib/sim). *)
  insert_law : Sim.Cost_model.law;
  query_law : Sim.Cost_model.law;
  persistent : bool;
}

module P = Mvdict.Pskiplist.Make (Mvdict.Codec.Int_key) (Mvdict.Codec.Int_value)
module E = Mvdict.Eskiplist
module L = Mvdict.Locked_map

(* Heap sized for the figure workloads (3N entries * 24B + chain + slack). *)
let heap_capacity = ref (1 lsl 28)

let fresh_pskiplist () =
  let heap = Pmem.Pheap.create_ram ~capacity:!heap_capacity () in
  (Instance ((module P), P.create heap), Some (Pmem.Pheap.stats heap))

let sqlitereg =
  {
    label = "SQLiteReg";
    fresh = (fun () -> (Instance ((module Minidb.Sql_store.Reg), Minidb.Sql_store.Reg.create ()), None));
    insert_law = Sim.Cost_model.sqlitereg_insert;
    query_law = Sim.Cost_model.sqlitereg_query;
    persistent = true;
  }

let sqlitemem =
  {
    label = "SQLiteMem";
    fresh = (fun () -> (Instance ((module Minidb.Sql_store.Mem), Minidb.Sql_store.Mem.create ()), None));
    insert_law = Sim.Cost_model.sqlitemem_insert;
    query_law = Sim.Cost_model.sqlitemem_query;
    persistent = false;
  }

let lockedmap =
  {
    label = "LockedMap";
    fresh = (fun () -> (Instance ((module L), L.create ()), None));
    insert_law = Sim.Cost_model.lockedmap_insert;
    query_law = Sim.Cost_model.lockedmap_query;
    persistent = false;
  }

let eskiplist =
  {
    label = "ESkipList";
    fresh = (fun () -> (Instance ((module E), E.create ()), None));
    insert_law = Sim.Cost_model.eskiplist_insert;
    query_law = Sim.Cost_model.eskiplist_query;
    persistent = false;
  }

let pskiplist =
  {
    label = "PSkipList";
    fresh = fresh_pskiplist;
    insert_law = Sim.Cost_model.pskiplist_insert;
    query_law = Sim.Cost_model.pskiplist_query;
    persistent = true;
  }

let all = [ sqlitereg; sqlitemem; lockedmap; eskiplist; pskiplist ]

(* Generic driving helpers over an instance. *)

let apply_op (Instance ((module S), t)) op =
  match op with
  | Workload.Opgen.Insert (k, v) ->
      S.insert t k v;
      ignore (S.tag t)
  | Workload.Opgen.Remove k ->
      S.remove t k;
      ignore (S.tag t)
  | Workload.Opgen.Find (k, version) -> ignore (S.find t ~version k)
  | Workload.Opgen.History k -> ignore (S.extract_history t k)

let run_ops instance ops = Array.iter (apply_op instance) ops
