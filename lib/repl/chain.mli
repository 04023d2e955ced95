(** Primary-side replication chain: forward applied mutations to the
    backups of this server's key range.

    The chain is the [on_mutation] hook of a {!Net.Server}: after the
    primary applies a client mutation locally, the chain ships it to
    every backup as a [Replicate] frame — stamped with the
    epoch cell it {e shares} with the server, so a fenced-out primary
    stops forwarding the moment it learns of a newer epoch. Forwarding
    is synchronous: by the time the client sees its ack, the write has
    been offered to every reachable backup (a backup that is down is
    marked out of sync and repaired later, and the ack still goes out —
    availability over blocking; see DESIGN.md §6).

    Catch-up (anti-entropy): a backup that missed writes — it was down,
    partitioned, or just restarted empty — is brought back by a state
    diff instead of an op replay: the primary pulls the backup's
    snapshot, diffs it against its own ({!Mvdict.Snapshot.diff}), ships the
    difference as [Replicate] removes and inserts, then aligns the
    version clock with a [Replicate (Tag_at current)]. From the sync
    point on, the backup answers reads exactly like the primary;
    history {e below} the sync point is collapsed (the usual anti-
    entropy contract — convergence forward, not retroactive replay).
    Peers start out of sync, so a fresh pair syncs on first contact
    (a no-op diff when both start empty, preserving exact history
    parity for the lifetime of the pair). *)

type t

type peer_status = {
  addr : Net.Sockaddr.t;
  in_sync : bool;  (** caught up as of the last forward/tick *)
  last_error : string option;  (** why the peer fell out of sync *)
}

val create :
  epoch_cell:int Atomic.t ->
  snapshot:(?version:int -> unit -> (int * int) array) ->
  current_version:(unit -> int) ->
  Net.Sockaddr.t array ->
  t
(** [epoch_cell] must be the same cell handed to [Server.start] so the
    chain forwards with whatever epoch the server has adopted.
    [snapshot]/[current_version] read the primary's own store (the
    catch-up source). Backup connections time out after 2000 ms and
    retry once: a dead backup must not stall client writes for long. *)

val on_mutation : t -> Net.Wire.request -> Net.Wire.response -> unit
(** The [Server.start ?on_mutation] hook. [Tag] is canonicalised
    against the primary's response before forwarding ([Tag_at] the
    acked version), so backups converge on the same clock without
    racing their own; [Compact] already carries an absolute horizon. *)

val tick : t -> unit
(** Opportunistic repair: try to catch up every out-of-sync backup.
    Call from the serve loop; cheap when everyone is in sync. *)

val peers : t -> peer_status array

val in_sync : t -> bool
(** All backups caught up. *)

val close : t -> unit
