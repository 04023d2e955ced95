(** Primary-side replication chain: forward applied mutations to the
    backups of this server's key range.

    The chain is the [on_mutation] hook of a {!Net.Server}: it applies
    each client mutation locally and ships it to every backup as a
    replicated frame (its envelope marked replicated) under one mutex,
    held from before the apply until the forward is sent, so backups
    receive the primary's apply order.
    Frames are stamped with the epoch cell the chain {e shares} with the
    server, so a fenced-out primary stops forwarding the moment it
    learns of a newer epoch. Forwarding is synchronous: by the time the
    client sees its ack, the write has been offered to every reachable
    backup (a backup that is down is marked out of sync and repaired
    later, and the ack still goes out — availability over blocking; see
    DESIGN.md §6).

    Catch-up: a backup that missed writes (down, partitioned, or
    restarted) is sent version chains by {!Net.Client.copy_range}, the
    copy a shard move runs, over [[0, max_int)] (every cluster key) as
    replicated frames. The primary probes the backup's clock
    ([Epoch_probe]) and copies above c: that clock, or the one this
    chain's last [Tag_at] left the backup at if lower (a backup
    restarted over its own pool recovers its clock as its highest
    version, which may be pending), or one version below the probed
    clock when this chain never tagged the backup. It then aligns the
    clock with a replicated [Tag_at current] (none at clock 0). Above the
    primary's compaction horizon h ({!Mvdict.Pskiplist}[.horizon]) this
    is exact while the backup's events above c are a prefix of the
    primary's, which holds for a backup fed only by this chain (whose
    own GC keeps at least one version) or started empty. Below h, one
    replicated [Range_drop {0, max_int, h}] first empties the backup
    and raises its horizon to the primary's (again if a GC pass raises
    h during the copy); [repl.catchup_resets] counts these. Either way the backup then answers every read, at every
    version, as the primary does, unless its clock is past the
    primary's (a restart committed its pending version): [Tag_at] only
    raises a clock. Peers start out of sync, so a fresh pair syncs on
    first contact. *)

type t

type peer_status = {
  addr : Net.Sockaddr.t;
  in_sync : bool;  (** caught up as of the last forward/tick *)
  last_error : string option;  (** why the peer fell out of sync *)
}

val create : epoch_cell:int Atomic.t -> store:Net.Server.S.t -> Net.Sockaddr.t array -> t
(** [epoch_cell] must be the same cell handed to [Server.start] so the
    chain forwards with whatever epoch the server has adopted, and
    [store] the store it serves (the catch-up source). Backup
    connections time out after 2000 ms and retry once: a dead backup
    must not stall client writes for long. *)

val on_mutation :
  t -> Net.Wire.request -> (unit -> Net.Wire.response) -> Net.Wire.response
(** The [Server.start ?on_mutation] hook: runs the local apply, then
    forwards its outcome, under the chain's mutex. [Tag] is
    canonicalised against the primary's response before forwarding
    ([Tag_at] the acked version), so backups converge on the same clock
    without racing their own; [Compact] already carries an absolute
    horizon. *)

val tick : t -> unit
(** Opportunistic repair: try to catch up every out-of-sync backup.
    Call from the serve loop; cheap when everyone is in sync. *)

val peers : t -> peer_status array

val in_sync : t -> bool
(** All backups caught up. *)

val close : t -> unit
