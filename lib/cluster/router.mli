(** Client-side coordinator for a sharded mvkv cluster (Sec. IV-A /
    V-H made real: the key space is range-partitioned over K shard
    {e processes} speaking the lib/net wire protocol). This is the
    repository's one horizontal path: routed ops, cluster-wide tags and
    distributed snapshots all fan out from here.

    One pipelined {!Net.Client} per replica slot, dialled on first use;
    a failed call closes it and the next call redials with backoff. Nothing
    here raises for a dead shard: every operation returns a [result]
    whose {!error} names the shard, and a shard coming back is picked
    up automatically.

    Every routed call takes one path. Writes go to each range's primary
    (slot 0), the one replica whose chain forwards to the backups;
    reads (find/find_bulk/history/snapshot) fail over across the
    replica set with a sticky preferred slot, so a dead primary costs
    readers one failover ([repl.read_failovers], latency in
    [repl.failover_latency_ns]) instead of an outage. Every connection
    stamps requests with the topology epoch; a [Bad_epoch] rejection
    (promotion happened elsewhere) or a wholly unreachable replica set
    triggers one topology reload via the [reload] closure, and a retry
    only if the reload adopted a newer map. A shard call is sent only
    while its shard index still names the key range it was routed for;
    otherwise it answers {!Moved}, and the op re-routes what is left of
    its work from its keys (a batched write its unacked buckets, a scan
    from its next undelivered key).

    Consistency note: single-key operations are linearizable per shard
    (the shard's store provides that); cluster-wide {!tag} cuts the
    {e same} version number on every shard by broadcasting
    [Tag_at (max shard versions + 1)], so a snapshot at a tagged
    version is a consistent cut provided writers pause around [tag]
    (an external-coordination contract, as in the paper's tagging). *)

type error =
  | Shard_down of { shard : int; endpoint : string; reason : string }
      (** The shard did not answer: connect/send/receive failed after
          the client's retry budget, the reply timed out, or the server
          answered an error frame. *)
  | Tag_mismatch of { shard : int; expected : int; got : int }
      (** A cluster-wide tag asked every shard for version [expected]
          but this shard acked [got] — a concurrent tagger or an
          out-of-band write moved its clock. *)
  | Bad_key of { key : int; key_bits : int }
      (** [key] is outside the topology's key space. *)
  | Stale_epoch of { shard : int; epoch : int; reason : string }
      (** The shard has seen a newer topology epoch than [epoch] (ours)
          and rejected the request with [Bad_epoch]; reloading the
          topology did not produce a newer map (no [reload] closure, or
          the file has not caught up yet). *)
  | Moved of { shard : int; epoch : int; endpoint : string }
      (** The shard no longer owns the key: a live reshard sealed the
          range and pointed at [endpoint] as of topology [epoch]. Every
          operation chases this automatically (reload the topology until
          its epoch reaches [epoch], then re-route {e from the key} — a
          split may have renumbered shard ids); it surfaces only when
          the chase budget runs out or no [reload] closure exists. *)

val error_to_string : error -> string

type t

val create :
  ?timeout_ms:int ->
  ?retries:int ->
  ?trace_sample:float ->
  ?reload:(unit -> Topology.t option) ->
  Topology.t ->
  t
(** [timeout_ms]/[retries] are handed to every per-replica
    {!Net.Client.create} (defaults: no timeout, 2 retries: at most 3
    dials a call to a dead replica). [reload] is consulted when a shard
    rejects our epoch or a whole replica set is unreachable: it should
    re-read the topology source (e.g. [Topology.of_file]); the router
    adopts the result only when its epoch is strictly newer, then
    retries the failed call once.
    [trace_sample] (default 1.0) is the probability that each routed op
    originates a trace context: sampled ops open a root span at the
    router and stamp every fan-out frame with the trace id, so the
    shards (and their replication forwards) record child spans of the
    same trace. 0.0 disables origination entirely. *)

val topology : t -> Topology.t

val set_topology : t -> Topology.t -> unit
(** Swap the routing map, keeping the client of every endpoint that
    stays in it and closing the rest. Normally the [reload] closure
    does this on demand; exposed for callers that learn about a
    promotion out of band. *)

val close : t -> unit
(** Close every shard connection (the router stays usable; the next
    operation redials). *)

val ping : t -> (unit, error) result
(** Round-trip every shard. *)

val versions : t -> (int array, error) result
(** Every shard's current version, probed with [Epoch_probe]. *)

val insert : t -> key:int -> value:int -> (unit, error) result
val remove : t -> key:int -> (unit, error) result
val find : t -> ?version:int -> int -> (int option, error) result

val find_bulk : t -> ?version:int -> int array -> (int option array, error) result
(** Bulk lookup: keys are bucketed per owning shard, each bucket goes
    out as pipelined [Find_bulk] frames ([Net.Client.call_batch]), and
    the answers are reassembled in input order. *)

val insert_batch : t -> (int * int) list -> (unit, error) result
(** Batched insert: pairs are bucketed per owning shard and each bucket
    goes out as pipelined [Insert_batch] frames of at most 1024 pairs —
    one round trip per shard, one store-level batch (one version bump)
    per frame on the shard. Not cluster-atomic: the first shard failure
    aborts the fan-out, but earlier shards keep their writes. *)

val remove_batch : t -> int list -> (unit, error) result
(** Batched remove, same routing and atomicity contract as
    {!insert_batch}. *)

val scan :
  t ->
  ?version:int ->
  ?limit:int ->
  lo:int ->
  hi:int ->
  (int -> int -> unit) ->
  (int, error) result
(** Stream every live pair of [[lo, hi)] to the callback in ascending
    key order, walking the shards that intersect the range in shard
    (= key) order and paging each with [Scan] frames ([limit] bounds
    one page; 0 or absent = server-chosen). Returns the number of pairs
    streamed. Out-of-key-space portions of the range simply match
    nothing. Pin [version] for a coherent cut; each shard's pages are
    delivered only after that shard's scan succeeds, so a read failover
    never re-delivers pairs. *)

val tag : t -> (int, error) result
(** Cluster-wide tag: probe every shard's version, broadcast
    [Tag_at (max + 1)], verify every ack equals the target, return it. *)

val compact : t -> keep:int -> (int * int, error) result
(** Cluster-wide GC, the same probe-then-broadcast shape as {!tag}:
    read every shard's clock, pick the safe horizon
    [before = min clocks - keep] (clamped at 0), broadcast
    [Compact {before}] to every shard and sum the acks. Returns
    [(before, total entries dropped)]; [(0, 0)] when no shard has
    enough history yet. Anchoring below the minimum clock guarantees
    every shard keeps its last [keep] versions, so consistent cluster
    snapshots at or after [before] remain faithful. *)

val history : t -> int -> ((int * int Mvdict.Dict_intf.event) list, error) result
(** [extract_history] from the key's owning shard (with read failover
    across its replicas). Single-shard by design: the owner holds the
    complete chain — live resharding ships whole version histories —
    while a previous owner may keep a stale copy until its own GC, so a
    scatter-gather would double-count. *)

val snapshot : t -> ?version:int -> unit -> ((int * int) array, error) result
(** Cluster-wide [extract_snapshot]: {!scan} over the whole key space
    [[0, 2{^key_bits})], so each shard's range arrives in [Scan] pages
    that fit a frame however large the shard, and only from the shard
    that owns it. Shard order is key order (see {!Topology}), so the
    result is sorted with no merge step. Timed as the
    [cluster.snapshot] op; [cluster.snapshot.pairs] counts the pairs
    returned. *)

(** {2 Fleet aggregation}

    Best-effort views over every replica of every shard: a node that
    cannot answer is reported alongside the merged result, never
    fatal. *)

type node_snap = {
  shard : int;
  slot : int;  (** 0 = primary, >0 = backup *)
  snap : (Obs.Snap.t, string) result;
}

val fleet_snaps : t -> node_snap list
(** One {!Obs.Snap} registry snapshot per reachable replica, in
    (shard, slot) order. *)

val fleet_metrics : t -> string * (string * string) list
(** The whole fleet as one Prometheus page: each node's snapshot is a
    label set [{shard,replica}] with one HELP/TYPE preamble per metric
    family. Second component: [(node label, reason)] for nodes that
    could not be scraped. *)

val fleet_trace :
  ?clear:bool -> ?local:Obs.Tracebuf.t -> t -> Obs.Json.t * (string * string) list
(** Drain every node's span ring ([clear] as in
    {!Net.Client.trace_dump}, default [true]) and merge into one Chrome
    trace document: one process lane per node ([shard<i>],
    [shard<i>.b<j>], plus [router] when [local] supplies the router's
    own ring), timestamps rebased onto the collector's clock via each
    dump's [clockNs] stamp. Second component: skipped nodes. *)
