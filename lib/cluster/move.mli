(** Live resharding: the epoch-fenced migration coordinator
    (DESIGN.md §8).

    Moves a key range between shard processes {e under traffic} in
    three phases, all expressed as ordinary wire frames so a
    coordinator crash is always recoverable by re-running:

    + {b copy} — rounds of {!Net.Client.copy_range}: page the range's
      version chains off the source with [Migrate_pull] and install
      them on the destination's primary with [History_batch] (version
      stamps, tombstones and all; the destination's chain forwards each
      batch to its backups verbatim). Each round pulls everything above
      the clock the previous round probed ([Epoch_probe]) before
      pulling. The rounds end once one ships no events, or no fewer
      than the round before it, and at the latest after 16. Below the
      source's compaction horizon a round first drops the destination's
      copy ([Range_drop]) and copies from 0 ([move.resets]).
    + {b cutover} — [Range_seal] the range on the source (new writers
      get a typed [Moved {epoch; endpoint}] rejection; in-flight ones
      drain), ship the final round under the seal, and raise the
      destination's version clock to the one that round probed
      ([Tag_at]) so versioned reads stay coherent across the handoff.
    + {b publish} — rewrite the topology (epoch + 1), {!Topology.save}
      it durably, fence the new owners onto the new epoch, and lift the
      seal last — from then on the old owner's [Moved] answers carry an
      epoch the routers can chase.

    Idempotence contract: installs use the skip-count rule
    ({!Mvdict.Pskiplist}[.install_chains]) above the source's horizon,
    and a round below it starts from a dropped copy, so any prefix of
    the protocol can be replayed. Killed before the topology save:
    re-run the same command. Killed after: {!move} detects the
    topology already names the destination and only re-runs the fence
    and the unseal. The source
    keeps its (now unreachable) copy of a moved range; reclaiming it is
    ordinary retention GC on the source, out of this module's scope. *)

type progress = {
  phase : string;  (** ["copy"], ["cutover"], or ["done"] *)
  round : int;
  keys : int;  (** keys shipped by this step *)
  events : int;  (** history events shipped by this step *)
}

type outcome = {
  rounds : int;  (** unsealed copy rounds before the seal *)
  keys_copied : int;
  events_copied : int;
  copy_ns : int;  (** wall time of the unsealed copy phase *)
  pause_ns : int;  (** seal → unseal: the write-unavailability window *)
  new_epoch : int;
}

type error =
  | Bad_args of string
  | Shard_error of { endpoint : string; reason : string }
  | Save_failed of string
      (** The handoff completed its copy but the durable topology
          rewrite failed; the range is still sealed on the source —
          re-run to retry, or bounce the source to lift the seal. *)

val error_to_string : error -> string

val move :
  ?timeout_ms:int ->
  ?retries:int ->
  ?fault:(string -> unit) ->
  ?notify:(progress -> unit) ->
  topo_path:string ->
  Topology.t ->
  shard:int ->
  dest:Net.Sockaddr.t array ->
  unit ->
  (outcome, error) result
(** Hand shard [shard]'s whole range to the replica set [dest]
    ([dest.(0)] the new primary, the rest its backups — they converge
    through the primary's chain). [fault] is a test hook called with
    ["pre_copy"], ["pre_seal"], ["sealed"], ["pre_save"], ["saved"] at
    the matching points — raise from it to simulate a coordinator
    crash. If the topology already names [dest] (a resume after a
    crash between save and unseal) only the epoch fence and seal
    cleanup run. *)

val split :
  ?timeout_ms:int ->
  ?retries:int ->
  ?fault:(string -> unit) ->
  ?notify:(progress -> unit) ->
  topo_path:string ->
  Topology.t ->
  shard:int ->
  at:int ->
  dest:Net.Sockaddr.t array ->
  unit ->
  (outcome, error) result
(** Split shard [shard]'s range [[lo, hi)] at [at]: the source keeps
    [[lo, at)], the upper half moves to [dest] which becomes shard
    [shard + 1] (later shard ids shift up — callers must re-route from
    the key, not a cached shard id). Same handoff engine and options as
    {!move}, applied to [[at, hi)] only. *)

val merge :
  ?timeout_ms:int ->
  ?retries:int ->
  ?fault:(string -> unit) ->
  ?notify:(progress -> unit) ->
  topo_path:string ->
  Topology.t ->
  shard:int ->
  unit ->
  (outcome, error) result
(** Fold shard [shard + 1]'s range into shard [shard]: the right
    neighbour's chains are handed to [shard]'s existing replica set,
    then the topology drops the neighbour (later ids shift down). The
    destination's clock is only ever raised, never lowered. *)

val status :
  ?timeout_ms:int ->
  ?retries:int ->
  Topology.t ->
  (int * string * (string, string) result) list
(** Ask every shard primary for its [Moves_status] JSON (active seals,
    their age and target). [(shard, endpoint, Ok json | Error reason)]
    per shard; a dead shard is reported, never fatal. *)
