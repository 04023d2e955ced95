type t = {
  flushed_lines : int Atomic.t;
  fences : int Atomic.t;
  flushes_saved : int Atomic.t;
  fences_saved : int Atomic.t;
  allocs : int Atomic.t;
  alloc_bytes : int Atomic.t;
  frees : int Atomic.t;
  free_bytes : int Atomic.t;
  leaked_bytes : int Atomic.t;
}

let create () =
  {
    flushed_lines = Atomic.make 0;
    fences = Atomic.make 0;
    flushes_saved = Atomic.make 0;
    fences_saved = Atomic.make 0;
    allocs = Atomic.make 0;
    alloc_bytes = Atomic.make 0;
    frees = Atomic.make 0;
    free_bytes = Atomic.make 0;
    leaked_bytes = Atomic.make 0;
  }

let add counter n = ignore (Atomic.fetch_and_add counter n)

(* Global mirrors in the lib/obs registry: per-heap counters stay
   per-heap (the figures price individual heaps), while the registry
   aggregates across every heap so one report shows the whole
   picture. *)
let g_flushed_lines = Obs.Registry.counter "pmem.flushed_lines"
let g_fences = Obs.Registry.counter "pmem.fences"
let g_flushes_saved = Obs.Registry.counter "pmem.flushes_saved"
let g_fences_saved = Obs.Registry.counter "pmem.fences_saved"
let g_allocs = Obs.Registry.counter "pmem.allocs"
let g_alloc_bytes = Obs.Registry.counter "pmem.alloc_bytes"
let g_frees = Obs.Registry.counter "pmem.frees"
let g_free_bytes = Obs.Registry.counter "pmem.free_bytes"
let g_leaked_bytes = Obs.Registry.counter "pmem.leaked_bytes"

let record_flush t ~lines =
  add t.flushed_lines lines;
  Obs.Metric.add g_flushed_lines lines

let record_fence t =
  add t.fences 1;
  Obs.Metric.incr g_fences

(* Persistence work a batch scope coalesced away: cache-line flushes
   deduplicated because several records shared a line (or were flushed
   once instead of per key), and fences collapsed into the single
   batch-epilogue fence. On real pmem this is the raw win of batching;
   in simulation the counters are the evidence the win exists. *)
let record_flush_saved t ~lines =
  if lines > 0 then begin
    add t.flushes_saved lines;
    Obs.Metric.add g_flushes_saved lines
  end

let record_fence_saved t ~count =
  if count > 0 then begin
    add t.fences_saved count;
    Obs.Metric.add g_fences_saved count
  end

let record_alloc t ~bytes =
  add t.allocs 1;
  add t.alloc_bytes bytes;
  Obs.Metric.incr g_allocs;
  Obs.Metric.add g_alloc_bytes bytes

let record_free t ~bytes =
  add t.frees 1;
  add t.free_bytes bytes;
  Obs.Metric.incr g_frees;
  Obs.Metric.add g_free_bytes bytes

(* A free range the allocator cannot recycle (under its minimum
   block). Counted so a leak is visible in `mvkv stats` / Prometheus
   instead of silent. *)
let record_leak t ~bytes =
  add t.leaked_bytes bytes;
  Obs.Metric.add g_leaked_bytes bytes

let flushed_lines t = Atomic.get t.flushed_lines
let fences t = Atomic.get t.fences
let flushes_saved t = Atomic.get t.flushes_saved
let fences_saved t = Atomic.get t.fences_saved
let allocs t = Atomic.get t.allocs
let alloc_bytes t = Atomic.get t.alloc_bytes
let frees t = Atomic.get t.frees
let live_bytes t = Atomic.get t.alloc_bytes - Atomic.get t.free_bytes
let leaked_bytes t = Atomic.get t.leaked_bytes

let reset t =
  Atomic.set t.flushed_lines 0;
  Atomic.set t.fences 0;
  Atomic.set t.flushes_saved 0;
  Atomic.set t.fences_saved 0;
  Atomic.set t.allocs 0;
  Atomic.set t.alloc_bytes 0;
  Atomic.set t.frees 0;
  Atomic.set t.free_bytes 0;
  Atomic.set t.leaked_bytes 0

let pp fmt t =
  Format.fprintf fmt
    "flushed_lines=%d fences=%d flushes_saved=%d fences_saved=%d allocs=%d alloc_bytes=%d frees=%d live_bytes=%d leaked_bytes=%d"
    (flushed_lines t) (fences t) (flushes_saved t) (fences_saved t) (allocs t)
    (alloc_bytes t) (frees t) (live_bytes t) (leaked_bytes t)
