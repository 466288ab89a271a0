(** Chunked, deterministic fork/join over a {!Pool}.

    The unit of scheduling is a {e chunk} of consecutive item indices.
    Randomness is assigned per chunk: chunk [c] receives the [(c+1)]-th
    {!Pan_numerics.Rng.split} of the master generator, regardless of which
    worker executes it or in which order chunks complete.  Results are
    therefore bit-for-bit identical for every pool size, including no pool
    at all — the contract every equivalence test in [test/test_runner.ml]
    asserts.

    Every entry point runs through one engine, {!Supervise.run_chunks}:
    a chunk's items are evaluated in ascending order into one array, and
    the completed chunks are folded in ascending chunk order — as each
    finishes when running sequentially, after the completion barrier on
    a pool.

    When {!Pan_obs.Obs} is configured, every executed chunk attempt — on
    any pool size — increments the [runner.chunks] and [runner.items]
    counters and records its duration in the [runner.chunk] histogram,
    so metric totals are identical for every pool size
    ([test/test_runner_obs.ml]).  Metric values never feed back into
    results: collection cannot perturb determinism.

    {b Supervision.}  [?retries] and [?deadline] set the run's
    {!Supervise.policy}: failed chunk attempts are retried with a fresh
    {!Pan_numerics.Rng.copy} of the chunk's split generator (so a
    recovered run is bit-identical to a fault-free one, for any pool
    size), and the deadline cancels chunks not yet started.  An active
    {!Fault} spec is applied to every run.  The [_partial] variants
    never raise on chunk failure: they return the completed portion plus
    the failure manifest (graceful degradation for long sweeps). *)

open Pan_numerics

val map_reduce :
  ?pool:Pool.t ->
  ?retries:int ->
  ?deadline:float ->
  rng:Rng.t ->
  n:int ->
  chunk:int ->
  f:(Rng.t -> int -> 'a) ->
  combine:('b -> 'a -> 'b) ->
  init:'b ->
  unit ->
  'b
(** [map_reduce ?pool ~rng ~n ~chunk ~f ~combine ~init ()] evaluates
    [f rng_c i] for every item index [i] in [0 .. n-1], where [rng_c] is
    the split generator of the chunk [c = i / chunk] containing [i], and
    folds the results with [combine] in ascending index order (so even
    non-associative combines such as float accumulation are reproducible).

    [f] must derive all its randomness from its [Rng.t] argument and must
    not mutate state shared across chunks.  Within a chunk, items are
    evaluated in ascending order on one domain, sharing [rng_c].

    On success the master [rng] has been advanced by exactly
    [ceil(n / chunk)] splits, for any pool size.  If some [f] raises and
    [retries] (default [0]) are exhausted for its chunk, the failed
    chunk with the lowest index re-raises its exception with backtrace
    after all chunks have finished; chunks cancelled by [deadline]
    (seconds, measured on the ambient {!Pan_obs.Obs} clock when
    configured) raise {!Supervise.Incomplete} instead.  Either way the
    pool remains usable, but the master [rng] state is unspecified.

    Without [?pool], or when the pool has a single domain, or when there
    is at most one chunk, the chunks run sequentially on the calling
    domain: no queue, no domains, and each chunk's items are folded
    before the next chunk runs.
    @raise Invalid_argument if [n < 0] or [chunk < 1]. *)

val map_reduce_partial :
  ?pool:Pool.t ->
  policy:Supervise.policy ->
  rng:Rng.t ->
  n:int ->
  chunk:int ->
  f:(Rng.t -> int -> 'a) ->
  combine:('b -> 'a -> 'b) ->
  init:'b ->
  unit ->
  'b * Supervise.manifest
(** Like {!map_reduce} under [policy], but failures never raise: the
    fold covers completed chunks only (still in ascending index order)
    and the manifest names every failed or cancelled chunk.  With a
    complete manifest the result equals {!map_reduce}'s. *)

val map :
  ?pool:Pool.t ->
  ?chunk:int ->
  ?retries:int ->
  ?deadline:float ->
  n:int ->
  f:(int -> 'a) ->
  unit ->
  'a array
(** [map ?pool ?chunk ~n ~f ()] is [Array.init n f] evaluated chunk-wise on
    the pool.  [f] must be pure (any randomness would be evaluation-order
    dependent — use {!map_reduce} instead).  [chunk] defaults to 16.
    [retries]/[deadline] behave as in {!map_reduce}.
    @raise Invalid_argument if [n < 0] or [chunk < 1]. *)

val map_partial :
  ?pool:Pool.t ->
  ?chunk:int ->
  policy:Supervise.policy ->
  n:int ->
  f:(int -> 'a) ->
  unit ->
  'a array * Supervise.manifest
(** Like {!map} under [policy], but failures never raise: the returned
    array concatenates the completed chunks in index order (failed
    chunks' items are simply missing) alongside the manifest. *)
