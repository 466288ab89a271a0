(** Supervision for chunked runs: bounded retry, deadlines, and a
    failure manifest.

    The paper's evaluation rests on long Monte-Carlo sweeps; this layer
    makes them survive faults instead of aborting.  Three guarantees:

    - {b Retry determinism.}  A failed chunk attempt is retried up to
      [retries] extra times.  Every attempt of chunk [c] re-runs with a
      fresh {!Pan_numerics.Rng.copy} of the chunk's split generator, so a
      retried run is bit-identical to a fault-free run — for any pool
      size (see {!Task.map_reduce} and [test/test_supervise.ml]).

    - {b Deadlines.}  A wall-clock budget, measured on the ambient
      {!Pan_obs.Obs} clock when one is configured (virtual clocks make
      deadline tests deterministic) and on {!Pan_obs.Clock.of_env}
      otherwise.  Cancellation is cooperative: the deadline is checked
      at chunk-attempt boundaries, never mid-chunk, so a running attempt
      always finishes.

    - {b Graceful degradation.}  In partial mode a run never raises: it
      returns whatever chunks completed plus a {!manifest} naming every
      failed or cancelled chunk — instead of throwing away a multi-hour
      sweep.

    Fault injection ({!Fault}) hooks in at the same chunk-attempt
    boundary, which is what makes all three testable. *)

type policy = {
  retries : int;  (** extra attempts per chunk after the first *)
  deadline : float option;  (** seconds from the start of the run *)
}

val default : policy
(** No retries, no deadline. *)

val policy : ?retries:int -> ?deadline:float -> unit -> policy
(** @raise Invalid_argument if [retries < 0] or [deadline <= 0]. *)

type failure = {
  chunk : int;
  attempts : int;  (** attempts actually made; [0] = cancelled unstarted *)
  error : string;  (** printed last exception, or ["deadline expired"] *)
}

type manifest = {
  total_chunks : int;
  completed_chunks : int;
  retried_chunks : int;  (** chunks that succeeded after a failed attempt *)
  failures : failure list;  (** ascending chunk order; [[]] iff complete *)
  deadline_expired : bool;
}

val complete : manifest -> bool
val pp_manifest : Format.formatter -> manifest -> unit
(** Deterministic rendering ([# supervision: ...] plus one line per
    failure), safe for golden output. *)

exception Incomplete of manifest
(** Raised by all-or-nothing runs whose only losses are deadline
    cancellations (a chunk that failed with a real exception re-raises
    that exception instead). *)

val run_chunks :
  ?pool:Pool.t ->
  policy:policy ->
  partial:bool ->
  m:int ->
  (int -> 'a) ->
  fold:('b -> 'a -> 'b) ->
  init:'b ->
  'b * manifest
(** [run_chunks ?pool ~policy ~partial ~m run ~fold ~init] executes
    [run 0 .. run (m-1)], each chunk supervised per [policy], and folds
    the results of the completed chunks with [fold], starting from
    [init], in ascending chunk order.  Without a pool (or on a
    one-domain pool, or with [m <= 1]) chunks run sequentially in
    ascending order and each result is folded as soon as its chunk
    completes, so it can be collected before the next chunk runs; on a
    pool the results wait in per-chunk slots until every chunk has
    finished and are then folded by the caller.  Either way [fold] sees
    the same sequence, so the result is independent of the pool size.

    [run c] must restart from pristine state on every call — the engine
    calls it once per attempt — and must not mutate state shared across
    chunks.  {!Fault.inject} is applied before each attempt.  [fold]
    runs on the calling domain only; an exception it raises propagates
    at once.

    With [partial = false] the function only returns when the manifest
    is complete: otherwise, after every chunk has finished, it re-raises
    the lowest failed chunk's exception with its backtrace, or raises
    {!Incomplete} when that failure is a deadline cancellation.  With
    [partial = true] it always returns, the fold covering the completed
    chunks only.

    When {!Pan_obs.Obs} is configured the engine counts
    [runner.attempt_failures], [runner.retries] (re-attempts scheduled),
    [runner.chunks_recovered] (succeeded after a retry),
    [runner.chunks_failed] (retries exhausted), [runner.chunks_cancelled]
    (deadline) and [runner.deadline_expired]; a fault-free run counts
    none of them. *)
