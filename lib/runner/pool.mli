(** Fixed-size domain pool with a mutex/condition work queue.

    A pool with [domains = d] provides [d]-way parallelism: [d - 1] worker
    domains are spawned at creation and block on the queue, and the caller
    of {!run_jobs} participates as the [d]-th worker.  A pool with
    [domains = 1] spawns no domains at all; {!Supervise.run_chunks}
    then runs the chunks sequentially on the calling domain.

    Pools are cheap enough to create per experiment but are designed to be
    reused: {!Task.map_reduce} can be called any number of times on the
    same pool, including after a job raised.

    The pool is exception-safe: a job that raises cannot kill the worker
    domain that ran it (the domain absorbs the exception and returns to
    the queue) or abort the caller-helps drain in {!run_jobs}.  Jobs are
    expected to report failures through their own channel, as the
    {!Supervise} engine does; an exception that nevertheless escapes is
    counted, not propagated.

    When {!Pan_obs.Obs} is configured, pool creation records the
    [pool.created] counter and a [pool.domains] high-water gauge, and
    {!run_jobs} counts enqueued jobs under [pool.jobs].  Absorbed job
    exceptions count under [pool.job_failures], and each worker-domain
    loop that survives one counts under [pool.worker_restarts].  These
    are engine-internal metrics: unlike the [runner.*] family they
    naturally differ between pool sizes (the sequential path never
    enqueues). *)

type t

val create : domains:int -> t
(** [create ~domains] spawns [domains - 1] worker domains.
    @raise Invalid_argument if [domains < 1]. *)

val domains : t -> int
(** Total parallelism of the pool (workers + the submitting caller). *)

val shutdown : t -> unit
(** Signal all workers to exit once the queue is drained and join them.
    Idempotent; the pool must not be used afterwards. *)

val with_pool : domains:int -> (t -> 'a) -> 'a
(** [with_pool ~domains f] runs [f] on a fresh pool and shuts it down
    afterwards, also on exception. *)

val run_jobs : t -> (unit -> unit) list -> unit
(** Low-level: enqueue jobs and help drain the queue on the calling
    domain.  Returns when the queue is empty; jobs picked up by other
    workers may still be executing, so callers must track completion
    themselves (as {!Supervise.run_chunks} does).  Jobs should report
    failures through their own channel: an exception escaping a job is
    absorbed and counted under [pool.job_failures], never propagated,
    and the executing domain stays alive.  Only one [run_jobs] may be in
    flight per pool at a time.
    @raise Invalid_argument if the pool has been shut down. *)
