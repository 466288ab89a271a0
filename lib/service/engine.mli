(** Resident path-query engine: one frozen {!Pan_topology.Compact}
    topology, a per-pair memoized path store, and live link churn.

    The engine answers [(src, dst, policy)] queries — "how many length-3
    paths, and through which middle ASes, does [src] have to [dst] under
    this agreement scenario?" — from one memo layer, the {e path store}
    keyed by [(src, dst, policy)] ([store_hits] / [store_misses] count
    here).  A miss is answered per pair by
    {!Pan_topology.Path_enum_compact.pair_paths}, off the rows of the two
    endpoints: no source's paths to every destination are built, because
    no caller asks one source for many destinations between
    invalidations.

    On a {!event} the topology is updated and every store entry whose
    source could be affected is dropped.  An answer for [(x, z)] reads
    [x]'s rows, the links between [x]'s neighbours and [z], and, under
    [Ma_top], the up-rows of [x]'s peers: every link it reads has an
    endpoint in [{x} ∪ N(x)].  So flipping link [(a, b)] can only change
    the answers of the sources [{a, b} ∪ N(a) ∪ N(b)] (neighborhoods
    taken both before and after the flip) — everything else keeps its
    entries (DESIGN §6f).  The churn-equivalence suite
    ([test/test_serve.ml]) checks this invalidation is not just sound
    but gives answers identical to a cold engine and to the whole-source
    enumeration.

    Every batch of events is validated and spliced by
    {!Pan_topology.Compact.Delta.apply_batch} (the incremental freeze);
    the engine itself only invalidates.  In [Refreeze] {!mode} the
    engine then installs {!refreeze} instead of the splice: thaw the
    pre-batch view, apply the events to the {!Graph.t} and re-freeze it
    from scratch.  Both maintain the same answers; {!refreeze} is the
    correctness oracle the splice is checked against, byte-for-byte via
    {!Pan_topology.Compact.Snapshot.to_string}.  Neither keeps a mutable
    graph between events: the engine holds only the frozen view and its
    stores.

    When {!Pan_obs.Obs} is configured the engine records [serve.queries],
    [serve.store_hits], [serve.store_misses], [serve.events],
    [serve.invalidations] counters and a [serve.query] latency
    histogram; every policy-store miss adds one [path_enum.pair]. *)

open Pan_topology

(** The link-edit types of {!Compact.Delta}, re-exported with the same
    constructors: an event is a Delta edit, and {!apply_batch} hands a
    batch to {!Compact.Delta.apply_batch} unconverted. *)
type link = Compact.Delta.link =
  | Peer of int * int  (** endpoints as dense indices, either order *)
  | Transit of { provider : int; customer : int }

type event = Compact.Delta.edit = Link_up of link | Link_down of link

type mode =
  | Incremental  (** row splice per batch ({!Compact.Delta}) *)
  | Refreeze
      (** {!Compact.freeze} of the thawed, edited view per batch, after
          the same Delta validation — the oracle *)

type stats = {
  queries : int;
  store_hits : int;
  store_misses : int;
  events : int;
  invalidated : int;  (** store entries dropped by churn, cumulative *)
}

type t

val create : ?mode:mode -> Compact.t -> t
(** Start an engine on a frozen topology ([mode] defaults to
    [Incremental]); snapshot-loaded topologies work unchanged, and a
    {!Graph.t} is served as [create (Compact.freeze g)].  The intent
    metric environment (a synthetic geo embedding, seed 43) is built
    lazily on the first {!intent_query}, so engines serving only policy
    queries never build it. *)

val topology : t -> Compact.t
(** The {e current} frozen view — a new value after every event. *)

val stats : t -> stats

val query : t -> src:int -> dst:int -> policy:Path_enum.scenario -> int list
(** Middle-AS indices of every length-3 path [src - mid - dst] available
    under [policy], ascending; for a fixed pair each mid is one path, so
    the path count is the list length.  Served from the store when
    possible.
    @raise Invalid_argument on an out-of-range index; the message names
    the entry point ([Engine.query: index 9 outside [0, 5)]), as for
    every query function below. *)

val query_uncached :
  t -> src:int -> dst:int -> policy:Path_enum.scenario -> int list
(** Recompute from the current topology, bypassing and not touching the
    store — the equivalence baseline for it.  The same
    {!Pan_topology.Path_enum_compact.pair_paths} call a store miss
    makes; the tests check both against the whole-source
    {!Pan_topology.Path_enum_compact.scenario_paths}. *)

val intent_query :
  t -> src:int -> dst:int -> Pan_intent.Intent.t -> Pan_intent.Candidates.result list
(** Ranked K-shortest candidates for an intent over the {e current}
    topology, memoized under [(src, dst, canonical spec)].  Scoring uses
    a metric environment pinned to the creation-time topology (synthetic
    geo embedding from seed 43, degree-gravity capacities from
    creation-time degrees; churn-added links fall back to endpoint
    midpoints and the same degree product), so cached answers are
    invalidated by path-set changes only.  A link-down drops exactly the
    entries whose cached paths traverse the link: removing a link only
    deletes paths, so the rest keep their top K.  A link-up [(a, b)]
    drops only the entries a path through the new link could enter.
    Such a path has at least [m + 2] ASes, where [m] is
    [min(d(src, a) + d(b, dst), d(src, b) + d(a, dst))] and [d] the hop
    distance on the post-batch core, because both of its halves are
    paths of that core.  An entry holding K candidates, the longest of
    [h] ASes, stays if [m + 2 > h]; strictly, because a new path of [h]
    ASes can still win on lex order.  An entry with fewer than K
    candidates holds every path the intent admits, so it stays only if
    [m + 2] exceeds the intent's [max-hops], or if the link cannot join
    [src] to [dst] at all.  The engine runs these two BFS per link-up
    only while the intent store holds entries.  Both rules count into
    [stats.invalidated].  Hits and misses share the policy store's
    counters.
    @raise Invalid_argument on an out-of-range index or [src = dst]. *)

val intent_query_uncached :
  t -> src:int -> dst:int -> Pan_intent.Intent.t -> Pan_intent.Candidates.result list
(** Recompute from the current topology, bypassing the intent store —
    the equivalence baseline for intent memo/invalidation. *)

val prefill :
  ?pool:Pan_runner.Pool.t -> t -> (int * Path_enum.scenario) list -> unit
(** Does nothing.  Kept only so the repository benchmark, which calls
    it before each run of queries, compiles; there is no per-source
    state left to fill.  To be removed with that call. *)

val apply : t -> event -> int
(** Apply one churn event: update the frozen view (per {!mode}), drop
    affected store entries.  Returns the number of path-store entries
    invalidated.  Equivalent to [apply_batch t [ev]] (and implemented as
    such).
    @raise Invalid_argument ["Engine.apply: "] followed by
    {!Compact.Delta.apply_batch}'s reason if the event is not
    applicable: link already present on [Link_up], absent (or of the
    other class) on [Link_down], out-of-range index, or self-link. *)

val apply_batch : t -> event list -> int
(** Apply N churn events with the sequential semantics of folding
    {!apply} left-to-right — later events see the effect of earlier
    ones, and the resulting topology and memo state are identical — but
    in one pass: one {!Compact.Delta.apply_batch} validation and splice
    for the whole batch (whose result [Refreeze] replaces with one thaw,
    edit and {!Compact.freeze}), then one memo-invalidation sweep over
    the union of affected sources.  The marketplace epoch loop applies
    each epoch's signed agreements this way.  Returns the total number
    of store entries invalidated.  Unlike the sequential fold,
    validation of the whole batch happens {e before} any mutation: on
    raise, the engine is unchanged.
    @raise Invalid_argument as {!apply}, against the state left by the
    earlier events of the batch. *)

val refreeze : Compact.t -> event list -> Compact.t
(** [refreeze pre evs]: the core [pre] thawed, the events applied in
    order to the {!Graph.t}, frozen from scratch — what [Refreeze] mode
    installs, and the oracle [serve --oracle] and [market --oracle]
    compare the primary engine's post-batch core against.  [evs] must
    apply in sequence to [pre], as {!apply_batch} validates; [refreeze]
    itself does not check them, and no [serve.*] counter moves. *)
