(** Deterministic K-shortest-path candidate generation over the frozen
    compact core, restricted by masks and intent constraints.

    {!k_shortest} is a Yen-style enumeration directly over the
    {!Pan_topology.Compact} CSR: paths come out in a total order —
    AS-level hop count, then forward-lexicographic on the dense index
    sequence — making the result a pure function of the frozen view and
    the restriction, byte-stable across runs and pool sizes.  The
    subgraph is restricted by a {!Pan_topology.Compact.Mask} plus an
    extra edge predicate (geo fences, required link attributes).

    A call keeps one unweighted BFS backwards from the destination over
    that subgraph with no spur's blocks applied — the labelling d0 —
    and grows it lazily, only until the node a spur asks about is
    labelled.  A spur is answered from it when its smallest-index
    allowed first hop w of least d0 is no farther from the destination
    than the spur and every root node: then no blocked node or link
    lies on a minimum-hop path from w, and the answer is the spur
    followed by the lexicographically smallest minimum-hop walk from w,
    whose steps are memoized per node for the call.  Otherwise (about
    one spur in twenty on the serve-intent drain) that spur runs its own
    BFS with its root nodes and avoided links blocked, stopping as soon
    as it labels the spur.  A walk step scans each ascending
    relationship-class row only up to its first match.

    {!generate} drives it from an {!Intent.t}: the intent's exclusions
    compose onto a caller-supplied base mask (e.g. the service's
    current downed links), the K raw candidates are then scored with
    {!Metric.score} and re-ranked by (score, hops, lexicographic) — the
    legacy [Selection] order.  Paths are AS-level connectivity walks;
    Gao-Rexford/agreement policy filtering stays in the policy layers
    above. *)

open Pan_topology

val k_shortest :
  Compact.t ->
  ?mask:Compact.Mask.mask ->
  ?edge_ok:(int -> int -> bool) ->
  ?max_hops:int ->
  src:int ->
  dst:int ->
  k:int ->
  unit ->
  int list list
(** Up to [k] simple paths (dense indices, endpoints included) in
    (hops, lex) order; fewer when the restricted subgraph has fewer.
    [edge_ok i j] is asked whether the link between [i] and [j] may be
    traversed, with the endpoints in either order, so it must be
    symmetric; without it no predicate is called.  [max_hops] bounds the
    AS count per path.  [src = dst] yields [[[src]]].  Scratch is per
    call: [k = 1] runs one early-exit search (two n-word arrays); a
    larger [k] allocates the labelling and its walk memo (three n-word
    arrays), plus one restricted search (two more) on the first spur
    the labelling cannot answer; no spur allocates more than its path
    and a scan closure.
    @raise Invalid_argument if [k < 1] or an endpoint is out of range. *)

type result = { path : Asn.t list; score : float; hops : int }

val mask_of_intent :
  ?mask:Compact.Mask.mask -> Compact.t -> Intent.t -> Compact.Mask.mask
(** The intent's AS/link exclusions composed onto [mask] (default: no
    restriction).  Exclusions naming ASes outside the topology are
    vacuous and skipped. *)

val generate :
  topo:Compact.t ->
  metric:Metric.ctx ->
  ?attrs:(Asn.t -> Asn.t -> Intent.attr list) ->
  ?mask:Compact.Mask.mask ->
  Intent.t ->
  src:Asn.t ->
  dst:Asn.t ->
  result list
(** Ranked candidates for an intent: K-shortest under the composed
    restriction, scored by the intent metric, best first.  [attrs]
    supplies per-link attributes for [require] clauses (default
    {!Intent.default_attrs}); ASes whose location is unknown to
    [metric] fall outside any geo fence.  An intent with neither a geo
    fence nor a [require] clause passes {!k_shortest} no [edge_ok].
    Records the [intent.candidates] span and [intent.candidates.paths]
    counter.
    @raise Invalid_argument on unknown endpoints or [src = dst]. *)
