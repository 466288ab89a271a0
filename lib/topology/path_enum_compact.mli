(** Enumeration of length-3 paths and of the paths added by
    mutuality-based agreements (MAs) — the machinery behind §VI and
    Figs. 3–6 — over the frozen {!Compact} core.

    A length-3 path has 3 ASes and 2 inter-AS links; for a fixed source
    [x] it is determined by its middle AS [y] (a neighbor of [x]) and its
    destination [z] (a neighbor of [y], distinct from [x]).  Path sets are
    therefore {e mid-sets}: middle AS ↦ set of destinations reachable
    through it, over interned int indices with every destination set a
    {!Bitset}, so the unions and differences that dominate
    [scenario_paths] are word-wise array loops and sources can be
    enumerated in parallel over one shared frozen topology.  Iteration
    order is ascending by index, which equals ascending by ASN.

    Following §VI, for every pair of peers [(a, b)] the generated MA gives
    [b] access to all of [a]'s providers and peers that are not customers
    of [b], and vice versa.  An AS gains a path {e directly} by being party
    to the MA that creates it, and {e indirectly} by being the AS whose
    connectivity the MA shares (the "subject").

    Two questions are asked of it.  {!scenario_paths} answers "every
    path of a source" — one whole-source enumeration, counted under the
    [path_enum.compact] metric — for the experiments that count a
    source's paths and destinations (Figs. 3–4).  {!pair_paths} answers
    "the paths from one source to one destination" off the two
    endpoints' rows, counted under [path_enum.pair], for the path
    service and for the per-pair comparisons of Figs. 5–6, which ask it
    once for each of a source's GRC destinations. *)

type mid_sets
(** Map from middle-AS index to the bitset of destination indices, mids
    ascending. *)

val total_count : mid_sets -> int
(** Number of paths ([Σ_y |zs(y)|]); for a fixed source and destination all
    length-3 paths are disjoint, as the paper notes. *)

val dest_set : mid_sets -> Bitset.t
(** Distinct destinations ("nearby destinations" in the paper). *)

val union : mid_sets -> mid_sets -> mid_sets

val iter_sets : (int -> Bitset.t -> unit) -> mid_sets -> unit
(** Visit [(mid, destinations)] rows, mids ascending. *)

val find : mid_sets -> int -> Bitset.t option
(** Destination set of one mid (binary search). *)

val iter_paths : (mid:int -> dst:int -> unit) -> mid_sets -> unit

val grc : Compact.t -> int -> mid_sets
(** GRC-conforming length-3 paths from a source: [x - y - z] is included
    iff [z] is a customer of [y], or [y] is a provider of [x] (so [y]
    exports peer and provider routes to [x]). *)

val ma_gain : Compact.t -> int -> int -> Bitset.t
(** [ma_gain c x y]: the destinations [x] gains through an MA with its
    peer [y] — [y]'s providers and peers, excluding [x] and [x]'s
    customers. *)

val ma_direct : ?partners:Bitset.t -> Compact.t -> int -> mid_sets
(** Paths the source gains by concluding MAs with its peers (all of them,
    or only those in [partners]): [x - y - z] with [z ∈ ma_gain x y].
    These are exactly the GRC-violating length-3 paths through a peer, so
    they are disjoint from {!grc}. *)

val ma_indirect : ?concluded:(int -> int -> bool) -> Compact.t -> int ->
  mid_sets
(** Paths the source gains as the subject of other ASes' MAs: [x - y - z]
    such that the MA between peers [y] and [z] gives [z] access to [x]
    (i.e. [x] is a provider or peer of [y] and not a customer of [z]).
    [concluded y z] (default: always true) restricts which MAs are
    actually in force. *)

val ma_gain_count : Compact.t -> side:int -> via:int -> int
(** [Bitset.cardinal (ma_gain c side via)] without building the bitset:
    [up(via) − [side ∈ up(via)] − |up(via) ∩ customers(side)|] with
    [up = providers ∪ peers], the intersection walked from the shorter of
    the two rows and binary-searched in the other — O(min · log), no
    allocation.  Defined for every pair, linked or not, [side = via]
    included.  The one MA-gain count: {!top_partners} ranks with it and
    the marketplace's candidate search scores with it. *)

val top_partners : Compact.t -> n:int -> int -> int list
(** The [n] peers whose MA would directly give the source the most new
    paths ({!ma_gain_count}), best first (ties broken by index, i.e. by
    AS number).

    An exact bound-pruned scan, not a ranking of every peer: a peer [y]
    of the source [x] holds [x] in its own peer row, so
    [ma_gain_count c ~side:x ~via:y <= providers_count y + peers_count y
    - 1].  The row is walked in ascending index, at most
    [min n (peers_count x)] (gain, index) pairs are held (the best so
    far), and once that many are, a peer whose bound does not exceed
    the [n]-th held gain is skipped without counting: a later index
    with an equal gain ranks behind the held one.  The answer, ties and
    order included, is that of counting every peer and sorting.  In the
    worst case no bound prunes ([n >= peers_count x], or gains rising
    with the index) and each of the [p] peers is counted, as a full
    sort would; the held set then costs O(p log min(n, p)) on top,
    against the sort's O(p log p).
    @raise Invalid_argument if [n < 0]. *)

val economic_paths : concluded:(int -> int -> bool) -> Compact.t -> int ->
  mid_sets
(** Every length-3 path available to the source when only the MAs
    selected by [concluded] are in force: the GRC baseline plus the
    direct gains from the source's own concluded MAs plus the indirect
    gains from other ASes' concluded MAs.  [scenario_paths c Ma_all] is
    the special case [concluded = fun _ _ -> true]. *)

val scenario_paths : Compact.t -> Path_enum.scenario -> int -> mid_sets
(** Every length-3 path available to the source under the scenario (GRC
    paths are always included — they remain available). *)

val pair_paths :
  Compact.t -> Path_enum.scenario -> src:int -> dst:int -> int list
(** The middle ASes of the paths [src - mid - dst] available under the
    scenario, ascending: exactly the mids of [scenario_paths c scenario
    src] whose destination set holds [dst], and [[]] when [src = dst].
    It reads only the two endpoints' rows (plus, under [Ma_top], the
    up-rows of [src]'s peers to rank them): a mid [y] is a common
    neighbour, kept when it is a provider of [src]; when [dst] is a
    customer of [y]; when [y] is a peer of [src], [dst] a provider or
    peer of [y] and not a customer of [src], under [Ma_all],
    [Ma_direct_only], or [Ma_top n] with [y] among {!top_partners};
    and when [y] is a peer or customer of [src], [dst] a peer of [y]
    and not a provider of [src], under [Ma_all].  The walk takes the
    rows of the endpoint of smaller degree and binary-searches the
    other's: O(min(deg src, deg dst) · log), no n-bit sets. *)

