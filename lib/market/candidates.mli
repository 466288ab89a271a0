(** MA candidate enumeration over the frozen core.

    A marketplace epoch starts from the current {!Pan_topology.Compact}
    view and asks: which {e unconnected} AS pairs would gain new
    destinations from a mutuality agreement?  Candidates live in the
    2-hop neighborhood (an MA is only useful between ASes that can
    actually interconnect through a shared neighbor's facilities, and it
    keeps the pair universe near-linear instead of quadratic); the gain
    of each side is the §VI mutuality count — the counterparty's
    providers and peers that are not already customers of the gaining
    side — is {!Pan_topology.Path_enum_compact.ma_gain_count}, computed
    on the CSR rows without materializing the
    {!Pan_topology.Path_enum_compact.ma_gain} bitsets.

    Only the best [max_candidates] pairs are wanted, so enumeration is a
    bound-pruned search rather than a scan: through [y], side [x] gains
    at most [up(y) = |providers(y)| + |peers(y)|] destinations, and the
    search visits pairs in falling order of [up(x) + up(y)], stopping
    once that bound drops strictly below the current K-th total.  It is
    sequential, pure over the immutable frozen view, and exact: the
    result equals sorting every qualifying 2-hop pair and truncating
    (pinned against that scan in [test_market]). *)

open Pan_topology

type t = {
  x : int;  (** dense index, [x < y] *)
  y : int;
  gain_x : int;  (** new destinations [x] gains via [y] *)
  gain_y : int;
}

val gains : Compact.t -> int -> int -> int * int
(** [(gain_x, gain_y)] of the pair:
    {!Pan_topology.Path_enum_compact.ma_gain_count} both ways, the exact
    per-side cardinalities of the MA gain sets. *)

val compare_candidates : t -> t -> int
(** Total gain descending, ties broken by ascending [(x, y)] — the order
    {!enumerate} ranks under.  The gain sum saturates at
    [max_int]/[min_int] instead of wrapping, so the order stays total
    (antisymmetric, transitive) even for adversarial gain counts;
    saturated ties fall back to the pair order.  Pinned by a qcheck
    regression in [test_market]. *)

val enumerate : ?min_gain:int -> ?max_candidates:int -> Compact.t -> t array
(** The best [max_candidates] (default 4096) unconnected 2-hop pairs
    whose sides both gain at least [min_gain] (default 1) destinations,
    ordered by {!compare_candidates}: exactly the first [max_candidates]
    of all such pairs in that order.  Signing a candidate connects the
    pair, which removes it from — and generally reshapes — the next
    epoch's enumeration.

    Runs under the [market/enumerate] span.  The counter
    [market.candidates.enumerated] grows by the number of pairs whose
    gains the search evaluated (unconnected pairs that survived the
    bound), [market.candidates.kept] by the length of the result.
    @raise Invalid_argument if [min_gain < 1] or [max_candidates < 0]. *)
