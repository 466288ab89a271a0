(** Shared per-AS-pair machinery for the geodistance (Fig. 5) and bandwidth
    (Fig. 6) analyses.

    Both experiments score each (source, destination) pair connected by at
    least one GRC length-3 path: they compare the metric of every MA-added
    path against the max / median / min metric of the pair's GRC paths, and
    measure the relative improvement of the best MA path over the best GRC
    path. *)

open Pan_topology
open Pan_numerics

type pair_counts = {
  below_max : int;
      (** MA paths strictly better than the worst GRC path *)
  below_median : int;
  below_min : int;  (** MA paths strictly better than the best GRC path *)
  ma_paths : int;  (** all MA paths of the pair *)
}

type result = {
  pairs : pair_counts list;  (** one entry per analyzed AS pair *)
  improvements : float list;
      (** relative improvement of the best MA path for pairs whose best
          path improves (e.g. 0.24 = 24% geodistance reduction) *)
}

val analyze :
  ?pool:Pan_runner.Pool.t ->
  ?retries:int ->
  ?deadline:float ->
  ?sample_size:int ->
  ?seed:int ->
  obs_prefix:string ->
  metric:(Asn.t -> Asn.t -> Asn.t -> float) ->
  better:[ `Lower | `Higher ] ->
  Compact.t ->
  result
(** [metric src mid dst] scores a length-3 path; [better] says whether
    lower (geodistance) or higher (bandwidth) is preferable.  [metric]
    must be pure: source ASes are analyzed on [pool], and the result is
    bit-identical for any pool size.  [retries]/[deadline] supervise the
    source chunks as in {!Pan_runner.Task.map}.

    For each of a sampled source's GRC destinations, ascending, one
    {!Path_enum_compact.pair_paths} call under [Ma_all] gives the pair's
    mids; those whose GRC row holds the destination are its GRC paths,
    the rest its MA-added paths.  No n-bit set is built per destination.

    When {!Pan_obs.Obs} is configured, the analysis records the counters
    [<obs_prefix>.sources], [.pairs], [.ma_paths] and [.improved] (Fig. 5
    uses ["fig5"], Fig. 6 ["fig6"]) under a [<obs_prefix>/analyze] span,
    and [path_enum.pair] once per analyzed pair. *)

val fraction_pairs_with : result -> at_least:int -> (pair_counts -> int) -> float
(** Fraction of pairs whose selected counter is at least [at_least] — the
    way the paper reads Fig. 5a/6a ("around 50% of AS pairs gain at least
    1 path below the minimum"). *)

val improvement_cdf : result -> Stats.cdf option
(** CDF over relevant pairs of the relative improvement (Fig. 5b/6b);
    [None] when no pair improves. *)

val pp_counts :
  label:string -> Format.formatter -> result -> unit
(** The Fig. 5a/6a table: fractions of pairs with ≥ n paths satisfying
    each comparison condition, for n in 1..10, all read from one array
    of the pairs. *)

val pp_improvements : label:string -> Format.formatter -> result -> unit
(** The Fig. 5b/6b table: percentiles of relative improvement. *)
