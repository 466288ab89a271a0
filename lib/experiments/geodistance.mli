(** Experiment E4 — Fig. 5: geodistance of MA-added paths.

    AS geolocations come from the synthetic embedding of
    {!Pan_topology.Geo} (standing in for prefix2as + GeoLite2 + the CAIDA
    geographic dataset); path geodistance follows the paper's
    [d(A1,l12) + d(l12,l23) + d(l23,A3)] decomposition. *)

open Pan_topology

val run :
  ?pool:Pan_runner.Pool.t ->
  ?retries:int ->
  ?deadline:float ->
  ?sample_size:int ->
  ?seed:int ->
  Graph.t ->
  Pair_analysis.result
(** Analyze all pairs with a GRC length-3 path among [sample_size]
    sampled sources (defaults 500 / seed 7) under the geo embedding of
    seed 11.  The graph is frozen once for both the embedding and
    {!Pair_analysis.analyze}.  Sources run on [pool]; the result is
    bit-identical for any pool size.  [retries]/[deadline] supervise as
    in {!Pair_analysis.analyze}. *)

val pp : Format.formatter -> Pair_analysis.result -> unit
(** Fig. 5a and Fig. 5b tables. *)
