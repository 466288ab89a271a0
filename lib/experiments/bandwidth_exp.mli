(** Experiment E5 — Fig. 6: bandwidth of MA-added paths under the
    degree-gravity capacity model (§VI-C). *)

open Pan_topology

val run :
  ?pool:Pan_runner.Pool.t ->
  ?retries:int ->
  ?deadline:float ->
  ?sample_size:int ->
  ?seed:int ->
  Graph.t ->
  Pair_analysis.result
(** A path is "better" when its bottleneck capacity is higher; the
    improvement metric is the relative bandwidth increase of the best MA
    path over the best GRC path.  The graph is frozen once for both the
    capacity model and {!Pair_analysis.analyze}.  Sources run on [pool];
    the result is bit-identical for any pool size.  [retries]/[deadline]
    supervise as in {!Pair_analysis.analyze}. *)

val pp : Format.formatter -> Pair_analysis.result -> unit
(** Fig. 6a and Fig. 6b tables. *)
