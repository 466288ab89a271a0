open Pan_topology

let run ?pool ?retries ?deadline ?(sample_size = 500) ?(seed = 7) g =
  (* One freeze serves both the capacity model and the pair analysis. *)
  let c = Compact.freeze g in
  let bw =
    Pan_obs.Obs.with_span "fig6/bw_model" (fun () -> Bandwidth.of_compact c)
  in
  Pair_analysis.analyze ?pool ?retries ?deadline ~sample_size ~seed
    ~obs_prefix:"fig6" ~metric:(Bandwidth.path3_bandwidth bw) ~better:`Higher
    c

let pp fmt result =
  Pair_analysis.pp_counts ~label:"Fig.6a bandwidth" fmt result;
  Pair_analysis.pp_improvements ~label:"Fig.6b bandwidth increase" fmt result
