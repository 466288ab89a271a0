open Pan_topology

let run ?pool ?retries ?deadline ?(sample_size = 500) ?(seed = 7) g =
  (* One freeze serves both the geo embedding and the pair analysis. *)
  let c = Compact.freeze g in
  let geo =
    Pan_obs.Obs.with_span "fig5/geo_model" (fun () ->
        Geo.of_compact ~seed:11 c)
  in
  Pair_analysis.analyze ?pool ?retries ?deadline ~sample_size ~seed
    ~obs_prefix:"fig5" ~metric:(Geo.path3_geodistance geo) ~better:`Lower c

let pp fmt result =
  Pair_analysis.pp_counts ~label:"Fig.5a geodistance" fmt result;
  Pair_analysis.pp_improvements ~label:"Fig.5b geodistance reduction" fmt
    result
