(* Integration tests: the experiment pipelines produce results whose
   shape matches the paper's qualitative claims (at reduced scale). *)

open Pan_topology
open Pan_experiments

let small_params =
  { Gen.default_params with Gen.n_transit = 80; Gen.n_stub = 320 }

let small_graph = lazy (Gen.graph (Gen.generate ~params:small_params ~seed:42 ()))

(* ------------------------------------------------------------------ *)
(* E1 / Fig. 2                                                         *)

let test_fig2_shape () =
  let series =
    Fig2_pod.run ~ws:[ 2; 30 ] ~trials:15 ~seed:5 ~label:"U(1)" Fig2_pod.u1
  in
  match series.Fig2_pod.points with
  | [ p2; p30 ] ->
      Alcotest.(check bool) "PoD decreases with W" true
        (p30.Fig2_pod.mean_pod < p2.Fig2_pod.mean_pod);
      Alcotest.(check bool) "PoD in [0,1]" true
        (p2.Fig2_pod.mean_pod >= 0.0 && p2.Fig2_pod.mean_pod <= 1.0);
      Alcotest.(check bool) "min <= mean" true
        (p30.Fig2_pod.min_pod <= p30.Fig2_pod.mean_pod);
      (* the paper observes ~4 equilibrium choices at large W *)
      Alcotest.(check bool) "equilibrium choices small" true
        (p30.Fig2_pod.mean_equilibrium_choices < 8.0)
  | _ -> Alcotest.fail "expected two points"

(* ------------------------------------------------------------------ *)
(* E2/E3/E6 / Figs. 3-4                                                *)

let diversity_result =
  lazy (Diversity.analyze ~sample_size:150 ~seed:7 (Lazy.force small_graph))

let per_as_total scenario extract =
  let r = Lazy.force diversity_result in
  List.fold_left
    (fun acc pa ->
      match List.assoc_opt scenario (extract pa) with
      | Some n -> acc + n
      | None -> Alcotest.fail "missing scenario")
    0 r.Diversity.sampled

let test_fig3_ordering () =
  let paths s = per_as_total s (fun pa -> pa.Diversity.paths) in
  let grc = paths Path_enum.Grc in
  let top1 = paths (Path_enum.Ma_top 1) in
  let top5 = paths (Path_enum.Ma_top 5) in
  let direct = paths Path_enum.Ma_direct_only in
  let all = paths Path_enum.Ma_all in
  Alcotest.(check bool) "GRC <= Top1" true (grc <= top1);
  Alcotest.(check bool) "Top1 <= Top5" true (top1 <= top5);
  Alcotest.(check bool) "Top5 <= MA*" true (top5 <= direct);
  Alcotest.(check bool) "MA* <= MA" true (direct <= all);
  Alcotest.(check bool) "MA adds substantially" true
    (all > grc + (grc / 2))

let test_fig3_ma_star_close_to_ma () =
  (* "most additional MA paths are directly gained" *)
  let paths s = per_as_total s (fun pa -> pa.Diversity.paths) in
  let grc = paths Path_enum.Grc in
  let direct = paths Path_enum.Ma_direct_only in
  let all = paths Path_enum.Ma_all in
  let direct_gain = float_of_int (direct - grc) in
  let all_gain = float_of_int (all - grc) in
  Alcotest.(check bool) "directly gained dominate" true
    (direct_gain >= 0.7 *. all_gain)

let test_fig4_destinations_grow () =
  let dests s = per_as_total s (fun pa -> pa.Diversity.destinations) in
  Alcotest.(check bool) "MA reaches more destinations" true
    (dests Path_enum.Ma_all > dests Path_enum.Grc)

let test_aggregate_stats_positive () =
  let agg = Diversity.aggregate_stats (Lazy.force diversity_result) in
  Alcotest.(check bool) "positive path gains" true
    (agg.Diversity.avg_additional_paths > 0.0);
  Alcotest.(check bool) "max >= avg" true
    (float_of_int agg.Diversity.max_additional_paths
    >= agg.Diversity.avg_additional_paths);
  Alcotest.(check bool) "positive destination gains" true
    (agg.Diversity.avg_additional_destinations > 0.0)

let test_cdfs_consistent () =
  let r = Lazy.force diversity_result in
  let cdf = Diversity.paths_cdf r Path_enum.Grc in
  (* CDF evaluated above the maximum must be 1 *)
  Alcotest.(check (float 1e-9)) "cdf at infinity" 1.0
    (Pan_numerics.Stats.cdf_at cdf infinity)

(* ------------------------------------------------------------------ *)
(* E4/E5 / Figs. 5-6                                                   *)

let test_fig5_shape () =
  let g = Lazy.force small_graph in
  let r = Geodistance.run ~sample_size:100 ~seed:7 g in
  (* counting conditions nest: below_min <= below_median <= below_max *)
  List.iter
    (fun (pc : Pair_analysis.pair_counts) ->
      Alcotest.(check bool) "nesting" true
        (pc.Pair_analysis.below_min <= pc.Pair_analysis.below_median
        && pc.Pair_analysis.below_median <= pc.Pair_analysis.below_max
        && pc.Pair_analysis.below_max <= pc.Pair_analysis.ma_paths))
    r.Pair_analysis.pairs;
  (* improvements are relative reductions in (0, 1] *)
  List.iter
    (fun i ->
      Alcotest.(check bool) "reduction in (0,1]" true (i > 0.0 && i <= 1.0))
    r.Pair_analysis.improvements;
  (* some pairs do improve on this topology *)
  Alcotest.(check bool) "some improving pairs" true
    (r.Pair_analysis.improvements <> [])

let test_fig6_shape () =
  let g = Lazy.force small_graph in
  let r = Bandwidth_exp.run ~sample_size:100 ~seed:7 g in
  List.iter
    (fun i -> Alcotest.(check bool) "increase positive" true (i > 0.0))
    r.Pair_analysis.improvements;
  Alcotest.(check bool) "some pairs gain bandwidth" true
    (Pair_analysis.fraction_pairs_with r ~at_least:1 (fun p ->
         p.Pair_analysis.below_min)
    > 0.0)

let test_fraction_pairs_monotone_in_n () =
  let g = Lazy.force small_graph in
  let r = Geodistance.run ~sample_size:60 ~seed:7 g in
  let f n =
    Pair_analysis.fraction_pairs_with r ~at_least:n (fun p ->
        p.Pair_analysis.below_max)
  in
  Alcotest.(check bool) "decreasing in n" true (f 1 >= f 3 && f 3 >= f 8)

let test_improvement_cdf () =
  let g = Lazy.force small_graph in
  let r = Geodistance.run ~sample_size:60 ~seed:7 g in
  match Pair_analysis.improvement_cdf r with
  | None -> Alcotest.fail "expected improving pairs"
  | Some cdf ->
      Alcotest.(check (float 1e-9)) "cdf complete" 1.0
        (Pan_numerics.Stats.cdf_at cdf 1.0)

(* The whole-source analysis, independent of the per-pair one under
   test: each source's GRC paths and its MA-added paths (Ma_all minus
   GRC) from the ASN-set oracle, each inverted to destination -> mids,
   every GRC destination scored from the two inversions.  Pairs and
   improvements accumulate in the order [Pair_analysis] documents:
   sources in ascending order, each source's destinations ascending,
   every list built by consing. *)
module Legacy = Pan_oracle.Path_enum_legacy

let inversions g =
  List.map
    (fun src ->
      ( src,
        Legacy.by_destination (Legacy.grc g src),
        Legacy.by_destination (Legacy.additional_paths g Legacy.Ma_all src) ))
    (Graph.ases g)

let reference_analysis ~metric ~better inversions =
  let score src mid dst =
    let v = metric src mid dst in
    match better with `Lower -> v | `Higher -> -.v
  in
  let per_src (src, grc, ma) =
    Asn.Map.fold
      (fun dst grc_mids (pairs, improvements) ->
        let scores mids =
          List.map (fun mid -> score src mid dst) (Asn.Set.elements mids)
        in
        let grc_scores = Array.of_list (scores grc_mids) in
        let g_min, g_max = Pan_numerics.Stats.min_max grc_scores in
        let g_med = Pan_numerics.Stats.median grc_scores in
        let ma_scores =
          match Asn.Map.find_opt dst ma with
          | Some mids -> scores mids
          | None -> []
        in
        let count pred = List.length (List.filter pred ma_scores) in
        let pc =
          {
            Pair_analysis.below_max = count (fun s -> s < g_max);
            below_median = count (fun s -> s < g_med);
            below_min = count (fun s -> s < g_min);
            ma_paths = List.length ma_scores;
          }
        in
        let best_ma = List.fold_left Float.min infinity ma_scores in
        let improvements =
          if ma_scores <> [] && best_ma < g_min then
            (match better with
            | `Lower -> 1.0 -. (best_ma /. g_min)
            | `Higher -> (best_ma /. g_min) -. 1.0)
            :: improvements
          else improvements
        in
        (pc :: pairs, improvements))
      grc ([], [])
  in
  List.fold_left
    (fun (ps, is) inv ->
      let lp, li = per_src inv in
      (lp @ ps, li @ is))
    ([], []) inversions

(* Small Gen graphs of 20-300 ASes with 0-6 route-server hubs (a hub
   makes some rows long, so both walk directions of [pair_paths] run),
   every source sampled, under a lower-is-better and a higher-is-better
   metric. *)
let qcheck_pair_analysis_reference =
  QCheck.Test.make ~count:32
    ~name:"Pair_analysis = whole-source inversion reference"
    QCheck.(triple (int_range 1 1000) (int_range 20 300) (int_range 0 6))
    (fun (seed, size, hubs) ->
      let n_tier1 = max 1 (min 12 (size / 20)) and n_transit = size / 5 in
      let params =
        {
          Gen.default_params with
          Gen.n_tier1;
          n_transit;
          n_stub = size - n_tier1 - n_transit;
          route_server_hubs = hubs;
        }
      in
      let g = Gen.graph (Gen.generate ~params ~seed ()) in
      let c = Compact.freeze g in
      let inv = inversions g in
      let bits = List.map Int64.bits_of_float in
      List.for_all
        (fun (metric, better) ->
          let got =
            Pair_analysis.analyze ~sample_size:size ~obs_prefix:"test" ~metric
              ~better c
          in
          let pairs, improvements = reference_analysis ~metric ~better inv in
          got.Pair_analysis.pairs = pairs
          && bits got.Pair_analysis.improvements = bits improvements)
        [
          (Geo.path3_geodistance (Geo.of_compact ~seed:11 c), `Lower);
          (Bandwidth.path3_bandwidth (Bandwidth.of_compact c), `Higher);
        ])

(* ------------------------------------------------------------------ *)
(* E7 gadgets                                                          *)

let test_gadget_report () =
  let r = Gadget_exp.run () in
  let find name =
    List.find (fun (c : Gadget_exp.bgp_case) -> c.Gadget_exp.name = name) r.Gadget_exp.bgp
  in
  (match (find "BAD GADGET").Gadget_exp.outcome with
  | Pan_routing.Bgp.Oscillation _ -> ()
  | _ -> Alcotest.fail "BAD GADGET must oscillate");
  Alcotest.(check int) "bad gadget has no stable state" 0
    (find "BAD GADGET").Gadget_exp.stable_solutions;
  Alcotest.(check bool) "DISAGREE non-deterministic" false
    (find "DISAGREE").Gadget_exp.deterministic;
  (* every PAN case delivered loop-free *)
  List.iter
    (fun (c : Gadget_exp.pan_case) ->
      Alcotest.(check bool) "delivered" true c.Gadget_exp.delivered;
      Alcotest.(check bool) "loop-free" true c.Gadget_exp.loop_free)
    r.Gadget_exp.pan

(* ------------------------------------------------------------------ *)
(* E8 methods                                                          *)

let test_methods_report () =
  let r = Methods_exp.run ~scenarios:30 ~seed:3 () in
  Alcotest.(check int) "all scenarios accounted" 30 r.Methods_exp.scenarios;
  Alcotest.(check bool) "cash concludes at least as often" true
    (r.Methods_exp.cash_concluded >= r.Methods_exp.cash_only);
  Alcotest.(check bool) "some cash-only cases (flexibility, §IV-C)" true
    (r.Methods_exp.cash_only > 0)

let suite =
  [
    Alcotest.test_case "fig2 shape" `Slow test_fig2_shape;
    Alcotest.test_case "fig3 scenario ordering" `Quick test_fig3_ordering;
    Alcotest.test_case "fig3 MA* close to MA" `Quick
      test_fig3_ma_star_close_to_ma;
    Alcotest.test_case "fig4 destinations grow" `Quick
      test_fig4_destinations_grow;
    Alcotest.test_case "aggregate stats" `Quick test_aggregate_stats_positive;
    Alcotest.test_case "cdfs consistent" `Quick test_cdfs_consistent;
    Alcotest.test_case "fig5 shape" `Quick test_fig5_shape;
    Alcotest.test_case "fig6 shape" `Quick test_fig6_shape;
    Alcotest.test_case "pair fractions monotone" `Quick
      test_fraction_pairs_monotone_in_n;
    Alcotest.test_case "improvement cdf" `Quick test_improvement_cdf;
    QCheck_alcotest.to_alcotest qcheck_pair_analysis_reference;
    Alcotest.test_case "gadget report" `Quick test_gadget_report;
    Alcotest.test_case "methods report" `Slow test_methods_report;
  ]
