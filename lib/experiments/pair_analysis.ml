open Pan_topology
open Pan_numerics
module Obs = Pan_obs.Obs

type pair_counts = {
  below_max : int;
  below_median : int;
  below_min : int;
  ma_paths : int;
}

type result = { pairs : pair_counts list; improvements : float list }

let analyze ?pool ?retries ?deadline ?(sample_size = 500) ?(seed = 7)
    ~obs_prefix ~metric ~better c =
  Obs.with_span (obs_prefix ^ "/analyze") @@ fun () ->
  let rng = Rng.create seed in
  let all = Compact.asns c in
  let sample =
    if Array.length all <= sample_size then all
    else Rng.sample_without_replacement rng sample_size all
  in
  (* Orient all comparisons so that "improvement" means a smaller score. *)
  let score src mid dst =
    let v = metric src mid dst in
    match better with `Lower -> v | `Higher -> -.v
  in
  (* Per-source analysis is pure, so sources run on the pool; the per-src
     lists are concatenated in sample order below.  Destinations and mids
     are visited by ascending index, which is ascending ASN order. *)
  let analyze_src src =
    Obs.incr (obs_prefix ^ ".sources");
    let si = Compact.index_of_exn c src in
    let pairs = ref [] in
    let improvements = ref [] in
    let grc = Path_enum_compact.grc c si in
    Bitset.iter
      (fun dsti ->
        let dst = Compact.id c dsti in
        (* One per-pair answer under [Ma_all] holds the pair's GRC mids and
           its MA-added ones; a mid is GRC when its GRC row holds [dst].
           No statistic below depends on the order of the scores. *)
        let grc_scores = ref [] and ma_scores = ref [] in
        List.iter
          (fun mi ->
            let s = score src (Compact.id c mi) dst in
            match Path_enum_compact.find grc mi with
            | Some zs when Bitset.mem zs dsti -> grc_scores := s :: !grc_scores
            | _ -> ma_scores := s :: !ma_scores)
          (Path_enum_compact.pair_paths c Ma_all ~src:si ~dst:dsti);
        let grc_scores = Array.of_list !grc_scores and ma_scores = !ma_scores in
        let g_min, g_max = Stats.min_max grc_scores in
        let g_med = Stats.median grc_scores in
        let count pred = List.length (List.filter pred ma_scores) in
        let counts =
          {
            below_max = count (fun s -> s < g_max);
            below_median = count (fun s -> s < g_med);
            below_min = count (fun s -> s < g_min);
            ma_paths = List.length ma_scores;
          }
        in
        pairs := counts :: !pairs;
        Obs.incr (obs_prefix ^ ".pairs");
        Obs.incr ~by:counts.ma_paths (obs_prefix ^ ".ma_paths");
        let best_ma = List.fold_left Float.min infinity ma_scores in
        if best_ma < g_min then begin
          let improvement =
            match better with
            | `Lower -> 1.0 -. (best_ma /. g_min)
            | `Higher ->
                (* scores are negated capacities *)
                (best_ma /. g_min) -. 1.0
          in
          Obs.incr (obs_prefix ^ ".improved");
          improvements := improvement :: !improvements
        end)
      (Path_enum_compact.dest_set grc);
    (!pairs, !improvements)
  in
  let per_src =
    Pan_runner.Task.map ?pool ?retries ?deadline ~chunk:4
      ~n:(Array.length sample)
      ~f:(fun i -> analyze_src sample.(i))
      ()
  in
  let pairs, improvements =
    Array.fold_left
      (fun (ps, is) (lp, li) -> (lp @ ps, li @ is))
      ([], []) per_src
  in
  { pairs; improvements }

let fraction_where ~at_least select pairs =
  Stats.fraction_where (fun pc -> select pc >= at_least) pairs

let fraction_pairs_with result ~at_least select =
  fraction_where ~at_least select (Array.of_list result.pairs)

let improvement_cdf result =
  match result.improvements with
  | [] -> None
  | l -> Some (Stats.ecdf (Array.of_list l))

let pp_counts ~label fmt result =
  let pairs = Array.of_list result.pairs in
  Format.fprintf fmt "# %s: fraction of AS pairs with >= n better MA paths@."
    label;
  Format.fprintf fmt "%-4s %-12s %-12s %-12s %-12s@." "n" "vs_max"
    "vs_median" "vs_min" "any_MA_path";
  List.iter
    (fun n ->
      let frac select = fraction_where ~at_least:n select pairs in
      Format.fprintf fmt "%-4d %-12.3f %-12.3f %-12.3f %-12.3f@." n
        (frac (fun p -> p.below_max))
        (frac (fun p -> p.below_median))
        (frac (fun p -> p.below_min))
        (frac (fun p -> p.ma_paths)))
    [ 1; 2; 3; 4; 5; 6; 7; 8; 9; 10 ]

let pp_improvements ~label fmt result =
  match result.improvements with
  | [] -> Format.fprintf fmt "# %s: no pair improves@." label
  | l ->
      let arr = Array.of_list l in
      Format.fprintf fmt
        "# %s: relative improvement among improving pairs (%d pairs)@." label
        (Array.length arr);
      Format.fprintf fmt "%-12s %s@." "percentile" "improvement";
      List.iter
        (fun p ->
          Format.fprintf fmt "p%-11d %.3f@." p
            (Stats.percentile arr (float_of_int p)))
        [ 10; 25; 50; 75; 90 ]
