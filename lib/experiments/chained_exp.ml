open Pan_topology
open Pan_numerics
open Pan_econ

type per_as = {
  asn : Asn.t;
  ma3_paths : int;
  chained4_paths : int;
  ma3_new_dests : int;
  chained4_extra_dests : int;
}

type result = { sampled : per_as list }

let run ?(sample_size = 200) ?(seed = 7) g =
  let rng = Rng.create seed in
  let all = Array.of_list (Graph.ases g) in
  let sample =
    if Array.length all <= sample_size then all
    else Rng.sample_without_replacement rng sample_size all
  in
  let c = Compact.freeze g in
  let analyze asn =
    let x = Compact.index_of_exn c asn in
    let ma3 = Path_enum_compact.ma_direct c x in
    let ma3_dests = Path_enum_compact.dest_set ma3 in
    let grc_dests = Path_enum_compact.dest_set (Path_enum_compact.grc c x) in
    let chained4_paths, chained_dests = Extension.chained_stats g asn in
    let known = Bitset.union ma3_dests grc_dests in
    Compact.iter_neighbors c x (Bitset.add known);
    {
      asn;
      ma3_paths = Path_enum_compact.total_count ma3;
      chained4_paths;
      ma3_new_dests = Bitset.cardinal (Bitset.diff ma3_dests grc_dests);
      chained4_extra_dests =
        Asn.Set.fold
          (fun z n ->
            if Bitset.mem known (Compact.index_of_exn c z) then n else n + 1)
          chained_dests 0;
    }
  in
  { sampled = Array.to_list (Array.map analyze sample) }

let run_default ?(params = Gen.default_params) ?(topology_seed = 42) () =
  let small = { params with Gen.n_transit = 100; Gen.n_stub = 400 } in
  let g = Gen.graph (Gen.generate ~params:small ~seed:topology_seed ()) in
  (g, run g)

let mean_ratio r =
  match r.sampled with
  | [] -> 0.0
  | l ->
      List.fold_left
        (fun acc pa ->
          acc
          +. (float_of_int pa.chained4_paths
             /. float_of_int (Stdlib.max 1 pa.ma3_paths)))
        0.0 l
      /. float_of_int (List.length l)

let pp fmt r =
  let arr f = Array.of_list (List.map f r.sampled) in
  let p50 xs = Stats.median (arr xs) in
  Format.fprintf fmt
    "# Agreement-path extension (§III-B3, extension experiment)@.";
  Format.fprintf fmt "%-28s %-10s@." "metric" "median";
  Format.fprintf fmt "%-28s %-10.0f@." "length-3 MA paths" (p50 (fun pa ->
      float_of_int pa.ma3_paths));
  Format.fprintf fmt "%-28s %-10.0f@." "length-4 chained paths"
    (p50 (fun pa -> float_of_int pa.chained4_paths));
  Format.fprintf fmt "%-28s %-10.0f@." "new dests (length-3 MA)"
    (p50 (fun pa -> float_of_int pa.ma3_new_dests));
  Format.fprintf fmt "%-28s %-10.0f@." "extra dests (chaining)"
    (p50 (fun pa -> float_of_int pa.chained4_extra_dests));
  Format.fprintf fmt "mean chained/direct path ratio: %.2f@." (mean_ratio r)
