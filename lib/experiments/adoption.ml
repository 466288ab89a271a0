open Pan_topology
open Pan_numerics
open Pan_econ

type negotiation = {
  x : Asn.t;
  y : Asn.t;
  joint_utility : float;
  concluded : bool;
}

type per_as = {
  asn : Asn.t;
  grc_paths : int;
  economic_paths : int;
  all_ma_paths : int;
  grc_dests : int;
  economic_dests : int;
  all_ma_dests : int;
}

type result = {
  pairs_evaluated : int;
  concluded : (Asn.t * Asn.t) list;
  adoption_rate : float;
  mean_joint_utility : float;
  sampled : per_as list;
}

let negotiate_pair_with ~max_demands ~seed g x y =
  let rng =
    Rng.create
      (Hashtbl.hash (seed, Asn.to_int x, Asn.to_int y, "pair"))
  in
  let scenario =
    Scenario_gen.ma_scenario ~key:"biz" ~seed ~rng ~max_demands
      (Graph.view g) (Agreement.mutuality g x y)
  in
  if Traffic_model.demands scenario = [] then
    { x; y; joint_utility = 0.0; concluded = false }
  else
    let r = Cash_opt.optimize scenario in
    {
      x;
      y;
      joint_utility = r.Cash_opt.u_x +. r.Cash_opt.u_y;
      concluded = r.Cash_opt.concluded;
    }

let negotiate_pair ~seed g x y = negotiate_pair_with ~max_demands:3 ~seed g x y

let run ?(sample_size = 300) ?(max_demands = 3) ?(seed = 17) g =
  let negotiations =
    Graph.fold_peering_links
      (fun x y acc -> negotiate_pair_with ~max_demands ~seed g x y :: acc)
      g []
  in
  let concluded =
    List.filter_map
      (fun (n : negotiation) -> if n.concluded then Some (n.x, n.y) else None)
      negotiations
  in
  let concluded_set =
    List.fold_left
      (fun acc (x, y) ->
        let key (a, b) = if Asn.compare a b <= 0 then (a, b) else (b, a) in
        let k = key (x, y) in
        Hashtbl.replace acc k ();
        acc)
      (Hashtbl.create 4096) concluded
  in
  let is_concluded a b =
    let k = if Asn.compare a b <= 0 then (a, b) else (b, a) in
    Hashtbl.mem concluded_set k
  in
  let joint_sum =
    List.fold_left
      (fun acc (n : negotiation) ->
        if n.concluded then acc +. n.joint_utility else acc)
      0.0 negotiations
  in
  let rng = Rng.create seed in
  let all = Array.of_list (Graph.ases g) in
  let sample =
    if Array.length all <= sample_size then all
    else Rng.sample_without_replacement rng sample_size all
  in
  let c = Compact.freeze g in
  let in_force y z = is_concluded (Compact.id c y) (Compact.id c z) in
  let analyze asn =
    let x = Compact.index_of_exn c asn in
    let grc = Path_enum_compact.grc c x in
    let economic = Path_enum_compact.economic_paths ~concluded:in_force c x in
    let all_ma = Path_enum_compact.scenario_paths c Path_enum.Ma_all x in
    let dests m = Bitset.cardinal (Path_enum_compact.dest_set m) in
    {
      asn;
      grc_paths = Path_enum_compact.total_count grc;
      economic_paths = Path_enum_compact.total_count economic;
      all_ma_paths = Path_enum_compact.total_count all_ma;
      grc_dests = dests grc;
      economic_dests = dests economic;
      all_ma_dests = dests all_ma;
    }
  in
  {
    pairs_evaluated = List.length negotiations;
    concluded;
    adoption_rate =
      (if negotiations = [] then 0.0
       else
         float_of_int (List.length concluded)
         /. float_of_int (List.length negotiations));
    mean_joint_utility =
      (if concluded = [] then 0.0
       else joint_sum /. float_of_int (List.length concluded));
    sampled = Array.to_list (Array.map analyze sample);
  }

let pp fmt r =
  Format.fprintf fmt
    "# Economic MA adoption (extension): %d peering pairs negotiated@."
    r.pairs_evaluated;
  Format.fprintf fmt "adopted: %d (%.1f%%), mean joint utility %.2f@."
    (List.length r.concluded)
    (100.0 *. r.adoption_rate)
    r.mean_joint_utility;
  let med f =
    Pan_numerics.Stats.median
      (Array.of_list (List.map (fun pa -> float_of_int (f pa)) r.sampled))
  in
  Format.fprintf fmt "%-22s %-10s %-12s %s@." "median per AS" "GRC"
    "economic" "all-MA";
  Format.fprintf fmt "%-22s %-10.0f %-12.0f %.0f@." "length-3 paths"
    (med (fun pa -> pa.grc_paths))
    (med (fun pa -> pa.economic_paths))
    (med (fun pa -> pa.all_ma_paths));
  Format.fprintf fmt "%-22s %-10.0f %-12.0f %.0f@." "destinations"
    (med (fun pa -> pa.grc_dests))
    (med (fun pa -> pa.economic_dests))
    (med (fun pa -> pa.all_ma_dests))
