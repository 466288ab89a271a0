(* A source's top-n MA partners by full sort: count the MA gain through
   every peer, sort by gain descending then index ascending, and keep the
   first n.  This is the score-everything-then-sort ranking that
   [Path_enum_compact.top_partners]' bound-pruned scan replaces; the two
   must return equal lists (test_compact.ml). *)

open Pan_topology

let top_partners c ~n x =
  if n < 0 then invalid_arg "Top_partners_reference.top_partners: n < 0";
  let scored = ref [] in
  Compact.iter_peers c x (fun y ->
      scored := (Path_enum_compact.ma_gain_count c ~side:x ~via:y, y) :: !scored);
  let sorted =
    List.sort
      (fun (c1, y1) (c2, y2) ->
        match compare c2 c1 with 0 -> compare y1 y2 | c -> c)
      !scored
  in
  List.filteri (fun i _ -> i < n) sorted |> List.map snd
