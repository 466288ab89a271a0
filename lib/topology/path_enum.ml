type scenario = Grc | Ma_all | Ma_direct_only | Ma_top of int

let scenario_label = function
  | Grc -> "GRC"
  | Ma_all -> "MA"
  | Ma_direct_only -> "MA*"
  | Ma_top n -> Printf.sprintf "MA* (Top %d)" n
