type t = { c : Compact.t; coefficient : float }

let of_compact ?(coefficient = 1.0) c =
  if coefficient <= 0.0 then invalid_arg "Bandwidth.degree_gravity";
  { c; coefficient }

let degree_gravity ?coefficient graph =
  of_compact ?coefficient (Compact.freeze graph)

let link_capacity t x y =
  match (Compact.index_of t.c x, Compact.index_of t.c y) with
  | Some i, Some j when Compact.connected t.c i j ->
      t.coefficient
      *. float_of_int (Compact.degree t.c i)
      *. float_of_int (Compact.degree t.c j)
  | _ -> raise Not_found

let path3_bandwidth t a1 a2 a3 =
  Float.min (link_capacity t a1 a2) (link_capacity t a2 a3)

let path_bandwidth t path =
  let rec go = function
    | a :: (b :: _ as rest) -> Float.min (link_capacity t a b) (go rest)
    | [ _ ] | [] -> infinity
  in
  match path with
  | _ :: _ :: _ -> go path
  | _ -> invalid_arg "Bandwidth.path_bandwidth: path shorter than 2 ASes"
