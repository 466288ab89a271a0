(* The ASN-set length-3 path enumerator: the §VI path algebra over
   [Asn.Set.t Asn.Map.t] mid-sets, straight from the paper's
   definitions.  [Path_enum_compact] is pinned element-for-element equal
   to it (test_compact.ml); [to_mid_sets] converts compact results into
   this representation for the comparison. *)

open Pan_topology

type scenario = Path_enum.scenario =
  | Grc
  | Ma_all
  | Ma_direct_only
  | Ma_top of int

type mid_sets = Asn.Set.t Asn.Map.t
(* Middle AS [y] -> destinations [z] of the paths [x - y - z] of an
   implicit source [x]. *)

let total_count m =
  Asn.Map.fold (fun _ zs acc -> acc + Asn.Set.cardinal zs) m 0

let dest_set m =
  Asn.Map.fold (fun _ zs acc -> Asn.Set.union zs acc) m Asn.Set.empty

let add_set mid zs m =
  if Asn.Set.is_empty zs then m
  else
    Asn.Map.update mid
      (function
        | None -> Some zs | Some existing -> Some (Asn.Set.union existing zs))
      m

let union a b = Asn.Map.fold add_set b a

let diff a b =
  Asn.Map.filter_map
    (fun mid zs ->
      let zs' =
        match Asn.Map.find_opt mid b with
        | None -> zs
        | Some other -> Asn.Set.diff zs other
      in
      if Asn.Set.is_empty zs' then None else Some zs')
    a

let by_destination m =
  Asn.Map.fold
    (fun mid zs acc ->
      Asn.Set.fold (fun z acc -> add_set z (Asn.Set.singleton mid) acc) zs acc)
    m Asn.Map.empty

let iter_paths f m =
  Asn.Map.iter (fun mid zs -> Asn.Set.iter (fun dst -> f ~mid ~dst) zs) m

let grc g x =
  let from_neighbor y acc =
    (* Customer routes are exported to every neighbor. *)
    let zs = Asn.Set.remove x (Graph.customers g y) in
    (* Peer and provider routes are exported to customers only. *)
    let zs =
      if Asn.Set.mem y (Graph.providers g x) then
        Asn.Set.remove x
          (Asn.Set.union zs
             (Asn.Set.union (Graph.peers g y) (Graph.providers g y)))
      else zs
    in
    add_set y zs acc
  in
  Asn.Set.fold from_neighbor (Graph.neighbors g x) Asn.Map.empty

(* Destinations AS [x] gains through an MA with its peer [y]: y's providers
   and peers, excluding x itself and x's customers (§VI). *)
let ma_gain g x y =
  Asn.Set.remove x
    (Asn.Set.diff
       (Asn.Set.union (Graph.providers g y) (Graph.peers g y))
       (Graph.customers g x))

let ma_direct ?partners g x =
  let peers_of_x = Graph.peers g x in
  let chosen =
    match partners with
    | None -> peers_of_x
    | Some set -> Asn.Set.inter set peers_of_x
  in
  Asn.Set.fold (fun y acc -> add_set y (ma_gain g x y) acc) chosen
    Asn.Map.empty

let ma_indirect ?(concluded = fun _ _ -> true) g x =
  (* x - y - z where the MA between peers y and z shares x's connectivity
     with z: x must be a provider or peer of y, and not a customer of z. *)
  let mids = Asn.Set.union (Graph.customers g x) (Graph.peers g x) in
  Asn.Set.fold
    (fun y acc ->
      let zs =
        Asn.Set.filter
          (fun z ->
            (not (Asn.equal z x))
            && concluded y z
            && not (Asn.Set.mem x (Graph.customers g z)))
          (Graph.peers g y)
      in
      add_set y zs acc)
    mids Asn.Map.empty

let top_partners g ~n x =
  if n < 0 then invalid_arg "Path_enum.top_partners: n < 0";
  let scored =
    Asn.Set.fold
      (fun y acc -> (Asn.Set.cardinal (ma_gain g x y), y) :: acc)
      (Graph.peers g x) []
  in
  let sorted =
    List.sort
      (fun (c1, y1) (c2, y2) ->
        match compare c2 c1 with 0 -> Asn.compare y1 y2 | c -> c)
      scored
  in
  List.filteri (fun i _ -> i < n) sorted |> List.map snd

let economic_paths ~concluded g x =
  let partners =
    Asn.Set.filter (fun y -> concluded x y) (Graph.peers g x)
  in
  union
    (union (grc g x) (ma_direct ~partners g x))
    (ma_indirect ~concluded g x)

let scenario_paths g scenario x =
  let base = grc g x in
  match scenario with
  | Grc -> base
  | Ma_all -> union (union base (ma_direct g x)) (ma_indirect g x)
  | Ma_direct_only -> union base (ma_direct g x)
  | Ma_top n ->
      let partners = Asn.set_of_list (top_partners g ~n x) in
      union base (ma_direct ~partners g x)

let additional_paths g scenario x =
  diff (scenario_paths g scenario x) (grc g x)

(* A compact result in this module's ASN-keyed representation. *)
let to_mid_sets c m =
  let acc = ref Asn.Map.empty in
  Path_enum_compact.iter_sets
    (fun mid zs ->
      let set =
        Bitset.fold (fun z s -> Asn.Set.add (Compact.id c z) s) zs
          Asn.Set.empty
      in
      acc := Asn.Map.add (Compact.id c mid) set !acc)
    m;
  !acc
