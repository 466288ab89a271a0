(* MA candidate enumeration by full scan: every unconnected 2-hop pair
   whose sides both gain at least [min_gain] destinations, sorted by
   [Candidates.compare_candidates] and truncated to the budget.  This is
   the quadratic build-sort-truncate that [Candidates.enumerate]'s
   bound-pruned search replaces; the two must return structurally equal
   arrays (test_market.ml). *)

open Pan_topology
open Pan_market

(* |(providers(via) ∪ peers(via)) \ customers(side) \ {side}| off the
   CSR rows. *)
let gain_via topo ~side ~via =
  let g = ref 0 in
  let count z =
    if z <> side && not (Compact.mem_customer topo side z) then incr g
  in
  Compact.iter_providers topo via count;
  Compact.iter_peers topo via count;
  !g

let candidates_of_source topo ~min_gain x =
  let n = Compact.num_ases topo in
  let seen = Bitset.create ~width:n in
  let acc = ref [] in
  let consider y =
    if y > x && not (Bitset.mem seen y) then begin
      Bitset.unsafe_add seen y;
      if not (Compact.connected topo x y) then begin
        let gx = gain_via topo ~side:x ~via:y in
        if gx >= min_gain then begin
          let gy = gain_via topo ~side:y ~via:x in
          if gy >= min_gain then
            acc := { Candidates.x; y; gain_x = gx; gain_y = gy } :: !acc
        end
      end
    end
  in
  Compact.iter_neighbors topo x (fun m ->
      Compact.iter_neighbors topo m consider);
  !acc

let enumerate ?(min_gain = 1) ?(max_candidates = 4096) topo =
  let n = Compact.num_ases topo in
  let per_src = Array.init n (candidates_of_source topo ~min_gain) in
  let all = List.concat (Array.to_list per_src) in
  let arr = Array.of_list (List.sort Candidates.compare_candidates all) in
  Array.sub arr 0 (min max_candidates (Array.length arr))
