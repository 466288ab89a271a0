(* The Nash-Peering qualifier by brute force: scalar Nash helpers and a
   quadratic rescan of the whole candidate set per endpoint.  The batch
   helpers behind [Nash_peering.qualify] are slot-by-slot identical to
   the scalar ones, so the two must agree bit-for-bit (test_market.ml). *)

open Pan_market
module Nash = Pan_econ.Nash

let qualify_oracle (scores : Nash_peering.score array) =
  let share_of (s : Nash_peering.score) =
    Nash.after_transfer ~u_x:s.u_x ~u_y:s.u_y
  in
  let best_for a =
    Array.fold_left
      (fun acc (s : Nash_peering.score) ->
        if s.cand.Candidates.x = a || s.cand.Candidates.y = a then
          match share_of s with Some (v, _) when v > acc -> v | _ -> acc
        else acc)
      0.0 scores
  in
  Array.map
    (fun (s : Nash_peering.score) ->
      let bx = best_for s.cand.Candidates.x
      and by = best_for s.cand.Candidates.y in
      match share_of s with
      | None ->
          {
            Nash_peering.score = s;
            share = 0.0;
            best_x = bx;
            best_y = by;
            qualified = false;
          }
      | Some (v, _) ->
          {
            Nash_peering.score = s;
            share = v;
            best_x = bx;
            best_y = by;
            qualified =
              v >= Nash_peering.theta *. bx && v >= Nash_peering.theta *. by;
          })
    scores
