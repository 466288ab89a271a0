module Obs = Pan_obs.Obs
module Nash = Pan_econ.Nash

type score = { cand : Candidates.t; u_x : float; u_y : float }

type verdict = {
  score : score;
  share : float;
  best_x : float;
  best_y : float;
  qualified : bool;
}

let theta = 0.5

let of_outcome (o : Negotiate.outcome) =
  { cand = o.Negotiate.cand; u_x = o.Negotiate.u_x; u_y = o.Negotiate.u_y }

let score_pair ~topo ~seed ~epoch ~max_demands cand =
  let u_x, u_y = Negotiate.score_pair ~topo ~seed ~epoch ~max_demands cand in
  { cand; u_x; u_y }

(* Global bargaining in one batch pass: every candidate's Nash outcome
   (equal-split share of its surplus) through the batch helpers, then
   each AS's coalition value — the best share any of its candidates
   offers it, i.e. its outside option when it can bargain with the whole
   neighborhood instead of one partner at a time.  A pair survives iff
   it is viable and offers both endpoints at least [theta] of their
   outside option.  Pure float arithmetic in candidate order (the
   hashtable is only probed, never iterated), so the verdicts are as
   deterministic as the scores. *)
let qualify scores =
  let n = Array.length scores in
  if n = 0 then [||]
  else begin
    let u_x = Array.make n 0.0 and u_y = Array.make n 0.0 in
    Array.iteri
      (fun i s ->
        u_x.(i) <- s.u_x;
        u_y.(i) <- s.u_y)
      scores;
    let out_x = Array.make n 0.0 and out_y = Array.make n 0.0 in
    let _concluded = Nash.after_transfer_into ~n ~u_x ~u_y ~out_x ~out_y in
    let best = Hashtbl.create (2 * n) in
    let note a share =
      match Hashtbl.find_opt best a with
      | Some b when b >= share -> ()
      | _ -> Hashtbl.replace best a share
    in
    Array.iteri
      (fun i s ->
        if Nash.viable ~u_x:u_x.(i) ~u_y:u_y.(i) then begin
          note s.cand.Candidates.x out_x.(i);
          note s.cand.Candidates.y out_y.(i)
        end)
      scores;
    let best_of a = Option.value ~default:0.0 (Hashtbl.find_opt best a) in
    Array.mapi
      (fun i s ->
        let bx = best_of s.cand.Candidates.x
        and by = best_of s.cand.Candidates.y in
        if not (Nash.viable ~u_x:u_x.(i) ~u_y:u_y.(i)) then
          { score = s; share = 0.0; best_x = bx; best_y = by; qualified = false }
        else
          let share = out_x.(i) in
          {
            score = s;
            share;
            best_x = bx;
            best_y = by;
            qualified = share >= theta *. bx && share >= theta *. by;
          })
      scores
  end

let count_qualified verdicts =
  Array.fold_left (fun acc v -> if v.qualified then acc + 1 else acc) 0 verdicts

let qualify_counted scores =
  let verdicts = qualify scores in
  Obs.incr ~by:(count_qualified verdicts) "market.mech.qualified";
  verdicts
