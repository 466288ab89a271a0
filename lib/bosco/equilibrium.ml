module Obs = Pan_obs.Obs

type result = {
  strategy_x : Strategy.t;
  strategy_y : Strategy.t;
  rounds : int;
  converged : bool;
}

type start = Truthful | All_cancel

(* The always-cancel strategy: every true utility maps to the cancel
   claim, i.e. the whole real line is claim 0's interval. *)
let all_cancel claims =
  let w = Claim.cardinality claims in
  let thresholds =
    Array.init (w + 1) (fun i -> if i = 0 then neg_infinity else infinity)
  in
  Strategy.of_thresholds claims thresholds

(* The one fixed-point predicate shared by the dynamics' convergence
   check and {!is_equilibrium}'s verification, so the two cannot drift:
   a candidate pair is accepted exactly when each candidate strategy
   equals the corresponding best response within [tol]. *)
let fixed_point ~tol ~candidate_x ~candidate_y ~response_x ~response_y =
  Strategy.equal ~tol response_x candidate_x
  && Strategy.equal ~tol response_y candidate_y

let response ~workspace ~opponent_dist ~opponent claims =
  Obs.time "bosco.br.response" (fun () ->
      Strategy.best_response ~workspace ~opponent_dist ~opponent claims)

let best_response_dynamics ?workspace ?(start = Truthful) ?(max_rounds = 2000)
    ?(tol = 1e-9) (game : Game.t) =
  let open Game in
  let workspace =
    match workspace with Some ws -> ws | None -> Workspace.create ()
  in
  let initial claims =
    match start with
    | Truthful -> Strategy.truthful_rounding claims
    | All_cancel -> all_cancel claims
  in
  let finish sx sy rounds converged =
    Obs.incr ~by:rounds "bosco.br.rounds";
    { strategy_x = sx; strategy_y = sy; rounds; converged }
  in
  let rec iterate sx sy round =
    let sx' =
      response ~workspace ~opponent_dist:game.dist_y ~opponent:sy
        game.claims_x
    in
    let sy' =
      response ~workspace ~opponent_dist:game.dist_x ~opponent:sx'
        game.claims_y
    in
    if
      fixed_point ~tol ~candidate_x:sx ~candidate_y:sy ~response_x:sx'
        ~response_y:sy'
    then finish sx' sy' round true
    else if round >= max_rounds then finish sx' sy' round false
    else iterate sx' sy' (round + 1)
  in
  iterate (initial game.claims_x) (initial game.claims_y) 1

let is_equilibrium ?workspace ?(tol = 1e-9) (game : Game.t) sx sy =
  let open Game in
  let workspace =
    match workspace with Some ws -> ws | None -> Workspace.create ()
  in
  let brx =
    response ~workspace ~opponent_dist:game.dist_y ~opponent:sy
      game.claims_x
  in
  let bry =
    response ~workspace ~opponent_dist:game.dist_x ~opponent:sx
      game.claims_y
  in
  fixed_point ~tol ~candidate_x:sx ~candidate_y:sy ~response_x:brx
    ~response_y:bry
