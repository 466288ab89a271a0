module Obs = Pan_obs.Obs

type construction = Random_sampling | Grid

type report = {
  game : Game.t;
  strategy_x : Strategy.t;
  strategy_y : Strategy.t;
  pod : float;
  rounds : int;
  converged : bool;
  equilibrium_choices_x : int;
  equilibrium_choices_y : int;
}

let build_claims construction rng dist w =
  match construction with
  | Random_sampling -> Claim.sample rng dist w
  | Grid -> Claim.grid dist w

let negotiate ?(construction = Random_sampling) ?truthful ?workspace ~rng
    ~dist_x ~dist_y ~w () =
  if w < 1 then invalid_arg "Service.negotiate: w < 1";
  let claims_x = build_claims construction rng dist_x w in
  let claims_y = build_claims construction rng dist_y w in
  let game = Game.{ dist_x; dist_y; claims_x; claims_y } in
  (* One workspace serves every dynamics round and the efficiency
     scoring; a caller that runs many negotiations passes its own. *)
  let workspace =
    match workspace with Some ws -> ws | None -> Workspace.create ()
  in
  let eq = Equilibrium.best_response_dynamics ~workspace game in
  let pod =
    Efficiency.price_of_dishonesty ~workspace ?truthful game
      eq.Equilibrium.strategy_x eq.Equilibrium.strategy_y
  in
  {
    game;
    strategy_x = eq.Equilibrium.strategy_x;
    strategy_y = eq.Equilibrium.strategy_y;
    pod;
    rounds = eq.Equilibrium.rounds;
    converged = eq.Equilibrium.converged;
    equilibrium_choices_x =
      Strategy.support_size ~workspace dist_x eq.Equilibrium.strategy_x;
    equilibrium_choices_y =
      Strategy.support_size ~workspace dist_y eq.Equilibrium.strategy_y;
  }

let trials ?(construction = Random_sampling) ?pool ?(chunk = 8)
    ?retries ?deadline ~rng ~dist_x ~dist_y ~w ~n () =
  if n < 1 then invalid_arg "Service.trials: n < 1";
  let truthful =
    Efficiency.expected_nash_truthful
      Game.{ dist_x; dist_y; claims_x = Claim.of_list []; claims_y = Claim.of_list [] }
  in
  (* Each chunk of trials negotiates from its own split generator, so the
     result is identical for any pool size (and trial chunks are
     reproducible in isolation). *)
  let reports =
    Obs.with_span "bosco/trials" (fun () ->
        Pan_runner.Task.map_reduce ?pool ?retries ?deadline ~rng ~n ~chunk
          ~f:(fun crng _ ->
            let r =
              negotiate ~construction ~truthful ~rng:crng ~dist_x ~dist_y ~w
                ()
            in
            Obs.incr "bosco.trials";
            if r.converged then Obs.incr "bosco.converged";
            Obs.incr ~by:r.rounds "bosco.rounds";
            r)
          ~combine:(fun acc r -> r :: acc)
          ~init:[] ())
  in
  List.rev reports

let best = function
  | [] -> invalid_arg "Service.best: empty list"
  | r :: rest ->
      List.fold_left (fun b r -> if r.pod < b.pod then r else b) r rest

let mean_pod reports =
  match reports with
  | [] -> invalid_arg "Service.mean_pod: empty list"
  | _ ->
      List.fold_left (fun acc r -> acc +. r.pod) 0.0 reports
      /. float_of_int (List.length reports)

let min_pod reports = (best reports).pod

let verify r =
  Equilibrium.is_equilibrium r.game r.strategy_x r.strategy_y
