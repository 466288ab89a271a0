(** Nash equilibria of the bargaining game by best-response dynamics
    (§V-C5).

    The game is not a potential game, so convergence of alternating
    unilateral optimization is not guaranteed in theory — but, as the paper
    reports, it converges in practice; a round cap guards the exceptions. *)

type result = {
  strategy_x : Strategy.t;
  strategy_y : Strategy.t;
  rounds : int;  (** best-response rounds executed *)
  converged : bool;
      (** both strategies are best responses to each other *)
}

type start =
  | Truthful  (** start from the truthful-rounding strategies (default) *)
  | All_cancel
      (** start from the always-cancel strategy; the dynamics then stay in
          the degenerate no-trade equilibrium — the start-point ablation
          showing why the BOSCO service seeds the dynamics with truthful
          behaviour *)

val best_response_dynamics :
  ?workspace:Workspace.t ->
  ?start:start ->
  ?max_rounds:int ->
  ?tol:float ->
  Game.t ->
  result
(** Alternate exact best responses from the chosen starting strategies
    until a fixed point (tolerance [tol], default [1e-9]) or [max_rounds]
    (default 2000).  [workspace] (created internally when absent)
    carries the {!Strategy.best_response} buffers across rounds, so a
    round allocates its two strategies and the boxed arguments and
    results of the CDF calls.  Adds the executed round count to the
    [bosco.br.rounds] counter and records each response's duration in
    the [bosco.br.response] histogram. *)

val is_equilibrium :
  ?workspace:Workspace.t ->
  ?tol:float ->
  Game.t ->
  Strategy.t ->
  Strategy.t ->
  bool
(** The verification each party performs on the mechanism-information set:
    is every strategy a best response to the other?  Shares its
    fixed-point predicate with {!best_response_dynamics}, so convergence
    and verification cannot diverge. *)
