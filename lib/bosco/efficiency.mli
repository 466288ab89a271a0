(** Bargaining efficiency: the expected Nash product and the Price of
    Dishonesty (§V-C6, Eq. 19/20).

    For threshold strategies the double integral of Eq. 19 decomposes over
    the strategy intervals into products of partial moments, so
    {!expected_nash} is computed semi-analytically (quadrature only inside
    each interval).  The truthful benchmark [E(N | σ^T)] integrates
    [((u_X + u_Y)/2)²] over the viable quadrant on a 2-D grid. *)

val expected_nash :
  ?workspace:Workspace.t -> Game.t -> Strategy.t -> Strategy.t -> float
(** [E(N | (σ_X, σ_Y))] of Eq. 19.  [workspace] holds both parties'
    choice probabilities and partial moments; without it a private
    workspace is allocated. *)

val expected_nash_truthful : ?grid:int -> Game.t -> float
(** [E(N | σ^T)] where both parties claim their true utilities; [grid]
    (default 400) is the midpoint-rule resolution per axis. *)

val mc_expected_nash :
  ?pool:Pan_runner.Pool.t ->
  ?chunk:int ->
  rng:Pan_numerics.Rng.t ->
  samples:int ->
  Game.t ->
  Strategy.t ->
  Strategy.t ->
  float
(** Monte-Carlo estimate of {!expected_nash} by direct simulation of the
    bargaining game ([samples] plays).  Sample chunks ([chunk], default
    4096) draw from split generators and partial sums are folded in index
    order, so the estimate is bit-identical for any pool size. *)

val mc_truthful :
  ?pool:Pan_runner.Pool.t ->
  ?chunk:int ->
  rng:Pan_numerics.Rng.t ->
  samples:int ->
  Game.t ->
  float
(** Monte-Carlo estimate of {!expected_nash_truthful}; same determinism
    contract as {!mc_expected_nash}. *)

val price_of_dishonesty :
  ?workspace:Workspace.t ->
  ?truthful:float ->
  ?grid:int ->
  Game.t ->
  Strategy.t ->
  Strategy.t ->
  float
(** [PoD(σ) = 1 − E(N|σ)/E(N|σ^T)] (Eq. 20).  Pass [truthful] to reuse a
    precomputed benchmark across many equilibria for the same
    distributions.
    @raise Invalid_argument if the truthful benchmark is 0 (the agreement
    is unviable even under honesty, which the paper disregards). *)
