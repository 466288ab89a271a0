(** The BOSCO service (§V-C1, §V-E).

    The service estimates the parties' utility distributions, constructs
    choice sets (by random sampling from those distributions, or on a
    deterministic grid for the ablation), finds a Nash equilibrium of the
    induced game by best-response dynamics, scores it by its Price of
    Dishonesty, and communicates the mechanism-information set
    [(U_X, U_Y, V_X, V_Y, σ★)] to the parties — who can verify the
    equilibrium themselves before following it. *)

open Pan_numerics

type construction =
  | Random_sampling  (** the paper's method: claims drawn from [U_Z] *)
  | Grid  (** equally spaced claims (ablation baseline) *)

type report = {
  game : Game.t;
  strategy_x : Strategy.t;
  strategy_y : Strategy.t;
  pod : float;  (** Price of Dishonesty of this equilibrium *)
  rounds : int;
  converged : bool;
  equilibrium_choices_x : int;
      (** claims party X plays with positive probability *)
  equilibrium_choices_y : int;
}

val negotiate :
  ?construction:construction ->
  ?truthful:float ->
  ?workspace:Workspace.t ->
  rng:Rng.t ->
  dist_x:Distribution.t ->
  dist_y:Distribution.t ->
  w:int ->
  unit ->
  report
(** Build one choice-set combination with [w] claims per party, run
    best-response dynamics, and score the equilibrium.  [truthful]
    optionally reuses a precomputed truthful benchmark.  A fresh
    {!Workspace.t} is created per negotiation unless [workspace] is
    given. *)

val trials :
  ?construction:construction ->
  ?pool:Pan_runner.Pool.t ->
  ?chunk:int ->
  ?retries:int ->
  ?deadline:float ->
  rng:Rng.t ->
  dist_x:Distribution.t ->
  dist_y:Distribution.t ->
  w:int ->
  n:int ->
  unit ->
  report list
(** [n] independent {!negotiate} runs (the paper uses 200 per choice-set
    cardinality); the truthful benchmark is computed once and shared.
    Trials are chunked ([chunk], default 8) onto [pool] with a split
    generator per chunk, so the report list is identical for any pool
    size; [rng] is advanced by one {!Rng.split} per chunk.
    [retries]/[deadline] supervise the chunks as in
    {!Pan_runner.Task.map_reduce}: a chunk recovered by retry replays
    the same split generator, leaving the reports bit-identical. *)

val best : report list -> report
(** Lowest-PoD report. @raise Invalid_argument on an empty list. *)

val mean_pod : report list -> float
val min_pod : report list -> float

val verify : report -> bool
(** The parties' check: the communicated strategy pair really is a Nash
    equilibrium of the communicated game. *)
