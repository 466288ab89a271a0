(** One marketplace negotiation: econ scoring + BOSCO bargaining.

    Each candidate pair is taken through the full §IV pipeline:

    + build the mutuality agreement the pair would sign (each side
      grants its {!Pan_econ.Agreement.ma_grant} — the {!Candidates} gain
      sets) and its scenario ({!Pan_econ.Scenario_gen.ma_scenario}, the
      adoption experiment's recipe), both reading the frozen core
      through {!Pan_topology.Compact.view};
    + score the scenario's forecast demands economically with
      the batched {!Pan_econ.Model_fast} kernel: the forecast levels
      (fractions of the maximal choice) are evaluated in {e one} batch
      call against per-domain scratch, and the best-surplus level fixes
      the pre-bargaining utilities [u_x, u_y];
    + if the surplus is non-negative (a cash-compensation agreement is
      viable, §IV-B), run a BOSCO negotiation ({!Pan_bosco.Service}) for
      the strategic bargaining outcome; the agreement is {e signed} iff
      the best-response dynamics converged.

    Everything is deterministic per [(seed, epoch, pair)]: randomness
    comes from a pair-keyed generator, never from scheduling, and the
    per-domain arenas ({!arena}) are pure scratch — reusing them across
    negotiations of a chunk cannot change any bit of the outcome. *)

open Pan_numerics
open Pan_topology

(** Per-domain scratch: one BOSCO workspace and one econ workspace,
    created lazily per domain via [Domain.DLS] and reused across every
    negotiation the domain runs. *)
type arena = {
  bosco : Pan_bosco.Workspace.t;
  econ : Pan_econ.Econ_workspace.t;
}

val arena : unit -> arena
(** The calling domain's arena. *)

type outcome = {
  cand : Candidates.t;
  u_x : float;  (** econ utility of [x] at the best forecast level *)
  u_y : float;
  viable : bool;  (** [Nash.viable u_x u_y] *)
  pod : float;  (** BOSCO price of dishonesty; [nan] if not viable *)
  rounds : int;  (** best-response rounds; [0] if not viable *)
  converged : bool;
  signed : bool;  (** viable and the BOSCO dynamics converged *)
}

val forecast_levels : float array
(** Fractions of the maximal choice evaluated per candidate (one
    [Model_fast.utilities_batch] call), ascending. *)

val score_pair :
  topo:Compact.t ->
  seed:int ->
  epoch:int ->
  max_demands:int ->
  Candidates.t ->
  float * float
(** The econ-scoring prefix of {!negotiate_pair} alone: same pair-keyed
    rng derivation, same demand forecast (consuming the rng identically),
    same batched scoring — so [(u_x, u_y)] is bit-identical to the
    utilities a full negotiation of the same candidate would start from.
    The Nash-Peering qualifier ({!Nash_peering}) uses this to score a
    whole candidate set without negotiating it.  Increments
    [market.scored]. *)

val negotiate_pair :
  ?graph:Graph.t ->
  topo:Compact.t ->
  seed:int ->
  epoch:int ->
  w:int ->
  max_demands:int ->
  truthful:float ->
  dist:Distribution.t ->
  Candidates.t ->
  outcome
(** [truthful] is the shared truthful-benchmark value for [dist]
    (computed once per run, see
    {!Pan_bosco.Efficiency.expected_nash_truthful}); [w] is the BOSCO
    choice-set size.  Uses the calling domain's {!arena}.  [graph] is
    ignored; it stays until the repository benchmark stops passing it. *)
