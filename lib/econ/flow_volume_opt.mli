(** Agreement optimization via flow-volume targets (§IV-A, Eq. 9).

    Solves
    {v max   u_D(f, Δf) · u_E(f, Δf)
      s.t.  u_D ≥ 0, u_E ≥ 0                       (I)
            Δf_P within the agreement allowance     (II)
            Δf_P ≤ Δf^max_P                         (III) v}
    over per-segment rerouted and attracted volumes.  Constraints (II) and
    (III) are box constraints on the decision variables; constraint (I) is
    handled with an exact penalty, so the projected Nelder–Mead multistart
    of {!Pan_numerics.Optimize} applies.  The resulting volumes are the
    flow-volume targets written into the agreement. *)

type result = {
  choices : Traffic_model.choice list;
      (** optimal per-segment volumes, in demand order *)
  u_x : float;
  u_y : float;
  nash : float;  (** the maximized Nash product *)
  concluded : bool;
      (** both utilities non-negative and at least one target positive; a
          solution with all-zero targets means the agreement "cannot be
          concluded" (§IV-C) *)
}

val optimize :
  ?workspace:Econ_workspace.t ->
  ?starts_per_dim:int ->
  ?max_iter:int ->
  Traffic_model.scenario ->
  result
(** The Nelder–Mead loop evaluates the objective on the scenario
    compiled by {!Model_fast}; the reported utilities are re-evaluated
    through {!Traffic_model}. *)

val optimize_compiled :
  ?workspace:Econ_workspace.t ->
  ?starts_per_dim:int ->
  ?max_iter:int ->
  Model_fast.t ->
  result
(** {!optimize} on an already-compiled scenario (shares the compilation
    with other per-scenario work, e.g. {!Negotiation}). *)

val pp : Format.formatter -> result -> unit
