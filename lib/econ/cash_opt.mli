(** Agreement optimization via cash compensation (§IV-B, Eq. 10).

    Volumes are not limited: both parties are expected to use the new
    segments at the forecast maximum, and the party that benefits more
    compensates the other with the Nash-bargaining transfer of Eq. 11.
    A solution exists iff the joint utility is non-negative. *)

type result = {
  u_x : float;  (** party x's pre-transfer agreement utility *)
  u_y : float;
  transfer : float;  (** [Π_{X→Y}]; negative means y pays x; 0 if not concluded *)
  u_x_after : float;  (** after-transfer utility; 0 if not concluded *)
  u_y_after : float;
  concluded : bool;
}

val optimize : ?workspace:Econ_workspace.t -> Traffic_model.scenario -> result
(** Estimate utilities at {!Traffic_model.full_choice} (evaluated by
    {!Model_fast}) and settle with the Nash transfer. *)

val optimize_compiled : ?workspace:Econ_workspace.t -> Model_fast.t -> result
(** {!optimize} on an already-compiled scenario. *)

val pp : Format.formatter -> result -> unit
