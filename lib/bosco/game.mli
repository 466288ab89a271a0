(** The one-shot BOSCO bargaining game (§V-C3).

    Each party commits a claim from its choice set; if the apparent surplus
    [v_X + v_Y] is non-negative the agreement is concluded with the cash
    compensation [Π_{X→Y} = (v_X − v_Y)/2], otherwise the negotiation is
    cancelled and both parties derive zero utility. *)

open Pan_numerics

type t = {
  dist_x : Distribution.t;  (** [U_X], party X's utility distribution *)
  dist_y : Distribution.t;
  claims_x : Claim.t;  (** [V_X] *)
  claims_y : Claim.t;
}

type outcome =
  | Concluded of { transfer : float; u_x_after : float; u_y_after : float }
  | Cancelled

val settle : u_x:float -> u_y:float -> v_x:float -> v_y:float -> outcome
(** The mechanism's decision rule given true utilities and committed
    claims. *)

val play :
  t ->
  strategy_x:Strategy.t ->
  strategy_y:Strategy.t ->
  u_x:float ->
  u_y:float ->
  outcome
(** One play: both parties apply their strategies to their true utilities
    and the mechanism settles. *)

val nash_value : u_x:float -> u_y:float -> outcome -> float
(** The realized Nash bargaining product [N] of Eq. 13: the product of
    after-negotiation utilities on conclusion, 0 on cancellation. *)

val expected_after_utility_x :
  t ->
  opponent:Strategy.t ->
  u_x:float ->
  v_x:float ->
  float
(** [E(ū_X)(u_X, v_X)] of Eq. 14 — the quantity best responses maximize.
    Exposed so tests can verify Algorithm 1 against brute force. *)

val pp_outcome : Format.formatter -> outcome -> unit
