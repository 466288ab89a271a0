(** Threshold bargaining strategies and best responses (§V-C4, Alg. 1).

    A strategy maps a party's true utility to a claim from its choice set.
    Best-response strategies are always {e threshold strategies}: claim
    [v_i] is played exactly when the true utility lies in
    [\[t_i, t_{i+1})].  Because the expected after-negotiation utility of
    playing claim [v] is a linear function [m(v)·u + q(v)] of the true
    utility [u] (Eq. 16/17), the best response is the upper envelope of
    [W] lines — computed exactly by {!best_response}. *)

open Pan_numerics

type t
(** A threshold strategy over a fixed choice set. *)

val claims : t -> Claim.t

val thresholds : t -> float array
(** Length [W + 1], non-decreasing, first [−∞] and last [+∞]; claim [i]
    is played on [\[thresholds.(i), thresholds.(i+1))]. *)

val of_thresholds : Claim.t -> float array -> t
(** @raise Invalid_argument if the array length is not [W + 1], the
    boundaries are not non-decreasing, or the ends are not [−∞]/[+∞]. *)

val truthful_rounding : Claim.t -> t
(** The "round down to the nearest claim" strategy — the natural starting
    point of best-response dynamics: thresholds are the claims
    themselves. *)

val apply : t -> float -> float
(** [apply s u = σ(u)]: the claim played at true utility [u]. *)

val choice_probabilities : Distribution.t -> t -> float array
(** [P(σ(u) = v_i)] under the given utility distribution (Eq. 15): the
    CDF evaluated once per threshold point, giving the same floats as
    [max 0 (F(t_{i+1}) − F(t_i))] with both ends evaluated per interval. *)

val choice_probabilities_into : Distribution.t -> t -> float array -> unit
(** {!choice_probabilities} written to [dst.(0 .. W-1)] instead of a
    fresh array; further elements of [dst] are left as they were. *)

val best_response :
  ?workspace:Workspace.t ->
  opponent_dist:Distribution.t ->
  opponent:t ->
  Claim.t ->
  t
(** Algorithm 1: the upper-envelope best response in O(W) — per-claim
    sums read off precomputed suffix sums, the suffix boundaries found by
    one walk down the opponent's claims, and the envelope by one
    monotone stack pass over the slope-sorted lines.  [workspace]
    supplies reusable buffers; without it a private workspace is
    allocated per call. *)

val equal : ?tol:float -> t -> t -> bool
(** Same claim set ({!Claim.equal} with the same [tol]) and thresholds
    pointwise within [tol] (default [1e-9]). *)

val support_size : ?workspace:Workspace.t -> Distribution.t -> t -> int
(** Number of claims played with positive probability — the paper's
    "equilibrium choices" count (§V-E).  [workspace] holds the
    probabilities; without it a private workspace is allocated. *)

val pp : Format.formatter -> t -> unit
