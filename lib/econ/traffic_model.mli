(** Flow redistribution induced by an agreement (§III-B2, Eq. 7).

    A {e scenario} couples an agreement with a demand forecast: for every
    new path segment [B - T - Z] the agreement enables (beneficiary [B],
    transit party [T], destination [Z ∈ a_T]), it records how much existing
    traffic [B] could reroute onto the segment (and away from which
    provider), and the ceiling [Δf^max] on newly attracted customer
    traffic (constraint III of Eq. 9).

    A {e choice} then fixes the actually used volumes — the optimization
    variables of §IV-A.  Applying a choice yields post-agreement flow
    distributions [f^(a)] for both parties, per Eq. 7c:
    - the beneficiary shifts [reroute] away from its provider onto the
      partner link, and sources [attracted] new end-host traffic;
    - the transit party carries [reroute + attracted] additional flow
      between the beneficiary and [Z], paying its own provider if [Z] is
      one. *)

open Pan_topology

type segment_demand = {
  beneficiary : Asn.t;
  transit : Asn.t;
  dest : Asn.t;  (** [Z ∈ a_transit] *)
  reroutable : float;
      (** existing traffic of the beneficiary towards destinations behind
          [Z] that could shift onto the new segment *)
  reroute_from : Asn.t option;
      (** the beneficiary's provider currently carrying that traffic *)
  attracted_max : float;  (** [Δf^max]: ceiling on new customer demand *)
}

type scenario

val make_scenario :
  agreement:Agreement.t ->
  businesses:(Asn.t * Business.t) list ->
  baseline:(Asn.t * Flows.t) list ->
  demands:segment_demand list ->
  (scenario, string) result
(** Validate: businesses and baselines given for exactly the two parties;
    every demand has a party pair as beneficiary/transit and a destination
    the agreement actually grants; volumes non-negative. *)

val make_scenario_exn :
  agreement:Agreement.t ->
  businesses:(Asn.t * Business.t) list ->
  baseline:(Asn.t * Flows.t) list ->
  demands:segment_demand list ->
  scenario

val agreement : scenario -> Agreement.t
val demands : scenario -> segment_demand list
val baseline_flows : scenario -> Asn.t -> Flows.t
val business : scenario -> Asn.t -> Business.t

type choice = { reroute : float; attracted : float }
(** Volumes actually used on one segment; bounded by the demand. *)

val full_choice : scenario -> choice list
(** Use every segment at its forecast maximum. *)

val zero_choice : scenario -> choice list

val allowance : choice -> float
(** The flow-volume target [f^(a)_P = reroute + attracted]. *)

val apply : scenario -> choice list -> (Flows.t * Flows.t, string) result
(** Post-agreement flows of party [x] and party [y] (agreement order).
    Errors if the choice list length mismatches or a bound is violated. *)

val utilities : scenario -> choice list -> (float * float, string) result
(** Agreement utilities [(u_x(a), u_y(a))] (Eq. 3): the change in
    {!Business.utility} from baseline to post-agreement flows. *)

val utilities_exn : scenario -> choice list -> float * float
