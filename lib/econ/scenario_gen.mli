(** Ready-made and randomized negotiation scenarios.

    Provides the paper's worked example (Eq. 6 on Fig. 1) with concrete
    business numbers, a randomized generator used by the §IV-C method
    comparison experiment and the property-based tests, and the MA
    recipe ({!ma_scenario}) of the adoption experiment and the market. *)

open Pan_topology
open Pan_numerics

val fig1_scenario :
  ?transit_price:float ->
  ?stub_price:float ->
  ?internal_rate:float ->
  unit ->
  Graph.t * Traffic_model.scenario
(** The agreement [a = \[D(↑{A}); E(↑{B}, →{F})\]] of Eq. 6 with default
    prices: transit links pay-per-usage at [transit_price] (default 1.0),
    end-host revenue at [stub_price] (default 2.0) and internal cost
    linear at [internal_rate] (default 0.1).  Baseline flows are chosen so
    that both parties run a profitable transit business before the
    agreement. *)

val random_scenario :
  ?max_demands:int -> Rng.t -> Graph.t -> x:Asn.t -> y:Asn.t ->
  Traffic_model.scenario
(** A randomized mutuality scenario between peers [x] and [y]: the §VI MA
    agreement, uniformly drawn per-usage prices, internal-cost rates,
    baseline flows, and up to [max_demands] (default 4) segment demands
    over granted destinations.  @raise Invalid_argument if [x] and [y] are
    not peers or the MA grants no destinations at all. *)

val ma_scenario :
  key:string -> seed:int -> rng:Rng.t -> max_demands:int -> Graph.view ->
  Agreement.t -> Traffic_model.scenario
(** The topology-derived scenario of a mutuality agreement, shared by
    the MA adoption experiment and the marketplace: per-party business
    profiles drawn from a stream keyed by [(seed, asn, key)], gravity
    baselines from degrees, and per side up to [max_demands] demands
    over the granted providers, then peers, by descending degree.
    Demand volumes draw from [rng], [y]'s side first.  The scenario
    may have no demands. *)

val fig1_peering_scenario :
  ?transit_price:float ->
  ?stub_price:float ->
  ?internal_rate:float ->
  unit ->
  Graph.t * Traffic_model.scenario
(** The classic peering agreement of §III-B1,
    [a_p = \[D(↓{H}); E(↓{I})\]]: each party reroutes its traffic towards
    the other's customer away from its provider over the (existing)
    peering link, and may attract some extra end-host demand.  Defaults
    as in {!fig1_scenario}. *)
