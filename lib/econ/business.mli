(** AS business calculation (§III-A, Eq. 1).

    A business profile fixes, for one AS [X], the pricing functions of the
    provider links it pays ([p_YX] for [Y ∈ π(X)]), the pricing functions
    of the customer links it charges ([p_XY] for [Y ∈ γ(X)], including the
    virtual end-host stub [Γ_X]) and its internal-cost function [i_X].

    Given a traffic distribution [f_X], the utility (profit) is
    {v U_X(f_X) = r_X(f_X) − c_X(f_X)
       r_X = Σ_{Y ∈ γ(X)} p_XY(f_XY)
       c_X = i_X(f_X) + Σ_{Y ∈ π(X)} p_YX(f_XY) v} *)

open Pan_topology

type t

val create :
  asn:Asn.t ->
  ?internal_cost:Cost.t ->
  ?provider_prices:(Asn.t * Pricing.t) list ->
  ?customer_prices:(Asn.t * Pricing.t) list ->
  unit ->
  t
(** [internal_cost] defaults to {!Cost.zero}. Neighbors missing from both
    lists (e.g. peers) generate and incur no charges.
    @raise Invalid_argument if some AS appears in both lists or twice in
    one. *)

val asn : t -> Asn.t

val with_customer : t -> Asn.t -> Pricing.t -> t
(** Add or replace a customer pricing function. *)

val with_provider : t -> Asn.t -> Pricing.t -> t
val with_internal_cost : t -> Cost.t -> t

val revenue : t -> Flows.t -> float  (** Eq. 1a *)

val cost : t -> Flows.t -> float  (** Eq. 1b *)

val utility : t -> Flows.t -> float
(** [revenue - cost]. *)

val providers : t -> Asn.t list
val customers : t -> Asn.t list

val of_graph :
  ?default_transit:Pricing.t ->
  ?default_internal:Cost.t ->
  ?stub_price:Pricing.t ->
  Graph.view ->
  Asn.t ->
  t
(** Derive a profile from a topology's view with uniform defaults: every
    provider and customer link priced with [default_transit] (default:
    per-usage at unit price 1.0), internal cost [default_internal]
    (default: linear at rate 0.1), and the virtual end-host stub priced
    with [stub_price] (default: same as transit). *)

val internal_cost_at : t -> Flows.t -> float
(** The internal-cost component [i_X(f_X)] of Eq. 1b alone. *)

val provider_charges : t -> Flows.t -> float
(** The provider-charge component [Σ_{Y ∈ π(X)} p_YX(f_XY)] of Eq. 1b
    alone. *)

val internal_cost : t -> Cost.t
(** The internal-cost function [i_X] itself, for kernels that evaluate it
    on precomputed totals. *)

val provider_pricing : t -> (Asn.t * Pricing.t) list
(** Provider pricing functions in ascending ASN order — the fold order of
    {!cost}, so kernels iterating this list reproduce its charge sum. *)

val customer_pricing : t -> (Asn.t * Pricing.t) list
(** Customer pricing functions in ascending ASN order ({!revenue}'s fold
    order). *)
