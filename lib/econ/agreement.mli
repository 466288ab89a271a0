(** Interconnection agreements (§III-B, Eq. 2).

    An agreement between ASes [X] and [Y] is written
    {v a = [ X(↑π'_X, →ε'_X, ↓γ'_X); Y(↑π'_Y, →ε'_Y, ↓γ'_Y) ] v}
    where [π'_X ⊆ π(X)], [ε'_X ⊆ ε(X)], [γ'_X ⊆ γ(X)] are the providers,
    peers and customers of [X] to which [Y] obtains access (and
    symmetrically).  [a_X = π'_X ∪ ε'_X ∪ γ'_X] is the set of new
    destinations offered by [X].

    Classic peering is the special case granting access to all customers
    on both sides; a mutuality-based agreement (MA) grants access to
    providers and peers, which only a PAN can support stably. *)

open Pan_topology

type grant = {
  providers : Asn.Set.t;  (** [π'] *)
  peers : Asn.Set.t;  (** [ε'] *)
  customers : Asn.Set.t;  (** [γ'] *)
}

val empty_grant : grant
val grant_all : grant -> Asn.Set.t
(** [π' ∪ ε' ∪ γ'] — the notation [a_X]. *)

type t = private {
  x : Asn.t;
  y : Asn.t;
  x_grant : grant;  (** what [x] offers [y] *)
  y_grant : grant;  (** what [y] offers [x] *)
}

val make :
  Graph.view -> x:Asn.t -> y:Asn.t -> x_grant:grant -> y_grant:grant ->
  (t, string) result
(** Validate against the topology's view: [x ≠ y] and each grant
    component a subset of the corresponding neighbor set of the
    granting party. *)

val make_exn :
  Graph.view -> x:Asn.t -> y:Asn.t -> x_grant:grant -> y_grant:grant -> t

val ma_grant : Graph.view -> Asn.t -> other:Asn.t -> grant
(** The MA grant [p] offers [other]: [p]'s providers and peers, minus
    [other] and [other]'s customers.  {!mutuality} and the marketplace
    both use it. *)

val parties : t -> Asn.t * Asn.t
val counterparty : t -> Asn.t -> Asn.t
(** @raise Invalid_argument if the AS is not a party. *)

val grant_of : t -> Asn.t -> grant
(** What the given party offers the other.
    @raise Invalid_argument if the AS is not a party. *)

val accessible : t -> to_:Asn.t -> Asn.Set.t
(** Destinations the given party gains access to (the other side's grant).
    @raise Invalid_argument if the AS is not a party. *)

val violates_grc : t -> bool
(** Does the agreement grant access to any provider or peer — i.e. create
    a path that the Gao–Rexford export rules would forbid? *)

val classic_peering : Graph.t -> Asn.t -> Asn.t -> t
(** [\[X(↓γ(X)); Y(↓γ(Y))\]] — both sides offer all their customers
    (§III-B1). *)

val mutuality : Graph.t -> Asn.t -> Asn.t -> t
(** The §VI mutuality-based agreement between two existing peers: each
    side offers its {!ma_grant}. @raise Invalid_argument if the ASes
    are not peers. *)

val paper_example : Graph.t -> t
(** Eq. 6 on Fig. 1: [a = \[D(↑{A}); E(↑{B}, →{F})\]] — requires the graph
    from {!Pan_topology.Gen.fig1}. *)

val pp : Format.formatter -> t -> unit
