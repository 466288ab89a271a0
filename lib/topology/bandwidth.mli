(** Inter-AS link capacities under the degree-gravity model (§VI-C).

    Following Saino et al. (the paper's reference [47]), each link is
    endowed with a capacity proportional to the product of the node degrees
    of its endpoints; path bandwidth is the minimum link capacity along the
    path. *)

type t

val degree_gravity : ?coefficient:float -> Graph.t -> t
(** Capacities [coefficient · deg(u) · deg(v)] (default coefficient 1.0).
    Degrees are total neighbor counts at construction time; the graph is
    frozen into a {!Compact} view, so queries are O(1) degrees plus a
    binary-search adjacency check.
    @raise Invalid_argument if [coefficient <= 0]. *)

val of_compact : ?coefficient:float -> Compact.t -> t
(** Same model over an already-frozen topology (shares the view instead
    of re-freezing). *)

val link_capacity : t -> Asn.t -> Asn.t -> float
(** @raise Not_found if the ASes are not adjacent in the underlying graph. *)

val path3_bandwidth : t -> Asn.t -> Asn.t -> Asn.t -> float
(** Bandwidth of the length-3 path [a1 - a2 - a3]: the smaller of its two
    link capacities. *)

val path_bandwidth : t -> Asn.t list -> float
(** Minimum link capacity along an arbitrary path.
    @raise Invalid_argument on a path with fewer than 2 ASes. *)
