(** Geolocation of ASes and inter-AS links, and path geodistance (§VI-B).

    The paper derives AS centers of gravity from prefix geolocations
    (prefix2as + GeoLite2) and interconnection coordinates from the CAIDA
    geographic AS-relationship dataset.  Neither dataset is available here,
    so this module generates a synthetic embedding with the same shape:

    - a set of "hub" cities is placed on the globe;
    - provider-less ASes (Tier-1-like) are located at the centroid of a few
      hubs, mimicking the averaging the paper applies to geographically
      distributed top-tier ASes;
    - every other AS is placed near the centroid of its providers, with
      noise that shrinks down the hierarchy;
    - each link's interconnection point lies between its endpoints, with
      jitter.

    Geodistance of a length-3 path [(A1, l12, A2, l23, A3)] is
    [d(A1,l12) + d(l12,l23) + d(l23,A3)] with [d] the great-circle
    (haversine) distance, exactly as in the paper. *)

type point = { lat : float; lon : float }
(** Degrees; latitude in [\[-90, 90\]], longitude in [\[-180, 180\]]. *)

val distance_km : point -> point -> float
(** Great-circle distance on a sphere of radius 6371 km. *)

type t
(** An embedding of a particular graph. *)

val generate : ?hubs:int -> seed:int -> Graph.t -> t
(** Deterministic synthetic embedding ([hubs] defaults to 40).  Freezes
    the graph into a {!Compact} view internally; use {!of_compact} to
    share an existing view. *)

val of_compact : ?hubs:int -> seed:int -> Compact.t -> t
(** Same embedding over an already-frozen topology.  Placement and link
    jitter consume the RNG in frozen iteration order, so
    [of_compact ~seed (Compact.freeze g)] equals [generate ~seed g]. *)

val of_locations : Graph.t -> point Asn.Map.t -> t
(** Build an embedding from externally supplied AS locations (e.g. parsed
    from real datasets); link locations default to endpoint midpoints.
    @raise Invalid_argument if some AS of the graph has no location. *)

val as_location : t -> Asn.t -> point
(** @raise Not_found for an unknown AS. *)

val link_location : t -> Asn.t -> Asn.t -> point
(** Interconnection point of the (unordered) link.
    @raise Not_found if the ASes are not adjacent. *)

val path3_geodistance : t -> Asn.t -> Asn.t -> Asn.t -> float
(** [path3_geodistance t a1 a2 a3] is the geodistance in km of the length-3
    path [a1 - a2 - a3]. *)
