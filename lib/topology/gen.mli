(** Synthetic Internet-like AS topology generator.

    The paper's §VI study runs on the CAIDA AS-relationship graph, which is
    not redistributable.  This generator produces a mixed graph with the
    structural features the study depends on: a small clique of Tier-1 ASes
    peering with each other, a middle tier of transit ASes that multihome to
    providers chosen by preferential attachment (yielding a heavy-tailed
    customer degree distribution) and peer densely with each other, and a
    large fringe of stub ASes.  Real CAIDA data can be substituted via
    {!Caida.load}.

    Generation is deterministic given the seed. *)

type tier = Tier1 | Transit | Stub

type params = {
  n_tier1 : int;  (** size of the top clique (default 12) *)
  n_transit : int;  (** number of transit ASes (default 300) *)
  n_stub : int;  (** number of stub ASes (default 1700) *)
  transit_max_providers : int;
      (** each transit AS gets 1..this providers (default 3) *)
  stub_max_providers : int;  (** each stub gets 1..this providers (default 2) *)
  transit_peering_degree : float;
      (** expected number of peering links per transit AS (default 40.0) *)
  stub_peering_prob : float;
      (** probability that a stub AS joins an IXP and peers with a
          geometric number of other members (default 0.5) *)
  route_server_hubs : int;
      (** number of high-degree transit ASes acting like IXP route
          servers, which peer very widely (default 10); real AS-level
          topologies owe most of their peering-edge mass to a few such
          hubs *)
  hub_peering_prob : float;
      (** probability that any given AS peers with a given hub
          (default 0.4) *)
}

val default_params : params

type t

val generate : ?params:params -> seed:int -> unit -> t

val graph : t -> Graph.t

val tier_of : t -> Asn.t -> tier
(** @raise Not_found for an AS not in the topology. *)

val tier1 : t -> Asn.t list
val transit : t -> Asn.t list
val stubs : t -> Asn.t list

val pp_tier : Format.formatter -> tier -> unit

val fig1 : unit -> Graph.t
(** The 9-AS example topology of the paper's Fig. 1, as reconstructed from
    the text: Tier-1 clique A, B, C (mutual peering); mid-tier D, E, F with
    peerings D–E, E–F, C–D, C–E and transit links A→D, B→E, C→F; stubs with
    D→H, E→I, F→G.  AS numbers: A=1, B=2, ..., I=9. *)

val fig1_asn : char -> Asn.t
(** Map a letter label from Fig. 1 ('A'..'I') to its AS number.
    @raise Invalid_argument for other characters. *)
