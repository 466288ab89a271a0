(** The Internet as a mixed graph [G = (A, L↔, L↑)] (§III-A of the paper).

    Nodes are ASes; undirected edges are settlement-free peering links and
    directed edges are provider–customer links.  For an AS [x] the neighbor
    set decomposes into providers [π(x)], peers [ε(x)], and customers
    [γ(x)].

    The structure is built imperatively (matching how topologies are read
    from files or generated) and then queried functionally.  Adding a link
    registers both endpoints automatically.  A pair of ASes can be connected
    by at most one link: re-adding an existing link is idempotent, while
    adding a conflicting link (e.g. a peering between a provider and its
    customer) raises. *)

type t

type relationship =
  | Provider  (** the neighbor is a provider of the queried AS *)
  | Peer
  | Customer  (** the neighbor is a customer of the queried AS *)

val create : unit -> t

val add_as : t -> Asn.t -> unit
(** Register an isolated AS (no-op if already present). *)

val add_provider_customer : t -> provider:Asn.t -> customer:Asn.t -> unit
(** Add a directed transit link.
    @raise Invalid_argument on a self-link or if the pair already has a
    different relationship. *)

val add_peering : t -> Asn.t -> Asn.t -> unit
(** Add an undirected settlement-free peering link.
    @raise Invalid_argument on a self-link or if the pair already has a
    different relationship. *)

val remove_peering : t -> Asn.t -> Asn.t -> unit
(** Remove an existing peering link (the churn mutation used by the
    resident path-query service).  Both endpoints stay registered, so
    interning is stable across removals.
    @raise Invalid_argument if the pair is not peering. *)

val remove_provider_customer : t -> provider:Asn.t -> customer:Asn.t -> unit
(** Remove an existing transit link; endpoints stay registered.
    @raise Invalid_argument if [provider] is not a provider of
    [customer]. *)

val mem : t -> Asn.t -> bool
val num_ases : t -> int
val num_provider_customer_links : t -> int
val num_peering_links : t -> int

val ases : t -> Asn.t list
(** All registered ASes, ascending. *)

val providers : t -> Asn.t -> Asn.Set.t
(** [π(x)]: empty if the AS is unknown. *)

val peers : t -> Asn.t -> Asn.Set.t
(** [ε(x)]. *)

val customers : t -> Asn.t -> Asn.Set.t
(** [γ(x)]. *)

val neighbors : t -> Asn.t -> Asn.Set.t
(** [π(x) ∪ ε(x) ∪ γ(x)]. *)

val degree : t -> Asn.t -> int
(** Total number of neighbors; the degree used by the degree-gravity
    bandwidth model (§VI-C). *)

val relationship : t -> Asn.t -> Asn.t -> relationship option
(** [relationship g x y] is the role of [y] relative to [x] ([Provider] if
    [y] is [x]'s provider, etc.), or [None] if they are not adjacent. *)

val connected : t -> Asn.t -> Asn.t -> bool

val fold_peering_links : (Asn.t -> Asn.t -> 'a -> 'a) -> t -> 'a -> 'a
(** Fold over peering links, each visited once with endpoints ascending.
    Visit order is deterministic and insertion-independent: first
    endpoints ascending, second endpoints ascending within each first. *)

val fold_provider_customer_links :
  (provider:Asn.t -> customer:Asn.t -> 'a -> 'a) -> t -> 'a -> 'a
(** Deterministic, insertion-independent order: providers ascending,
    customers ascending within each provider. *)

(** A read-only neighbor view, whatever holds the links: a {!t} ({!view})
    or a frozen core ([Compact.view]).  Unknown ASes have empty sets and
    degree 0.  The econ scenario builders read topologies through it. *)
type view = {
  providers : Asn.t -> Asn.Set.t;
  peers : Asn.t -> Asn.Set.t;
  customers : Asn.t -> Asn.Set.t;
  degree : Asn.t -> int;
}

val view : t -> view
(** The live view of [g]: later mutations of [g] are seen. *)

val pp_stats : Format.formatter -> t -> unit
(** One-line summary: number of ASes and links of each kind. *)
