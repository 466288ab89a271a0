(** Path-selection intents: what an end-host wants from a path, as a
    value.

    The paper's §I argument is that path-aware networks let end-hosts
    choose paths per application.  An intent captures one such choice as
    data — a composite optimization metric, hard constraints on the
    eligible subgraph, and a candidate budget — so that every selection
    layer (the SCION application classes, the resident query service,
    the CLIs) compiles down to the same engine instead of hard-coding
    its own ranking.

    {2 Text syntax}

    A spec is [;]-separated clauses, each [key=value]; whitespace is
    free between tokens.  Clauses (each at most once):

    {v
    metric=<term>(+<term>)*     term: [<weight>*]<component>
    k=<int>                     candidate budget (1..1024, default 1)
    max-hops=<int>              AS-level hop bound (>= 1)
    exclude-as=AS1,AS7          blocked ASes
    exclude-link=AS1-AS2,...    blocked links (endpoints either order)
    geo-fence=<lat>,<lon>,<km>  only ASes within radius of the center
    require=encrypted,monitored links must carry all listed attributes
    v}

    Integers are plain decimal digits; weights and geo-fence numbers
    are plain decimals with an optional [-] and exponent
    ({!Pan_numerics.Decimal.float_of_string_opt}: [2.5], [-0.5],
    [1e-12]; not [0x1p3] or [1_0]).

    Components: [latency] (proxy km), [nlatency] (latency / 1000),
    [bandwidth] (negated bottleneck capacity), [nbandwidth]
    (1000 / max 1 capacity), [hops] (AS count).  All metrics minimize;
    terms are summed left to right.  Examples:

    {v
    metric=latency; k=4
    metric=nlatency+nbandwidth; k=8; max-hops=5; require=encrypted
    metric=bandwidth; exclude-as=AS13; geo-fence=48.1,11.6,3000
    v}

    {!parse} and {!to_string} round-trip: parsing a printed intent
    yields an equal value, and printing is canonical (fixed clause
    order, sorted deduplicated constraint lists, weight-1 terms printed
    bare). *)

open Pan_topology

type component =
  | Latency  (** latency proxy, km *)
  | Nlatency  (** latency proxy / 1000 *)
  | Bandwidth  (** negated bottleneck capacity *)
  | Nbandwidth  (** 1000 / max 1 capacity *)
  | Hops  (** AS-level path length *)

type term = { weight : float; component : component }
type attr = Encrypted | Monitored

type fence = { center : Geo.point; radius_km : float }

type t = private {
  metric : term list;  (** non-empty; summed left to right, minimized *)
  k : int;  (** candidate budget, 1..1024 *)
  max_hops : int option;
  exclude_as : Asn.t list;  (** sorted, deduplicated *)
  exclude_link : (Asn.t * Asn.t) list;  (** normalized lo < hi, sorted *)
  geo_fence : fence option;
  require : attr list;  (** sorted, deduplicated *)
}

val make :
  ?metric:term list ->
  ?k:int ->
  ?max_hops:int ->
  ?exclude_as:Asn.t list ->
  ?exclude_link:(Asn.t * Asn.t) list ->
  ?geo_fence:fence ->
  ?require:attr list ->
  unit ->
  t
(** Normalizing constructor (sorts and deduplicates constraint lists,
    normalizes link endpoints).  Defaults: [metric=latency], [k=1], no
    constraints.
    @raise Invalid_argument on an empty metric, non-finite weight,
    [k < 1] or [k > 1024], [max_hops < 1], a non-positive fence radius,
    or a self-link exclusion.  The search stops only at [k] paths or when
    none is left, so the bound keeps one query from enumerating every
    simple path of a pair. *)

val default : t
(** [make ()]: single-candidate minimum-latency. *)

val equal : t -> t -> bool

val to_string : t -> string
(** Canonical spec text; [parse (to_string t)] equals [Ok t]. *)

val pp : Format.formatter -> t -> unit

val parse : string -> (t, [ `Msg of string ]) result
(** Parse a spec.  Errors are ["line %d, col %d: %s"] with 1-based
    positions into the given string. *)

val parse_located : string -> (t, int * int * string) result
(** As {!parse}, with the error position structured as
    [(line, col, message)] — for embedders (the stream parser, CLIs)
    that re-anchor columns into a larger source. *)

val error_message : int * int * string -> string
(** Format a {!parse_located} error as ["line %d, col %d: %s"]. *)

val parse_exn : string -> t
(** @raise Invalid_argument as ["Intent.parse: line %d, col %d: %s"]. *)

val component_label : component -> string
val attr_label : attr -> string

val default_attrs : Asn.t -> Asn.t -> attr list
(** Synthetic per-link attribute assignment: a deterministic hash of the
    unordered endpoint ASNs (no real dataset carries link attributes).
    Stable across runs and topology seeds; callers with real attribute
    data pass their own function instead. *)
