(** Deterministic request/event streams for the resident service.

    A stream is the workload [panagree serve] drains: an ordered list of
    path queries interleaved with link churn events, either parsed from
    a text file or generated pseudo-randomly from a seed.

    {2 Text format}

    One item per line; blank lines and [#] comments are ignored:

    {v
    query AS12 AS77 ma-all
    intent AS12 AS77 metric=latency; k=4
    down peer AS4 AS5
    up transit AS1 AS9        # provider AS1, customer AS9
    v}

    Policies: [grc], [ma-all], [ma-direct], [ma-top:N].  An [intent]
    line's tail (everything after the destination) is an intent spec in
    the [Pan_intent.Intent] syntax.  {!parse} and {!to_string}
    round-trip, and {!parse} reports the offending line on malformed
    input — for a bad intent spec, also the 1-based column within the
    line.  A link and an intent name two distinct ASes; a [query] from
    an AS to itself is valid and answers "no paths". *)

open Pan_numerics
open Pan_topology

type link =
  | Peer of Asn.t * Asn.t
  | Transit of { provider : Asn.t; customer : Asn.t }

type query = { src : Asn.t; dst : Asn.t; policy : Path_enum.scenario }

type item =
  | Query of query
  | Intent_query of { src : Asn.t; dst : Asn.t; intent : Pan_intent.Intent.t }
  | Up of link
  | Down of link

type t = item list

val policy_label : Path_enum.scenario -> string
(** [grc] / [ma-all] / [ma-direct] / [ma-top:N]. *)

val policy_of_label : string -> Path_enum.scenario option
(** Inverse of {!policy_label}; [None] for an unknown label or a
    negative [ma-top] count. *)

val item_to_string : item -> string

val to_string : t -> string
(** One line per item, newline-terminated. *)

val parse : string -> t
(** @raise Invalid_argument as ["Stream.parse: line %d: ..."] on
    malformed input, a self-link, or an intent from an AS to itself. *)

val load : string -> t
(** {!parse} a file.  @raise Sys_error on I/O. *)

val generate :
  ?intent:Pan_intent.Intent.t ->
  rng:Rng.t ->
  topo:Compact.t ->
  requests:int ->
  churn:float ->
  unit ->
  t
(** [requests] items drawn deterministically from [rng]: each is a churn
    event with probability [churn] (clamped to [0, 1]), else a query
    with distinct random endpoints and a policy drawn uniformly from
    [grc] / [ma-all] / [ma-direct] / [ma-top:3].  With [intent], query
    items become {!Intent_query}s carrying that intent instead (the
    policy draw is skipped; churn and endpoint draws are unchanged).

    Events are always applicable in order: the generator tracks which of
    the topology's links are currently down, only downs an up link and
    only re-ups a downed one (links never present in [topo] are never
    added).  Queries use ASes present in the topology.
    @raise Invalid_argument if [requests < 0], the topology has fewer
    than 2 ASes, or it has no links while [churn > 0]. *)
