(** Drain a {!Stream} through an {!Engine} and render the transcript.

    Items are answered one at a time, in stream order, against the
    engine's stores: a policy query from the path store (a miss costs
    one per-pair {!Pan_topology.Path_enum_compact.pair_paths}), an
    intent query from the intent store, an event by {!Engine.apply}.
    Nothing runs on a pool, so the transcript is the same for every
    [--jobs] value and under fault injection without any argument — the
    property [test/cli/serve.t] and [test/cli/intent.t] pin down.

    With [oracle:true], after every event the engine's new core is
    compared byte-for-byte ({!Pan_topology.Compact.Snapshot.to_string})
    with {!Engine.refreeze} of the pre-event core and the event, and
    every served answer is compared with {!Engine.query_uncached} or
    {!Engine.intent_query_uncached} on the current core; a divergence
    raises [Failure] — neither the incremental freeze nor an
    invalidation rule is ever silently wrong in a resident process.  The
    check keeps no second engine, so the [serve.*] counters are the same
    with and without it (the recomputations do add to
    [path_enum.pair] and the [intent.candidates] span).

    The whole drain runs under a [serve.drain] {!Pan_obs.Obs} span. *)

open Pan_topology

type outcome = {
  transcript : string;  (** one rendered line per stream item *)
  stats : Engine.stats;
  fingerprint : string;  (** MD5 hex of [transcript] *)
}

val event_of_item : Compact.t -> Stream.item -> Engine.event
(** Translate a stream churn item (ASN endpoints) to an engine event
    (dense indices).  Indices are stable under churn — the AS set never
    changes — so translating against any frozen view of the same
    topology is equivalent.
    @raise Invalid_argument on a [Query] item, or ["endpoint AS999 is
    not in the topology"] (["provider ..."], ["customer ..."]) for an AS
    not in the topology; {!run} prefixes the item's location. *)

val render_query :
  Compact.t -> src:int -> dst:int -> policy:Path_enum.scenario -> int list ->
  string
(** ["AS2 -> AS7 [ma-all]: 2 paths via AS3, AS5"] (or ["no paths"]). *)

val render_intent_query :
  Compact.t ->
  src:int ->
  dst:int ->
  Pan_intent.Intent.t ->
  Pan_intent.Candidates.result list ->
  string
(** A header line ["AS2 -> AS7 [intent metric=latency; k=2]: 2
    candidates"] (or ["no candidates"]) followed by one indented
    ["  AS2 AS3 AS7 (score 3519.62, hops 3)"] line per ranked
    candidate. *)

val run :
  ?pool:Pan_runner.Pool.t ->
  ?oracle:bool ->
  ?mode:Engine.mode ->
  topo:Compact.t ->
  Stream.t ->
  outcome
(** [mode] defaults to [Incremental].  [pool] is ignored: it is accepted
    only so the repository benchmark, which passes one, compiles, and
    goes with that call.

    An item that cannot be served fails located: the message is
    ["Serve.run: item N (TEXT): "] followed by the underlying error,
    where N is the item's 1-based position in [stream] and TEXT its
    {!Stream.item_to_string}, e.g. ["Serve.run: item 3 (down peer AS8
    AS10): Engine.apply: AS8 and AS10 are not peers"].  N counts items,
    not lines: {!Stream.parse} drops comments and blank lines.
    @raise Invalid_argument on a stream item naming an AS not in the
    topology or an event not applicable in sequence.
    @raise Failure on oracle divergence, located like the errors
    above: ["Serve.run: item N (TEXT): oracle divergence — ..."]. *)
