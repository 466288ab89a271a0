(** Drain a {!Stream} through an {!Engine} and render the transcript.

    The drain is segmented at churn events: each maximal run of
    consecutive queries (policy and intent alike) first
    {!Engine.prefill}s the distinct missing [(src, policy)] mid-sets of
    the policy queries through the supervised pool (pure work, safely
    parallel), then answers the whole run {e sequentially} against the
    memoized stores — intent answers never touch the pool or the fault
    harness.  The rendered transcript is therefore bit-identical for
    every pool size, with or without fault injection — the property
    [test/cli/serve.t], [test/cli/intent.t] and bench part 11 pin
    down.

    With [oracle:true] a second [Refreeze] engine shadows the primary:
    after every event it re-freezes the thawed pre-event view with the
    event applied, the two frozen views are compared byte-for-byte
    ({!Pan_topology.Compact.Snapshot.to_string}), and a divergence raises
    [Failure] — the incremental freeze is never silently wrong in a
    resident process.

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
    @raise Invalid_argument on a [Query] item or an AS not in the
    topology. *)

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
  ?retries:int ->
  ?deadline:float ->
  ?oracle:bool ->
  ?mode:Engine.mode ->
  topo:Compact.t ->
  Stream.t ->
  outcome
(** [mode] defaults to [Incremental].
    @raise Invalid_argument on a stream item naming an AS not in the
    topology or an event not applicable in sequence.
    @raise Failure on oracle divergence. *)
