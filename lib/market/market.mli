(** The agreement marketplace: epochs of concurrent BOSCO negotiations
    reshaping the topology (ROADMAP item 1, the paper's Internet-scale
    claim run end-to-end).

    Each epoch: {!Candidates.enumerate} over the current frozen view,
    every candidate negotiated concurrently through the supervised
    runner ({!Negotiate.negotiate_pair} — chunk-deterministic, outcome
    randomness keyed per pair, per-domain arenas), then every signed
    agreement applied to the topology as {e one}
    {!Pan_service.Engine.apply_batch} peering splice.  The splice
    reshapes reachability — next epoch's candidate set is enumerated on
    the updated view — and the engine's invalidation machinery keeps the
    memoized per-pair path store sound between epochs: the market
    queries the store for every signed pair's MA path count, and later
    epochs' splices invalidate exactly the affected entries.

    The engine's frozen core is the only topology the marketplace
    reads; negotiations read it through {!Pan_topology.Compact.view}.

    Determinism: for a fixed config the whole result — agreement set,
    welfare totals, the transcript fingerprint — is bit-identical for
    every pool size, chunk size, and under injected faults with retries
    (the PR 5 supervision contract).  The [oracle] flag additionally
    compares every epoch's spliced core with
    {!Pan_service.Engine.refreeze} of the pre-epoch core and the epoch's
    batch, as [Serve.run] does per event, and requires byte-identical
    snapshots ({!Pan_topology.Compact.Snapshot}), pinning the
    incremental splice chain.  It keeps no second engine, so the
    [serve.*] counters are the same with and without it. *)

open Pan_topology

type config = {
  epochs : int;
  w : int;  (** BOSCO choice-set size per side *)
  max_demands : int;  (** forecast segment demands per side *)
  min_gain : int;  (** candidate filter: both sides gain at least this *)
  max_candidates : int;  (** per-epoch cap, best total gain first *)
  chunk : int;  (** negotiations per runner chunk *)
  seed : int;
}

val default : config
(** 3 epochs, [w = 16], 3 demands, [min_gain = 2], 512 candidates,
    chunk 16, seed 42. *)

(** Which qualifier feeds the BOSCO negotiation path.  [Bosco] is the
    PR 9 marketplace: every enumerated candidate is negotiated.
    [Nash_peering] first runs the {!Nash_peering} global-bargaining
    qualifier over the scored candidate set and negotiates only the
    survivors.  [Both] negotiates every candidate (the Bosco arm) and
    evaluates the Nash-Peering arm counterfactually on the same
    outcomes — shared epoch snapshot, shared candidate stream, shared
    pair-keyed randomness — emitting a per-epoch {!comparison} record;
    the splice applies the Bosco arm's signings. *)
type mechanism = Bosco | Nash_peering | Both

val mechanism_label : mechanism -> string
(** ["bosco"] / ["nash-peering"] / ["both"] — the CLI enum spelling. *)

(** Per-epoch mechanism comparison ([Both] mode): agreement counts,
    welfare, and mean Price of Dishonesty of each arm over the identical
    candidate stream. *)
type comparison = {
  cmp_qualified : int;  (** candidates the Nash-Peering qualifier kept *)
  bosco_signed : int;
  bosco_welfare : float;
  bosco_pod : float;  (** mean over the arm's viable pairs; [nan] if none *)
  nash_signed : int;  (** qualified pairs whose BOSCO dynamics converged *)
  nash_welfare : float;
  nash_pod : float;
}

type epoch_report = {
  epoch : int;  (** 1-based *)
  candidates : int;
  qualified : int;
      (** candidates that reached negotiation: [= candidates] under
          [Bosco], the qualifier's survivors otherwise *)
  viable : int;
  signed : int;
  welfare : float;
      (** summed post-transfer utility of the epoch's signed agreements
          (= summed surplus; Nash transfers are welfare-neutral) *)
  mean_pod : float;  (** over viable negotiations; [nan] if none *)
  new_paths : int;
      (** MA paths the signed pairs gain, from the engine's memo store *)
  invalidated : int;  (** store entries dropped by the epoch's splice *)
  mech : comparison option;  (** [Some] in [Both] mode *)
}

type result = {
  mechanism : mechanism;
  reports : epoch_report list;  (** epoch order *)
  agreements : (Asn.t * Asn.t) list;
      (** signed links in application order *)
  pairs : int;  (** candidates negotiated, all epochs (the qualified subset under [Nash_peering]) *)
  negotiations : int;  (** BOSCO negotiations run (viable candidates) *)
  welfare : float;
  fingerprint : string;
      (** MD5 hex over the per-outcome transcript (exact hex floats) —
          the determinism oracle *)
  oracle_ok : bool option;  (** [Some ok] when run with [~oracle:true] *)
}

val run_frozen :
  ?pool:Pan_runner.Pool.t ->
  ?retries:int ->
  ?deadline:float ->
  ?oracle:bool ->
  ?mechanism:mechanism ->
  config ->
  Compact.t ->
  result
(** Run the marketplace from a frozen core (never mutated).
    [retries]/[deadline] supervise the negotiation sweeps exactly as in
    {!Pan_runner.Task.map_reduce}.  [mechanism] (default [Bosco], which
    is byte-identical to the PR 9 behavior) selects the qualifier; see
    {!mechanism}.  Every mode keeps the determinism contract: result and
    fingerprint are bit-identical for every pool size, chunk size, and
    under injected faults with retries.
    @raise Invalid_argument if [epochs < 1], [w < 1], [chunk < 1],
    [max_demands < 1], or the candidate bounds are invalid. *)

val run :
  ?pool:Pan_runner.Pool.t -> ?retries:int -> ?deadline:float ->
  ?oracle:bool -> ?mechanism:mechanism -> config -> Graph.t -> result
(** [run_frozen] of [Compact.freeze g]; kept only until the repository
    benchmark calls {!run_frozen}. *)

val pp : Format.formatter -> result -> unit
(** Human-readable per-epoch lines plus totals (stable formatting; the
    CLI transcript is cram-pinned). *)
