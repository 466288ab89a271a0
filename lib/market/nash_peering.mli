(** Nash-Peering global bargaining qualifier (Zarchy et al.,
    arXiv:1610.01314) over the marketplace candidate set.

    BOSCO treats every candidate pair as an isolated two-party
    bargaining game; Nash-Peering asks what each AS could get if it
    bargained with its {e whole} candidate neighborhood at once.  Per
    epoch the qualifier takes the enumerated candidates with their econ
    scores (the same [(u_x, u_y)] a BOSCO negotiation would start from —
    see {!Negotiate.score_pair}) and computes every pair's
    Nash-bargaining outcome in one {!Pan_econ.Nash} batch pass: the
    equal-split share each endpoint would receive.  An AS's {e coalition
    value} is the best share any of its candidates offers it — its
    outside option under global bargaining.  A pair {e qualifies} iff it
    is viable and offers both endpoints at least {!theta} of their
    outside option; only qualified pairs proceed to the BOSCO
    negotiation path.

    Because scoring reuses the pair-keyed rng derivation of
    {!Negotiate.negotiate_pair} exactly, both mechanisms see identical
    candidate streams and identical pair randomness — mechanism
    differences in welfare or Price of Dishonesty are attributable to
    the qualifier, never to noise ({!Market.run_frozen}
    [~mechanism:Both] exploits this to compare them on one epoch
    snapshot). *)

open Pan_topology

type score = {
  cand : Candidates.t;
  u_x : float;  (** econ utility of [x] at the best forecast level *)
  u_y : float;
}

type verdict = {
  score : score;
  share : float;
      (** the pair's equal-split Nash share (half its surplus); [0.] if
          not viable *)
  best_x : float;  (** [x]'s coalition value: its best viable share *)
  best_y : float;
  qualified : bool;
}

val theta : float
(** Competitiveness factor: a qualified pair must offer each endpoint at
    least [theta] times its outside option ([0.5]). *)

val of_outcome : Negotiate.outcome -> score
(** Reuse the utilities of an already-run negotiation — the [Both]
    mechanism scores the shared candidate stream for free. *)

val score_pair :
  topo:Compact.t ->
  seed:int ->
  epoch:int ->
  max_demands:int ->
  Candidates.t ->
  score
(** Score one candidate of the frozen core [topo] without negotiating
    it ({!Negotiate.score_pair}); bit-identical utilities to a full
    negotiation of the same candidate. *)

val qualify : score array -> verdict array
(** Verdicts in candidate order, one batch {!Pan_econ.Nash} pass plus a
    linear coalition-value sweep.  Deterministic: pure float arithmetic
    in array order. *)

val count_qualified : verdict array -> int

val qualify_counted : score array -> verdict array
(** {!qualify} + bump the [market.mech.qualified] counter. *)
