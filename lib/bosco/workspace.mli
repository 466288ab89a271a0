(** Scratch buffers for the fast best-response kernel and the efficiency
    scoring that follows it.

    A workspace owns every float array a best-response round and
    {!Efficiency.expected_nash} need, so once its buffers have grown to
    the choice-set size a round allocates little more than the two
    strategies it returns.  It holds no results between calls: every
    buffer is written before it is read, so reusing a workspace across
    rounds, negotiations or choice-set sizes can never change a result.
    It is not thread-safe; use one per domain (the marketplace keeps one
    per worker domain, {!Service.negotiate} creates one when given
    none). *)

type t

val create : unit -> t

(** {2 Scratch} — buffers grown geometrically, contents unspecified;
    each call returns arrays of length at least the request, valid until
    the next call of the same function. *)

val probs_scratch : t -> int -> float array
(** One strategy's choice probabilities: the opponent's inside
    {!Strategy.best_response}, or the scored strategy's in
    {!Strategy.support_size}. *)

val pair_scratch : t -> int -> int -> float array * float array
(** Both parties' choice probabilities at once, of lengths at least [nx]
    and [ny] ({!Efficiency.expected_nash}); separate from
    {!probs_scratch}. *)

val moment_scratch : t -> int -> int -> float array * float array
(** Both parties' per-interval partial expectations
    ({!Efficiency.expected_nash}). *)

val suffix_scratch : t -> int -> float array * float array
val line_scratch : t -> int -> float array * float array
val stack_scratch : t -> int -> int array * float array
