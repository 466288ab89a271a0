(** Unboxed batch evaluation of agreement utilities.

    {!Traffic_model.utilities} rebuilds two [Asn.t -> float] maps per
    evaluation — fine for a single query, wasteful inside the Nelder–Mead
    loop of {!Flow_volume_opt}, which evaluates thousands of choice
    vectors per scenario.  [compile] flattens a scenario once into
    structure-of-arrays form: each party's flows become a flat
    [float array] over a fixed, ascending-ASN slot universe, and every
    [Flows.add] a demand can perform becomes a precompiled (slot, delta)
    op.  Evaluation then blits the baseline, applies the ops, and folds
    the pricing terms — no allocation beyond (reused) scratch.

    The kernel is {e bit-identical} to the reference path, not merely
    close: slot updates, clamping, fold orders and tolerances replicate
    {!Traffic_model.apply} and {!Business.utility} operation for
    operation, and slots the reference map omits hold exact [0.0] (an
    identity under float addition here).  The qcheck suite in
    [test_econ_fast.ml] pins this equivalence. *)

type t
(** A scenario compiled for repeated evaluation. *)

val compile : Traffic_model.scenario -> t

val scenario : t -> Traffic_model.scenario
val n_demands : t -> int

val utilities :
  ?workspace:Econ_workspace.t ->
  t ->
  Traffic_model.choice list ->
  (float * float, string) result
(** Drop-in equivalent of {!Traffic_model.utilities} (same results, same
    error messages), evaluated on the flat buffers. *)

val utilities_exn :
  ?workspace:Econ_workspace.t -> t -> Traffic_model.choice list ->
  float * float

val utilities_vector :
  ?workspace:Econ_workspace.t -> t -> float array ->
  (float * float, string) result
(** Same on a flat decision vector [[r_0; a_0; r_1; a_1; ...]] (the
    optimizer's layout) — no per-evaluation choice-list allocation. *)

val nash_objective : ?workspace:Econ_workspace.t -> t -> float array -> float
(** The exact-penalty Nash objective of {!Flow_volume_opt} on the fast
    path: [neg_infinity] on an infeasible vector, the (negative) worst
    utility when some party loses, the Nash product otherwise.
    @raise Invalid_argument on a vector of the wrong length. *)

val utilities_batch :
  ?workspace:Econ_workspace.t ->
  t ->
  vectors:float array ->
  m:int ->
  out_x:float array ->
  out_y:float array ->
  unit
(** Evaluate [m] decision vectors packed contiguously in [vectors]
    (stride [2 * n_demands]), writing per-party utilities into
    [out_x]/[out_y].
    @raise Invalid_argument on a short buffer or an infeasible vector. *)
