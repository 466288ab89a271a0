(** Side-by-side comparison of the two agreement-optimization methods
    (§IV-C).

    Cash compensation is more flexible — it concludes whenever the joint
    utility is non-negative — while flow-volume targets offer
    predictability but can degenerate to all-zero targets when the two
    parties' cost structures are very dissimilar. *)

type comparison = {
  flow_volume : Flow_volume_opt.result;
  cash : Cash_opt.result;
}

val compare_methods :
  ?workspace:Econ_workspace.t ->
  ?starts_per_dim:int ->
  Traffic_model.scenario ->
  comparison
(** Compiles the scenario once ({!Model_fast}) and shares the flat model
    between both methods. *)

val cash_joint : comparison -> float
(** Joint utility achieved by the cash method (0 if not concluded). *)

val flow_volume_joint : comparison -> float
(** Joint utility achieved by the flow-volume targets (0 if not
    concluded). *)

val cash_only : comparison -> bool
(** Did cash compensation conclude an agreement the flow-volume method
    could not? *)

val pp : Format.formatter -> comparison -> unit
