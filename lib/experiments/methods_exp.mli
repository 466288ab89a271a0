(** Experiment E8 — §IV-C: flexibility of cash compensation vs. flow-volume
    targets, measured over randomized mutuality scenarios. *)

type report = {
  scenarios : int;
  cash_concluded : int;
  flow_volume_concluded : int;
  cash_only : int;
      (** scenarios concluded by cash compensation but not by flow-volume
          targets — the paper's flexibility argument *)
  mean_cash_joint : float;
      (** mean joint utility over scenarios the cash method concluded *)
  mean_flow_volume_joint : float;
}

val run :
  ?pool:Pan_runner.Pool.t ->
  ?retries:int ->
  ?deadline:float ->
  ?chunk:int ->
  ?scenarios:int ->
  ?seed:int ->
  unit ->
  report
(** Randomized scenarios on the Fig. 1 topology between peers D and E
    (default 100 scenarios).  Scenario chunks ([chunk], default 4) draw
    from split generators and run on [pool]; counters and utility sums are
    folded in scenario order, so the report is bit-identical for any pool
    size.  [retries]/[deadline] supervise as in
    {!Pan_runner.Task.map_reduce}. *)

val pp : Format.formatter -> report -> unit
