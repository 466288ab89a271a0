open Pan_topology
open Pan_numerics
open Pan_econ
module Obs = Pan_obs.Obs

type report = {
  scenarios : int;
  cash_concluded : int;
  flow_volume_concluded : int;
  cash_only : int;
  mean_cash_joint : float;
  mean_flow_volume_joint : float;
}

(* One scenario's contribution, folded in scenario order below so float
   sums are reproducible for any pool size. *)
type outcome = {
  cash_joint : float option;
  fv_joint : float option;
  is_cash_only : bool;
}

let run ?pool ?retries ?deadline ?(chunk = 4) ?(scenarios = 100) ?(seed = 3)
    () =
  Obs.with_span "methods/run" @@ fun () ->
  let g = Gen.fig1 () in
  let d = Gen.fig1_asn 'D' and e = Gen.fig1_asn 'E' in
  let rng = Rng.create seed in
  let cash_n, fv_n, cash_only_n, cash_joint, fv_joint =
    Pan_runner.Task.map_reduce ?pool ?retries ?deadline ~rng ~n:scenarios ~chunk
      ~f:(fun crng _ ->
        let scenario = Scenario_gen.random_scenario crng g ~x:d ~y:e in
        let c = Negotiation.compare_methods ~starts_per_dim:2 scenario in
        let outcome =
          {
            cash_joint =
              (if c.Negotiation.cash.Cash_opt.concluded then
                 Some (Negotiation.cash_joint c)
               else None);
            fv_joint =
              (if c.Negotiation.flow_volume.Flow_volume_opt.concluded then
                 Some (Negotiation.flow_volume_joint c)
               else None);
            is_cash_only = Negotiation.cash_only c;
          }
        in
        Obs.incr "methods.scenarios";
        if outcome.cash_joint <> None then Obs.incr "methods.cash_concluded";
        if outcome.fv_joint <> None then
          Obs.incr "methods.flow_volume_concluded";
        if outcome.is_cash_only then Obs.incr "methods.cash_only";
        outcome)
      ~combine:(fun (cn, fn, on, cj, fj) o ->
        ( (match o.cash_joint with Some _ -> cn + 1 | None -> cn),
          (match o.fv_joint with Some _ -> fn + 1 | None -> fn),
          (if o.is_cash_only then on + 1 else on),
          (match o.cash_joint with Some v -> cj +. v | None -> cj),
          match o.fv_joint with Some v -> fj +. v | None -> fj ))
      ~init:(0, 0, 0, 0.0, 0.0) ()
  in
  {
    scenarios;
    cash_concluded = cash_n;
    flow_volume_concluded = fv_n;
    cash_only = cash_only_n;
    mean_cash_joint =
      (if cash_n = 0 then 0.0 else cash_joint /. float_of_int cash_n);
    mean_flow_volume_joint =
      (if fv_n = 0 then 0.0 else fv_joint /. float_of_int fv_n);
  }

let pp fmt r =
  Format.fprintf fmt
    "# §IV-C method comparison over %d random scenarios@.\
     cash concluded:        %d@.\
     flow-volume concluded: %d@.\
     cash-only conclusions: %d@.\
     mean joint utility (cash):        %.3f@.\
     mean joint utility (flow-volume): %.3f@."
    r.scenarios r.cash_concluded r.flow_volume_concluded r.cash_only
    r.mean_cash_joint r.mean_flow_volume_joint
