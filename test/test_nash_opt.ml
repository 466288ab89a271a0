(* Tests for Nash bargaining (Eq. 11) and the two agreement-optimization
   methods (Eq. 9 and Eq. 10). *)

open Pan_numerics
open Pan_econ

let approx = Alcotest.(check (float 1e-9))

(* ------------------------------------------------------------------ *)
(* Nash                                                                *)

let test_product () =
  approx "both positive" 6.0 (Nash.product 2.0 3.0);
  approx "one negative" 0.0 (Nash.product (-1.0) 3.0);
  approx "zero" 0.0 (Nash.product 0.0 3.0)

let test_transfer_closed_form () =
  (* Eq. 11: Π = u_X − (u_X + u_Y)/2 *)
  match Nash.transfer ~u_x:10.0 ~u_y:2.0 with
  | None -> Alcotest.fail "viable agreement rejected"
  | Some pi -> approx "transfer" 4.0 pi

let test_transfer_negative_direction () =
  (* y benefits more: x receives money (negative transfer) *)
  match Nash.transfer ~u_x:1.0 ~u_y:5.0 with
  | None -> Alcotest.fail "viable"
  | Some pi -> approx "negative transfer" (-2.0) pi

let test_transfer_unviable () =
  Alcotest.(check bool) "negative surplus" true
    (Nash.transfer ~u_x:1.0 ~u_y:(-3.0) = None)

let test_after_transfer_equal_split () =
  match Nash.after_transfer ~u_x:10.0 ~u_y:(-4.0) with
  | None -> Alcotest.fail "viable (surplus 6)"
  | Some (ax, ay) ->
      approx "equal split x" 3.0 ax;
      approx "equal split y" 3.0 ay

let qcheck_after_transfer_properties =
  QCheck.Test.make ~count:300 ~name:"Nash transfer: equal split, budget balance"
    QCheck.(pair (float_range (-10.0) 10.0) (float_range (-10.0) 10.0))
    (fun (ux, uy) ->
      match Nash.after_transfer ~u_x:ux ~u_y:uy with
      | None -> ux +. uy < 0.0
      | Some (ax, ay) ->
          Float.abs (ax -. ay) < 1e-9
          && Float.abs (ax +. ay -. (ux +. uy)) < 1e-9
          && ax >= -1e-9)

(* ------------------------------------------------------------------ *)
(* Cash compensation (Eq. 10)                                          *)

let test_cash_on_fig1 () =
  let _, s = Scenario_gen.fig1_scenario () in
  let r = Cash_opt.optimize s in
  Alcotest.(check bool) "concluded" true r.Cash_opt.concluded;
  (* after the transfer both parties hold half the surplus *)
  approx "equal after-utilities" r.Cash_opt.u_x_after r.Cash_opt.u_y_after;
  approx "budget balance"
    (r.Cash_opt.u_x +. r.Cash_opt.u_y)
    (r.Cash_opt.u_x_after +. r.Cash_opt.u_y_after);
  Alcotest.(check bool) "loser compensated" true
    (r.Cash_opt.u_y_after >= 0.0)

let test_cash_not_concluded_on_negative_surplus () =
  (* make transit ruinously expensive so the joint utility is negative *)
  let _, s =
    Scenario_gen.fig1_scenario ~transit_price:10.0 ~stub_price:0.1 ()
  in
  let r = Cash_opt.optimize s in
  Alcotest.(check bool) "not concluded" false r.Cash_opt.concluded;
  approx "no transfer" 0.0 r.Cash_opt.transfer

(* ------------------------------------------------------------------ *)
(* Flow-volume targets (Eq. 9)                                         *)

let test_flow_volume_on_fig1 () =
  let _, s = Scenario_gen.fig1_scenario () in
  let r = Flow_volume_opt.optimize s in
  Alcotest.(check bool) "concluded" true r.Flow_volume_opt.concluded;
  Alcotest.(check bool) "both non-negative" true
    (r.Flow_volume_opt.u_x >= -1e-9 && r.Flow_volume_opt.u_y >= -1e-9);
  Alcotest.(check bool) "positive Nash product" true
    (r.Flow_volume_opt.nash > 0.0);
  (* Pareto/fairness sanity: the optimizer should do at least as well as
     simply using everything (which leaves u_E negative => product 0) *)
  let full_ux, full_uy =
    Traffic_model.utilities_exn s (Traffic_model.full_choice s)
  in
  Alcotest.(check bool) "beats full usage" true
    (r.Flow_volume_opt.nash >= Nash.product full_ux full_uy)

let test_flow_volume_respects_bounds () =
  let _, s = Scenario_gen.fig1_scenario () in
  let r = Flow_volume_opt.optimize s in
  List.iter2
    (fun (d : Traffic_model.segment_demand) (c : Traffic_model.choice) ->
      Alcotest.(check bool) "reroute within bound" true
        (c.Traffic_model.reroute >= -1e-9
        && c.Traffic_model.reroute <= d.Traffic_model.reroutable +. 1e-6);
      Alcotest.(check bool) "attracted within bound" true
        (c.Traffic_model.attracted >= -1e-9
        && c.Traffic_model.attracted <= d.Traffic_model.attracted_max +. 1e-6))
    (Traffic_model.demands s) r.Flow_volume_opt.choices

let test_flow_volume_degenerates_when_one_sided () =
  (* only E-transit demands with nothing in return and superlinear costs:
     every positive volume hurts E, so targets must collapse to ~0 and the
     agreement is not concluded (§IV-C) *)
  let g = Pan_topology.Gen.fig1 () in
  let d = Pan_topology.Gen.fig1_asn 'D'
  and e = Pan_topology.Gen.fig1_asn 'E'
  and b = Pan_topology.Gen.fig1_asn 'B'
  and aa = Pan_topology.Gen.fig1_asn 'A' in
  let agreement = Agreement.paper_example g in
  let transit = Pricing.per_usage ~unit_price:1.0 in
  let business_d =
    Business.create ~asn:d
      ~provider_prices:[ (aa, transit) ]
      ~customer_prices:[ (Flows.stub d, Pricing.flat_rate ~fee:10.0) ]
      ()
    (* flat-rate customers: attracted traffic earns D nothing *)
  in
  let business_e =
    Business.create ~asn:e
      ~internal_cost:(Cost.linear ~rate:0.2)
      ~provider_prices:[ (b, transit) ]
      ~customer_prices:[ (Flows.stub e, transit) ]
      ()
  in
  let baseline_d = Flows.of_list [ (aa, 10.0); (Flows.stub d, 5.0) ] in
  let baseline_e = Flows.of_list [ (b, 10.0); (Flows.stub e, 5.0) ] in
  let demands =
    Traffic_model.
      [
        {
          beneficiary = d;
          transit = e;
          dest = b;
          reroutable = 0.0;
          (* nothing to reroute: only new flat-rate (worthless) traffic *)
          reroute_from = Some aa;
          attracted_max = 5.0;
        };
      ]
  in
  let s =
    Traffic_model.make_scenario_exn ~agreement
      ~businesses:[ (d, business_d); (e, business_e) ]
      ~baseline:[ (d, baseline_d); (e, baseline_e) ]
      ~demands
  in
  let r = Flow_volume_opt.optimize s in
  Alcotest.(check bool) "not concluded" false r.Flow_volume_opt.concluded

let test_flow_volume_empty_demands () =
  let g = Pan_topology.Gen.fig1 () in
  let d = Pan_topology.Gen.fig1_asn 'D'
  and e = Pan_topology.Gen.fig1_asn 'E' in
  let v = Pan_topology.Graph.view g in
  let s =
    Traffic_model.make_scenario_exn ~agreement:(Agreement.paper_example g)
      ~businesses:[ (d, Business.of_graph v d); (e, Business.of_graph v e) ]
      ~baseline:[ (d, Flows.empty); (e, Flows.empty) ]
      ~demands:[]
  in
  let r = Flow_volume_opt.optimize s in
  Alcotest.(check bool) "empty not concluded" false r.Flow_volume_opt.concluded

(* ------------------------------------------------------------------ *)
(* Negotiation comparison & random scenarios                           *)

let test_compare_methods () =
  let _, s = Scenario_gen.fig1_scenario () in
  let c = Negotiation.compare_methods s in
  Alcotest.(check bool) "both concluded on the benign example" true
    (c.Negotiation.cash.Cash_opt.concluded
    && c.Negotiation.flow_volume.Flow_volume_opt.concluded);
  Alcotest.(check bool) "cash_only false here" false (Negotiation.cash_only c);
  Alcotest.(check bool) "joint utilities non-negative" true
    (Negotiation.cash_joint c >= 0.0 && Negotiation.flow_volume_joint c >= 0.0)

let qcheck_random_scenarios_consistent =
  QCheck.Test.make ~count:20 ~name:"random scenarios: cash settles viably"
    QCheck.(int_range 1 10_000)
    (fun seed ->
      let g = Pan_topology.Gen.fig1 () in
      let rng = Rng.create seed in
      let s =
        Scenario_gen.random_scenario rng g
          ~x:(Pan_topology.Gen.fig1_asn 'D')
          ~y:(Pan_topology.Gen.fig1_asn 'E')
      in
      let r = Cash_opt.optimize s in
      if r.Cash_opt.concluded then
        (* equal split, individually rational *)
        Float.abs (r.Cash_opt.u_x_after -. r.Cash_opt.u_y_after) < 1e-6
        && r.Cash_opt.u_x_after >= -1e-9
      else Nash.surplus ~u_x:r.Cash_opt.u_x ~u_y:r.Cash_opt.u_y < 0.0)

let qcheck_flow_volume_never_worse_than_zero =
  QCheck.Test.make ~count:10
    ~name:"flow-volume optimum dominates the zero choice"
    QCheck.(int_range 1 10_000)
    (fun seed ->
      let g = Pan_topology.Gen.fig1 () in
      let rng = Rng.create seed in
      let s =
        Scenario_gen.random_scenario rng g
          ~x:(Pan_topology.Gen.fig1_asn 'D')
          ~y:(Pan_topology.Gen.fig1_asn 'E')
      in
      let r = Flow_volume_opt.optimize ~starts_per_dim:2 s in
      (* the zero choice is always feasible with Nash product 0 *)
      r.Flow_volume_opt.nash >= 0.0)

let suite =
  [
    Alcotest.test_case "nash product" `Quick test_product;
    Alcotest.test_case "transfer closed form (Eq. 11)" `Quick
      test_transfer_closed_form;
    Alcotest.test_case "transfer direction" `Quick
      test_transfer_negative_direction;
    Alcotest.test_case "transfer unviable" `Quick test_transfer_unviable;
    Alcotest.test_case "after-transfer equal split" `Quick
      test_after_transfer_equal_split;
    QCheck_alcotest.to_alcotest qcheck_after_transfer_properties;
    Alcotest.test_case "cash on fig1" `Quick test_cash_on_fig1;
    Alcotest.test_case "cash refuses negative surplus" `Quick
      test_cash_not_concluded_on_negative_surplus;
    Alcotest.test_case "flow-volume on fig1" `Quick test_flow_volume_on_fig1;
    Alcotest.test_case "flow-volume respects bounds" `Quick
      test_flow_volume_respects_bounds;
    Alcotest.test_case "flow-volume degenerates (§IV-C)" `Quick
      test_flow_volume_degenerates_when_one_sided;
    Alcotest.test_case "flow-volume empty demands" `Quick
      test_flow_volume_empty_demands;
    Alcotest.test_case "compare methods" `Quick test_compare_methods;
    QCheck_alcotest.to_alcotest qcheck_random_scenarios_consistent;
    QCheck_alcotest.to_alcotest qcheck_flow_volume_never_worse_than_zero;
  ]
