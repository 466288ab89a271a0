(* Tests for the flow-redistribution model (Eq. 7): hand-computed flow
   deltas and utility changes on the Fig. 1 example. *)

open Pan_topology
open Pan_econ

let approx = Alcotest.(check (float 1e-9))
let a = Gen.fig1_asn

let scenario () = snd (Scenario_gen.fig1_scenario ())

let test_validation () =
  let s = scenario () in
  let agreement = Traffic_model.agreement s in
  let d = a 'D' and e = a 'E' in
  let bad_demand =
    Traffic_model.
      {
        beneficiary = d;
        transit = e;
        dest = a 'I';
        (* not granted: I is E's customer, the agreement grants B and F *)
        reroutable = 1.0;
        reroute_from = None;
        attracted_max = 1.0;
      }
  in
  match
    Traffic_model.make_scenario ~agreement
      ~businesses:
        [ (d, Traffic_model.business s d); (e, Traffic_model.business s e) ]
      ~baseline:
        [
          (d, Traffic_model.baseline_flows s d);
          (e, Traffic_model.baseline_flows s e);
        ]
      ~demands:[ bad_demand ]
  with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "ungranted destination accepted"

let test_zero_choice_is_neutral () =
  let s = scenario () in
  let ux, uy = Traffic_model.utilities_exn s (Traffic_model.zero_choice s) in
  approx "u_x zero" 0.0 ux;
  approx "u_y zero" 0.0 uy

let test_apply_flow_deltas () =
  let s = scenario () in
  let d = a 'D' and e = a 'E' and b = a 'B' and aa = a 'A' and f = a 'F' in
  (* choices: only the first demand (D via E to B) at r=2, δ=1 *)
  let choices =
    Traffic_model.
      [
        { reroute = 2.0; attracted = 1.0 };
        { reroute = 0.0; attracted = 0.0 };
        { reroute = 0.0; attracted = 0.0 };
      ]
  in
  match Traffic_model.apply s choices with
  | Error msg -> Alcotest.fail msg
  | Ok (fd, fe) ->
      let base_d = Traffic_model.baseline_flows s d in
      let base_e = Traffic_model.baseline_flows s e in
      (* D: +3 to E, -2 from A, +1 from its stub *)
      approx "D to E" (Flows.flow_to base_d e +. 3.0) (Flows.flow_to fd e);
      approx "D to A" (Flows.flow_to base_d aa -. 2.0) (Flows.flow_to fd aa);
      approx "D stub"
        (Flows.flow_to base_d (Flows.stub d) +. 1.0)
        (Flows.flow_to fd (Flows.stub d));
      (* E: +3 from D, +3 to B *)
      approx "E to D" (Flows.flow_to base_e d +. 3.0) (Flows.flow_to fe d);
      approx "E to B" (Flows.flow_to base_e b +. 3.0) (Flows.flow_to fe b);
      approx "E to F unchanged" (Flows.flow_to base_e f) (Flows.flow_to fe f)

let test_utility_hand_computation () =
  (* With transit price 1, stub price 2, internal rate 0.1:
     choice: D-E-B at reroute r, attracted δ.
     D: saves r from A (+r), earns 2δ from stub, internal flow change:
        f_D = (Σ)/2: Σ changes by (+r+δ to E) + (-r from A) + (+δ stub)
        = +2δ/2 = δ -> internal cost +0.1δ
        u_D = r + 2δ - 0.1δ = r + 1.9δ
     E: pays B for r+δ (-(r+δ)), internal: Σ changes +2(r+δ) -> +(r+δ)
        -> cost 0.1(r+δ); u_E = -(1.1)(r+δ). *)
  let s = scenario () in
  let r = 2.0 and dl = 1.0 in
  let choices =
    Traffic_model.
      [
        { reroute = r; attracted = dl };
        { reroute = 0.0; attracted = 0.0 };
        { reroute = 0.0; attracted = 0.0 };
      ]
  in
  let ux, uy = Traffic_model.utilities_exn s choices in
  approx "u_D analytic" (r +. (1.9 *. dl)) ux;
  approx "u_E analytic" (-1.1 *. (r +. dl)) uy

let test_choice_bounds_enforced () =
  let s = scenario () in
  let too_much =
    Traffic_model.
      [
        { reroute = 100.0; attracted = 0.0 };
        { reroute = 0.0; attracted = 0.0 };
        { reroute = 0.0; attracted = 0.0 };
      ]
  in
  (match Traffic_model.utilities s too_much with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "excess reroute accepted");
  match Traffic_model.utilities s [ Traffic_model.{ reroute = 0.0; attracted = 0.0 } ] with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "wrong arity accepted"

let test_full_choice_shape () =
  let s = scenario () in
  let full = Traffic_model.full_choice s in
  Alcotest.(check int) "one choice per demand"
    (List.length (Traffic_model.demands s))
    (List.length full);
  List.iter2
    (fun (d : Traffic_model.segment_demand) (c : Traffic_model.choice) ->
      approx "reroute maxed" d.Traffic_model.reroutable c.Traffic_model.reroute;
      approx "attracted maxed" d.Traffic_model.attracted_max
        c.Traffic_model.attracted)
    (Traffic_model.demands s) full

let test_allowance () =
  approx "allowance" 5.0
    (Traffic_model.allowance Traffic_model.{ reroute = 3.0; attracted = 2.0 })

let test_monotone_in_reroute () =
  (* more rerouted traffic always helps the beneficiary and hurts the
     transit party (linear prices) *)
  let s = scenario () in
  let at r =
    Traffic_model.utilities_exn s
      Traffic_model.
        [
          { reroute = r; attracted = 0.0 };
          { reroute = 0.0; attracted = 0.0 };
          { reroute = 0.0; attracted = 0.0 };
        ]
  in
  let ux1, uy1 = at 1.0 and ux2, uy2 = at 2.0 in
  Alcotest.(check bool) "beneficiary gains more" true (ux2 > ux1);
  Alcotest.(check bool) "transit party loses more" true (uy2 < uy1)

let suite =
  [
    Alcotest.test_case "scenario validation" `Quick test_validation;
    Alcotest.test_case "zero choice neutral" `Quick test_zero_choice_is_neutral;
    Alcotest.test_case "flow deltas (Eq. 7c hand-check)" `Quick
      test_apply_flow_deltas;
    Alcotest.test_case "utilities analytic hand-check" `Quick
      test_utility_hand_computation;
    Alcotest.test_case "choice bounds enforced" `Quick
      test_choice_bounds_enforced;
    Alcotest.test_case "full choice shape" `Quick test_full_choice_shape;
    Alcotest.test_case "allowance" `Quick test_allowance;
    Alcotest.test_case "monotone in reroute" `Quick test_monotone_in_reroute;
  ]
