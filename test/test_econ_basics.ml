(* Tests for Pricing, Cost, Flows and Business — the building blocks of
   the §III-A model, checked against hand computations. *)

open Pan_topology
open Pan_econ

let approx = Alcotest.(check (float 1e-9))
let asn = Asn.of_int

(* ------------------------------------------------------------------ *)
(* Pricing                                                             *)

let test_pricing_flat_rate () =
  let p = Pricing.flat_rate ~fee:100.0 in
  approx "zero flow" 100.0 (Pricing.charge p 0.0);
  approx "any flow" 100.0 (Pricing.charge p 42.0);
  approx "marginal" 0.0 (Pricing.marginal p 42.0);
  Alcotest.(check bool) "is flat" true (Pricing.is_flat_rate p)

let test_pricing_per_usage () =
  let p = Pricing.per_usage ~unit_price:2.5 in
  approx "linear" 25.0 (Pricing.charge p 10.0);
  approx "marginal" 2.5 (Pricing.marginal p 10.0);
  Alcotest.(check bool) "not flat" false (Pricing.is_flat_rate p)

let test_pricing_congestion () =
  let p = Pricing.congestion ~alpha:0.5 ~beta:2.0 in
  approx "superlinear" 50.0 (Pricing.charge p 10.0);
  approx "marginal grows" 10.0 (Pricing.marginal p 10.0);
  try
    ignore (Pricing.congestion ~alpha:1.0 ~beta:1.0);
    Alcotest.fail "beta = 1 accepted"
  with Invalid_argument _ -> ()

let test_pricing_free () =
  approx "free" 0.0 (Pricing.charge Pricing.free 1000.0)

let test_pricing_validation () =
  (try
     ignore (Pricing.make ~alpha:(-1.0) ~beta:0.0);
     Alcotest.fail "negative alpha accepted"
   with Invalid_argument _ -> ());
  try
    ignore (Pricing.charge (Pricing.per_usage ~unit_price:1.0) (-2.0));
    Alcotest.fail "negative flow accepted"
  with Invalid_argument _ -> ()

let qcheck_pricing_monotone =
  QCheck.Test.make ~count:200 ~name:"pricing is monotone in flow"
    QCheck.(quad (float_range 0.0 5.0) (float_range 0.0 3.0)
              (float_range 0.0 100.0) (float_range 0.0 50.0))
    (fun (alpha, beta, f, df) ->
      let p = Pricing.make ~alpha ~beta in
      Pricing.charge p f <= Pricing.charge p (f +. df) +. 1e-9)

(* ------------------------------------------------------------------ *)
(* Cost                                                                *)

let test_cost_zero_linear_affine () =
  approx "zero" 0.0 (Cost.eval Cost.zero 5.0);
  approx "linear" 1.5 (Cost.eval (Cost.linear ~rate:0.3) 5.0);
  approx "affine" 11.5 (Cost.eval (Cost.affine ~base:10.0 ~rate:0.3) 5.0)

let test_cost_power () =
  approx "power" 50.0 (Cost.eval (Cost.power ~alpha:0.5 ~beta:2.0) 10.0);
  approx "power beta 0" 0.5 (Cost.eval (Cost.power ~alpha:0.5 ~beta:0.0) 10.0)

let test_cost_piecewise () =
  let c = Cost.piecewise_linear [ (10.0, 1.0); (20.0, 2.0) ] in
  approx "first segment" 5.0 (Cost.eval c 5.0);
  approx "at breakpoint" 10.0 (Cost.eval c 10.0);
  approx "second segment" 20.0 (Cost.eval c 15.0);
  approx "beyond last breakpoint" 70.0 (Cost.eval c 40.0)

let test_cost_piecewise_validation () =
  (try
     ignore (Cost.piecewise_linear []);
     Alcotest.fail "empty accepted"
   with Invalid_argument _ -> ());
  try
    ignore (Cost.piecewise_linear [ (10.0, 1.0); (5.0, 1.0) ]);
    Alcotest.fail "non-increasing breakpoints accepted"
  with Invalid_argument _ -> ()

let qcheck_cost_monotone =
  QCheck.Test.make ~count:200 ~name:"internal cost is monotone"
    QCheck.(pair (float_range 0.0 50.0) (float_range 0.0 20.0))
    (fun (f, df) ->
      let c = Cost.piecewise_linear [ (10.0, 0.5); (30.0, 2.0) ] in
      Cost.eval c f <= Cost.eval c (f +. df) +. 1e-9)

(* ------------------------------------------------------------------ *)
(* Flows                                                               *)

let test_flows_basics () =
  let f = Flows.of_list [ (asn 1, 10.0); (asn 2, 6.0) ] in
  approx "flow to 1" 10.0 (Flows.flow_to f (asn 1));
  approx "unlisted" 0.0 (Flows.flow_to f (asn 99));
  approx "total is half the sum" 8.0 (Flows.total f)

let test_flows_set_add () =
  let f = Flows.of_list [ (asn 1, 10.0) ] in
  let f = Flows.set f (asn 2) 4.0 in
  approx "set" 4.0 (Flows.flow_to f (asn 2));
  let f = Flows.add f (asn 1) (-3.0) in
  approx "add negative" 7.0 (Flows.flow_to f (asn 1));
  let f = Flows.add f (asn 1) (-100.0) in
  approx "clamped at zero" 0.0 (Flows.flow_to f (asn 1))

let test_flows_validation () =
  (try
     ignore (Flows.of_list [ (asn 1, -1.0) ]);
     Alcotest.fail "negative accepted"
   with Invalid_argument _ -> ());
  try
    ignore (Flows.of_list [ (asn 1, 1.0); (asn 1, 2.0) ]);
    Alcotest.fail "duplicate accepted"
  with Invalid_argument _ -> ()

let test_flows_stub () =
  let s = Flows.stub (asn 5) in
  Alcotest.(check bool) "stub flag" true (Flows.is_stub s);
  Alcotest.(check bool) "real AS not stub" false (Flows.is_stub (asn 5));
  Alcotest.(check bool) "stubs distinct per AS" false
    (Asn.equal (Flows.stub (asn 5)) (Flows.stub (asn 6)))

let test_flows_neighbors_fold () =
  let f = Flows.of_list [ (asn 3, 1.0); (asn 1, 2.0); (asn 2, 0.0) ] in
  Alcotest.(check (list int)) "nonzero neighbors ascending" [ 1; 3 ]
    (List.map Asn.to_int (Flows.neighbors f));
  let sum = Flows.fold (fun _ v acc -> acc +. v) f 0.0 in
  approx "fold sums" 3.0 sum

(* ------------------------------------------------------------------ *)
(* Business (Eq. 1)                                                    *)

(* The paper's example after Eq. 1: D with provider A, customer H.
   Revenue must cover provider charges plus internal cost. *)
let d_profile () =
  Business.create ~asn:(asn 4)
    ~internal_cost:(Cost.linear ~rate:0.1)
    ~provider_prices:[ (asn 1, Pricing.per_usage ~unit_price:1.0) ]
    ~customer_prices:
      [
        (asn 8, Pricing.per_usage ~unit_price:1.2);
        (Flows.stub (asn 4), Pricing.per_usage ~unit_price:2.0);
      ]
    ()

let test_business_revenue_cost_utility () =
  let b = d_profile () in
  let f =
    Flows.of_list
      [ (asn 1, 10.0); (asn 8, 6.0); (Flows.stub (asn 4), 4.0) ]
  in
  (* revenue = 1.2*6 + 2*4 = 15.2; provider = 1*10 = 10;
     internal = 0.1 * (20/2) = 1.0; utility = 15.2 - 11 = 4.2 *)
  approx "revenue" 15.2 (Business.revenue b f);
  approx "cost" 11.0 (Business.cost b f);
  approx "utility" 4.2 (Business.utility b f)

let test_business_profit_condition () =
  (* the inequality after Eq. 1: p_DH + p_DΓ > p_AD + i_D iff U_D > 0 *)
  let b = d_profile () in
  let loss =
    Flows.of_list [ (asn 1, 30.0); (asn 8, 5.0); (Flows.stub (asn 4), 2.0) ]
  in
  Alcotest.(check bool) "loss-making flows" true (Business.utility b loss < 0.0)

let test_business_peers_free () =
  (* flow to a peer neither earns nor costs link charges, only internal *)
  let b = d_profile () in
  let without = Flows.of_list [ (asn 8, 6.0) ] in
  let with_peer = Flows.of_list [ (asn 8, 6.0); (asn 5, 10.0) ] in
  let diff = Business.utility b without -. Business.utility b with_peer in
  (* only extra internal cost: 0.1 * (10/2) = 0.5 *)
  approx "peer traffic costs only internally" 0.5 diff

let test_business_builders () =
  let b = d_profile () in
  let b = Business.with_customer b (asn 9) (Pricing.flat_rate ~fee:7.0) in
  let f = Flows.of_list [ (asn 9, 1.0) ] in
  approx "new customer billed" 7.0 (Business.revenue b f);
  let b = Business.with_internal_cost b Cost.zero in
  approx "no internal cost" 7.0 (Business.utility b f)

let test_business_validation () =
  try
    ignore
      (Business.create ~asn:(asn 1)
         ~provider_prices:[ (asn 2, Pricing.free) ]
         ~customer_prices:[ (asn 2, Pricing.free) ]
         ());
    Alcotest.fail "provider and customer overlap accepted"
  with Invalid_argument _ -> ()

let test_business_of_graph () =
  let g = Gen.fig1 () in
  let d = Gen.fig1_asn 'D' in
  let b = Business.of_graph (Graph.view g) d in
  Alcotest.(check (list int)) "providers from graph"
    [ Asn.to_int (Gen.fig1_asn 'A') ]
    (List.map Asn.to_int (Business.providers b));
  Alcotest.(check bool) "stub included as customer" true
    (List.exists (Asn.equal (Flows.stub d)) (Business.customers b))

let suite =
  [
    Alcotest.test_case "pricing flat rate" `Quick test_pricing_flat_rate;
    Alcotest.test_case "pricing per usage" `Quick test_pricing_per_usage;
    Alcotest.test_case "pricing congestion" `Quick test_pricing_congestion;
    Alcotest.test_case "pricing free" `Quick test_pricing_free;
    Alcotest.test_case "pricing validation" `Quick test_pricing_validation;
    QCheck_alcotest.to_alcotest qcheck_pricing_monotone;
    Alcotest.test_case "cost zero/linear/affine" `Quick
      test_cost_zero_linear_affine;
    Alcotest.test_case "cost power" `Quick test_cost_power;
    Alcotest.test_case "cost piecewise" `Quick test_cost_piecewise;
    Alcotest.test_case "cost piecewise validation" `Quick
      test_cost_piecewise_validation;
    QCheck_alcotest.to_alcotest qcheck_cost_monotone;
    Alcotest.test_case "flows basics" `Quick test_flows_basics;
    Alcotest.test_case "flows set/add" `Quick test_flows_set_add;
    Alcotest.test_case "flows validation" `Quick test_flows_validation;
    Alcotest.test_case "flows stub" `Quick test_flows_stub;
    Alcotest.test_case "flows neighbors/fold" `Quick
      test_flows_neighbors_fold;
    Alcotest.test_case "business Eq.1 hand-check" `Quick
      test_business_revenue_cost_utility;
    Alcotest.test_case "business profit condition" `Quick
      test_business_profit_condition;
    Alcotest.test_case "peer traffic settlement-free" `Quick
      test_business_peers_free;
    Alcotest.test_case "business builders" `Quick test_business_builders;
    Alcotest.test_case "business validation" `Quick test_business_validation;
    Alcotest.test_case "business of_graph" `Quick test_business_of_graph;
  ]
