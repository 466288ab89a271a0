(* Tests for topology metrics (customer cones, summaries) and the
   Eq. 4/5 revenue-cost decomposition. *)

open Pan_topology
open Pan_econ

let approx = Alcotest.(check (float 1e-9))
let a = Gen.fig1_asn
let g = Gen.fig1 ()

(* ------------------------------------------------------------------ *)
(* Metrics                                                             *)

let test_customer_cone_fig1 () =
  (* cone(A) = {A, D, H}; cone(D) = {D, H}; cone(H) = {H} *)
  let cone x = Metrics.customer_cone g (a x) in
  Alcotest.(check (list int)) "cone of A"
    (List.map (fun c -> Asn.to_int (a c)) [ 'A'; 'D'; 'H' ])
    (List.map Asn.to_int (Asn.Set.elements (cone 'A')));
  Alcotest.(check int) "cone of D" 2 (Metrics.cone_size g (a 'D'));
  Alcotest.(check int) "cone of H" 1 (Metrics.cone_size g (a 'H'))

let test_cone_sizes_consistent () =
  let sizes = Metrics.cone_sizes g in
  List.iter
    (fun x ->
      Alcotest.(check int) "matches per-AS computation"
        (Metrics.cone_size g x) (Asn.Map.find x sizes))
    (Graph.ases g)

let test_cone_sizes_on_generated () =
  let gen =
    Gen.generate
      ~params:{ Gen.default_params with Gen.n_transit = 40; Gen.n_stub = 160 }
      ~seed:3 ()
  in
  let g' = Gen.graph gen in
  let sizes = Metrics.cone_sizes g' in
  (* stubs have singleton cones; some transit AS has a bigger cone *)
  List.iter
    (fun x -> Alcotest.(check int) "stub cone" 1 (Asn.Map.find x sizes))
    (Gen.stubs gen);
  Alcotest.(check bool) "transit cones grow" true
    (List.exists (fun x -> Asn.Map.find x sizes > 10) (Gen.transit gen));
  (* provider cones contain their customers' cones *)
  List.iter
    (fun x ->
      Asn.Set.iter
        (fun c ->
          Alcotest.(check bool) "cone monotone" true
            (Asn.Map.find x sizes >= Asn.Map.find c sizes))
        (Graph.customers g' x))
    (Graph.ases g')

let test_hierarchy_depth () =
  Alcotest.(check int) "A: A->D->H" 2 (Metrics.hierarchy_depth g (a 'A'));
  Alcotest.(check int) "D: D->H" 1 (Metrics.hierarchy_depth g (a 'D'));
  Alcotest.(check int) "stub" 0 (Metrics.hierarchy_depth g (a 'H'))

let test_hierarchy_cycle_detected () =
  (* a 3-cycle of provider-customer links (a 2-cycle is already rejected
     by Graph's one-relationship-per-pair invariant) *)
  let g' = Graph.create () in
  let n1 = Asn.of_int 1 and n2 = Asn.of_int 2 and n3 = Asn.of_int 3 in
  Graph.add_provider_customer g' ~provider:n1 ~customer:n2;
  Graph.add_provider_customer g' ~provider:n2 ~customer:n3;
  Graph.add_provider_customer g' ~provider:n3 ~customer:n1;
  try
    ignore (Metrics.hierarchy_depth g' n1);
    Alcotest.fail "cycle not detected"
  with Invalid_argument _ -> ()

let test_summary_fig1 () =
  let s = Metrics.summary g in
  Alcotest.(check int) "ases" 9 s.Metrics.ases;
  Alcotest.(check int) "p2c" 6 s.Metrics.p2c_links;
  Alcotest.(check int) "p2p" 7 s.Metrics.p2p_links;
  approx "peering share" (7.0 /. 13.0) s.Metrics.peering_share;
  Alcotest.(check int) "provider-less = A,B,C" 3 s.Metrics.provider_less;
  Alcotest.(check int) "depth" 2 s.Metrics.max_hierarchy_depth;
  (* E has degree 5: B, C, D, F, I *)
  Alcotest.(check int) "max degree" 5 s.Metrics.max_degree

let test_summary_generated_realism () =
  let g' =
    Gen.graph
      (Gen.generate
         ~params:{ Gen.default_params with Gen.n_transit = 60; Gen.n_stub = 240 }
         ~seed:5 ())
  in
  let s = Metrics.summary g' in
  Alcotest.(check bool) "peering dominates (CAIDA-like)" true
    (s.Metrics.peering_share > 0.5);
  Alcotest.(check bool) "heavy tail: max >> mean" true
    (float_of_int s.Metrics.max_degree > 5.0 *. s.Metrics.mean_degree);
  Alcotest.(check bool) "shallow hierarchy" true
    (s.Metrics.max_hierarchy_depth <= 10)

let test_degree_histogram () =
  let h = Metrics.degree_histogram ~bins:5 g in
  let total = Array.fold_left (fun acc (_, _, c) -> acc + c) 0 h in
  Alcotest.(check int) "every AS binned" 9 total

(* ------------------------------------------------------------------ *)
(* Decomposition                                                       *)

let test_decomposition_matches_utilities () =
  let _, s = Scenario_gen.fig1_scenario () in
  let choices = Traffic_model.full_choice s in
  match Decomposition.of_choices s choices with
  | Error e -> Alcotest.fail e
  | Ok (dx, dy) ->
      let ux, uy = Traffic_model.utilities_exn s choices in
      approx "u_x from decomposition" ux dx.Decomposition.utility;
      approx "u_y from decomposition" uy dy.Decomposition.utility;
      approx "cost split adds up x"
        dx.Decomposition.d_cost
        (dx.Decomposition.d_internal +. dx.Decomposition.d_provider);
      approx "u = Δr − Δc" dx.Decomposition.utility
        (dx.Decomposition.d_revenue -. dx.Decomposition.d_cost)

let test_decomposition_analytic () =
  (* the analytic expectations from the Eq. 7 hand-check: for the first
     demand only (D-E-B at r=2, δ=1): Δr_D = 2δ, Δi_D = 0.1δ,
     Δprovider_D = −r; Δr_E = 0, Δi_E = 0.1(r+δ), Δprovider_E = r+δ *)
  let _, s = Scenario_gen.fig1_scenario () in
  let choices =
    Traffic_model.
      [
        { reroute = 2.0; attracted = 1.0 };
        { reroute = 0.0; attracted = 0.0 };
        { reroute = 0.0; attracted = 0.0 };
      ]
  in
  match Decomposition.of_choices s choices with
  | Error e -> Alcotest.fail e
  | Ok (dx, dy) ->
      approx "Δr_D" 2.0 dx.Decomposition.d_revenue;
      approx "Δi_D" 0.1 dx.Decomposition.d_internal;
      approx "Δprovider_D" (-2.0) dx.Decomposition.d_provider;
      approx "Δr_E" 0.0 dy.Decomposition.d_revenue;
      approx "Δi_E" 0.3 dy.Decomposition.d_internal;
      approx "Δprovider_E" 3.0 dy.Decomposition.d_provider

let test_peering_scenario_eq45 () =
  (* §III-B1: with per-usage customer prices and cheap internals, the
     peering agreement's strongest rationale — strongly negative Δc from
     avoiding the provider — shows up in the decomposition *)
  let _, s = Scenario_gen.fig1_peering_scenario () in
  let dx, dy = Decomposition.of_full s in
  Alcotest.(check bool) "provider charges fall for D" true
    (dx.Decomposition.d_provider < 0.0);
  Alcotest.(check bool) "provider charges fall for E" true
    (dy.Decomposition.d_provider < 0.0);
  Alcotest.(check bool) "both utilities positive" true
    (dx.Decomposition.utility > 0.0 && dy.Decomposition.utility > 0.0);
  (* peering conforms to the GRC, unlike the Eq. 6 agreement *)
  let _, s' = Scenario_gen.fig1_peering_scenario () in
  Alcotest.(check bool) "GRC-conforming" false
    (Agreement.violates_grc (Traffic_model.agreement s'))

let test_peering_can_be_unattractive () =
  (* the paper's flip side (§III-B1): a substantial internal-cost increase
     with no extra end-host income makes peering unattractive.  At
     internal rate 3, carrying the partner's traffic costs strictly more
     than the provider savings plus customer billing for any positive
     volume split, so the flow-volume optimum collapses to zero. *)
  let _, s =
    Scenario_gen.fig1_peering_scenario ~stub_price:0.0 ~internal_rate:3.0 ()
  in
  let r = Flow_volume_opt.optimize s in
  Alcotest.(check bool) "unattractive peering not concluded" false
    r.Flow_volume_opt.concluded;
  (* at full volumes both parties lose outright *)
  let dx, dy = Decomposition.of_full s in
  Alcotest.(check bool) "full-volume utilities negative" true
    (dx.Decomposition.utility < 0.0 && dy.Decomposition.utility < 0.0)

let suite =
  [
    Alcotest.test_case "customer cone (fig1)" `Quick test_customer_cone_fig1;
    Alcotest.test_case "cone_sizes consistent" `Quick
      test_cone_sizes_consistent;
    Alcotest.test_case "cone sizes on generated graph" `Quick
      test_cone_sizes_on_generated;
    Alcotest.test_case "hierarchy depth" `Quick test_hierarchy_depth;
    Alcotest.test_case "hierarchy cycle detected" `Quick
      test_hierarchy_cycle_detected;
    Alcotest.test_case "summary (fig1)" `Quick test_summary_fig1;
    Alcotest.test_case "generated graph realism" `Quick
      test_summary_generated_realism;
    Alcotest.test_case "degree histogram" `Quick test_degree_histogram;
    Alcotest.test_case "decomposition = utilities" `Quick
      test_decomposition_matches_utilities;
    Alcotest.test_case "decomposition analytic (Eq. 7)" `Quick
      test_decomposition_analytic;
    Alcotest.test_case "peering example (Eq. 4/5)" `Quick
      test_peering_scenario_eq45;
    Alcotest.test_case "peering can be unattractive" `Quick
      test_peering_can_be_unattractive;
  ]
