(* Tests for agreement-path extension (§III-B3) and flow-volume
   enforcement. *)

open Pan_topology
open Pan_econ

let approx = Alcotest.(check (float 1e-9))
let a = Gen.fig1_asn

(* ------------------------------------------------------------------ *)
(* Extension                                                           *)

let concluded_grants () =
  let _, s = Scenario_gen.fig1_scenario () in
  let r = Flow_volume_opt.optimize s in
  (s, r, Extension.of_flow_volume_result s r)

let test_grants_from_result () =
  let s, r, grants = concluded_grants () in
  Alcotest.(check bool) "concluded" true r.Flow_volume_opt.concluded;
  Alcotest.(check int) "one grant per demand"
    (List.length (Traffic_model.demands s))
    (List.length grants);
  List.iter2
    (fun (g : Extension.grant) choice ->
      approx "allowance = target" (Traffic_model.allowance choice)
        g.Extension.allowance;
      approx "nothing committed" 0.0 g.Extension.committed)
    grants r.Flow_volume_opt.choices

(* a one-sided scenario where every positive volume hurts the transit
   party and the beneficiary gains nothing (flat-rate customers): the
   flow-volume optimum is all-zero and no grants arise *)
let degenerate_scenario () =
  let g = Gen.fig1 () in
  let d = a 'D' and e = a 'E' and b = a 'B' and aa = a 'A' in
  let transit = Pricing.per_usage ~unit_price:1.0 in
  let business_d =
    Business.create ~asn:d
      ~provider_prices:[ (aa, transit) ]
      ~customer_prices:[ (Flows.stub d, Pricing.flat_rate ~fee:10.0) ]
      ()
  in
  let business_e =
    Business.create ~asn:e
      ~internal_cost:(Cost.linear ~rate:0.2)
      ~provider_prices:[ (b, transit) ]
      ~customer_prices:[ (Flows.stub e, transit) ]
      ()
  in
  Traffic_model.make_scenario_exn
    ~agreement:(Agreement.paper_example g)
    ~businesses:[ (d, business_d); (e, business_e) ]
    ~baseline:
      [
        (d, Flows.of_list [ (aa, 10.0); (Flows.stub d, 5.0) ]);
        (e, Flows.of_list [ (b, 10.0); (Flows.stub e, 5.0) ]);
      ]
    ~demands:
      Traffic_model.
        [
          {
            beneficiary = d;
            transit = e;
            dest = b;
            reroutable = 0.0;
            reroute_from = Some aa;
            attracted_max = 5.0;
          };
        ]

let test_grants_empty_when_not_concluded () =
  let s = degenerate_scenario () in
  let r = Flow_volume_opt.optimize s in
  Alcotest.(check bool) "not concluded" false r.Flow_volume_opt.concluded;
  Alcotest.(check int) "no grants" 0
    (List.length (Extension.of_flow_volume_result s r))

let test_commit_release () =
  let g =
    {
      Extension.holder = a 'D';
      segment = { Extension.via = a 'E'; dest = a 'B' };
      allowance = 10.0;
      committed = 0.0;
    }
  in
  approx "remaining" 10.0 (Extension.remaining g);
  (match Extension.commit g 4.0 with
  | Error e -> Alcotest.fail e
  | Ok g' ->
      approx "committed" 4.0 g'.Extension.committed;
      approx "remaining after" 6.0 (Extension.remaining g');
      (match Extension.commit g' 7.0 with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "over-commit accepted");
      let g'' = Extension.release g' 2.0 in
      approx "released" 2.0 g''.Extension.committed;
      let g3 = Extension.release g'' 100.0 in
      approx "release clamps" 0.0 g3.Extension.committed);
  match Extension.commit g (-1.0) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "negative volume accepted"

let test_validate_secondary () =
  let graph = Gen.fig1 () in
  let grants =
    [
      {
        Extension.holder = a 'E';
        segment = { Extension.via = a 'D'; dest = a 'A' };
        allowance = 5.0;
        committed = 0.0;
      };
    ]
  in
  (* E re-offers segment E-D-A to its peer F (the paper's a' example) *)
  let good =
    {
      Extension.grantor = a 'E';
      beneficiary = a 'F';
      through = { Extension.via = a 'D'; dest = a 'A' };
      volume = 3.0;
    }
  in
  (match Extension.validate_secondary graph grants good with
  | Error e -> Alcotest.fail e
  | Ok updated ->
      approx "committed on the base grant" 3.0
        (List.hd updated).Extension.committed);
  Alcotest.(check (list int)) "extended path F-E-D-A"
    (List.map (fun c -> Asn.to_int (a c)) [ 'F'; 'E'; 'D'; 'A' ])
    (List.map Asn.to_int (Extension.extended_path good));
  (* over-volume fails *)
  (match
     Extension.validate_secondary graph grants
       { good with Extension.volume = 6.0 }
   with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "over-volume secondary accepted");
  (* non-adjacent beneficiary fails: H is not a neighbor of E *)
  (match
     Extension.validate_secondary graph grants
       { good with Extension.beneficiary = a 'H' }
   with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "non-adjacent beneficiary accepted");
  (* unknown segment fails *)
  match
    Extension.validate_secondary graph grants
      { good with Extension.through = { Extension.via = a 'D'; dest = a 'C' } }
  with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unheld segment accepted"

let test_chained_stats_fig1 () =
  (* for D: y ∈ {C, E}.
     y=E: z ∈ peers(E)\{D} = {C, F};
       z=C: w ∈ providers(C) ∪ peers(C) = {A,B,D,E}; exclude x=D,
            y=E, neighbors(D)={A,C,E,H}: w ∈ {B} -> 1 path (D-E-C-B)
       z=F: w ∈ providers(F) ∪ peers(F) = {C, E}; exclude y=E and
            neighbors: C excluded (neighbor) -> 0
     y=C: z ∈ peers(C)\{D} = {A, B, E};
       z=A: w ∈ {B, C} minus neighbors/y: B stays -> 1 (D-C-A-B)
       z=B: w ∈ peers(B)={A,C} ∪ providers(B)={}: A not a neighbor of D?
            A IS D's provider -> excluded; C excluded -> 0
       z=E: w ∈ providers(E)={B} ∪ peers(E)={C,D,F}: B stays, C excluded,
            D=x excluded, F stays -> 2 (D-C-E-B, D-C-E-F)
     total = 4 paths, dests {B, F} *)
  let g = Gen.fig1 () in
  let count, dests = Extension.chained_stats g (a 'D') in
  Alcotest.(check int) "path count" 4 count;
  Alcotest.(check (list int)) "destinations"
    [ Asn.to_int (a 'B'); Asn.to_int (a 'F') ]
    (List.map Asn.to_int (Asn.Set.elements dests))

(* ------------------------------------------------------------------ *)
(* Enforcement                                                         *)

let key () =
  { Enforcement.beneficiary = a 'D'; via = a 'E'; dest = a 'B' }

let test_enforcement_metering () =
  let k = key () in
  let t = Enforcement.create ~targets:[ (k, 10.0) ] in
  approx "zero initially" 0.0 (Enforcement.usage t k);
  Enforcement.record t k 4.0;
  Enforcement.record t k 3.0;
  approx "accumulates" 7.0 (Enforcement.usage t k);
  Alcotest.(check int) "no violation yet" 0
    (List.length (Enforcement.current_violations t))

let test_enforcement_violation () =
  let k = key () in
  let t = Enforcement.create ~targets:[ (k, 10.0) ] in
  Enforcement.record t k 12.5;
  match Enforcement.current_violations t with
  | [ v ] ->
      approx "used" 12.5 v.Enforcement.used;
      approx "target" 10.0 v.Enforcement.target;
      approx "overage charge" 2.5
        (Enforcement.overage_charge (Pricing.per_usage ~unit_price:1.0) v)
  | _ -> Alcotest.fail "expected exactly one violation"

let test_enforcement_unknown_segment_is_target_zero () =
  let t = Enforcement.create ~targets:[] in
  let k = key () in
  Enforcement.record t k 0.1;
  Alcotest.(check int) "any use violates" 1
    (List.length (Enforcement.current_violations t))

let test_enforcement_epochs () =
  let k = key () in
  let t = Enforcement.create ~targets:[ (k, 5.0) ] in
  Enforcement.record t k 9.0;
  let vs = Enforcement.close_epoch t in
  Alcotest.(check int) "violation reported" 1 (List.length vs);
  Alcotest.(check int) "epoch counted" 1 (Enforcement.epochs_closed t);
  approx "meters reset" 0.0 (Enforcement.usage t k);
  Alcotest.(check int) "clean epoch" 0
    (List.length (Enforcement.close_epoch t))

let test_enforcement_sorted_violations () =
  let k1 = key () in
  let k2 = { Enforcement.beneficiary = a 'E'; via = a 'D'; dest = a 'A' } in
  let t = Enforcement.create ~targets:[ (k1, 1.0); (k2, 1.0) ] in
  Enforcement.record t k1 2.0;
  Enforcement.record t k2 5.0;
  match Enforcement.current_violations t with
  | [ first; second ] ->
      Alcotest.(check bool) "worst overage first" true
        (first.Enforcement.used -. first.Enforcement.target
        >= second.Enforcement.used -. second.Enforcement.target)
  | _ -> Alcotest.fail "expected two violations"

let test_enforcement_of_flow_volume () =
  let _, s = Scenario_gen.fig1_scenario () in
  let r = Flow_volume_opt.optimize s in
  let t = Enforcement.of_flow_volume s r in
  (* staying within every target: no violations *)
  List.iter2
    (fun (d : Traffic_model.segment_demand) choice ->
      Enforcement.record t
        {
          Enforcement.beneficiary = d.Traffic_model.beneficiary;
          via = d.Traffic_model.transit;
          dest = d.Traffic_model.dest;
        }
        (0.9 *. Traffic_model.allowance choice))
    (Traffic_model.demands s) r.Flow_volume_opt.choices;
  Alcotest.(check int) "within targets" 0
    (List.length (Enforcement.close_epoch t))

let test_enforcement_validation () =
  (try
     ignore (Enforcement.create ~targets:[ (key (), -1.0) ]);
     Alcotest.fail "negative target accepted"
   with Invalid_argument _ -> ());
  (try
     ignore (Enforcement.create ~targets:[ (key (), 1.0); (key (), 2.0) ]);
     Alcotest.fail "duplicate accepted"
   with Invalid_argument _ -> ());
  let t = Enforcement.create ~targets:[] in
  try
    Enforcement.record t (key ()) (-1.0);
    Alcotest.fail "negative volume accepted"
  with Invalid_argument _ -> ()

let suite =
  [
    Alcotest.test_case "grants from flow-volume result" `Quick
      test_grants_from_result;
    Alcotest.test_case "no grants without conclusion" `Quick
      test_grants_empty_when_not_concluded;
    Alcotest.test_case "commit / release" `Quick test_commit_release;
    Alcotest.test_case "validate secondary (a' example)" `Quick
      test_validate_secondary;
    Alcotest.test_case "chained stats on fig1 (hand-checked)" `Quick
      test_chained_stats_fig1;
    Alcotest.test_case "metering" `Quick test_enforcement_metering;
    Alcotest.test_case "violation and overage charge" `Quick
      test_enforcement_violation;
    Alcotest.test_case "unknown segment" `Quick
      test_enforcement_unknown_segment_is_target_zero;
    Alcotest.test_case "epochs" `Quick test_enforcement_epochs;
    Alcotest.test_case "violations sorted" `Quick
      test_enforcement_sorted_violations;
    Alcotest.test_case "of_flow_volume" `Quick test_enforcement_of_flow_volume;
    Alcotest.test_case "enforcement validation" `Quick
      test_enforcement_validation;
  ]
