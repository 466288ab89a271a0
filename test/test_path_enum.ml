(* Tests for length-3 path enumeration and MA path generation — the core
   of the §VI analysis — on the ASN-set enumerator of the oracle library,
   which test_compact.ml pins the production Path_enum_compact to.
   Hand-checked on the Fig. 1 topology plus consistency properties on
   generated topologies. *)

open Pan_topology
module Legacy = Pan_oracle.Path_enum_legacy

let a = Gen.fig1_asn
let g = Gen.fig1 ()

let mids_to_list m =
  Asn.Map.bindings m
  |> List.concat_map (fun (mid, zs) ->
         List.map (fun z -> (Asn.to_int mid, Asn.to_int z)) (Asn.Set.elements zs))
  |> List.sort compare

let test_grc_fig1_d () =
  (* GRC length-3 paths from D:
     via provider A (exports everything): customers {D is excl}, peers B,C
       -> A's customers: D only (excluded as source) => peers/providers: B, C
     via peer E: customers I only
     via peer C: customers F only
     via customer H: customers none
     => D-A-B, D-A-C, D-E-I, D-C-F *)
  let got = mids_to_list (Legacy.grc g (a 'D')) in
  let expected =
    List.sort compare
      [
        (Asn.to_int (a 'A'), Asn.to_int (a 'B'));
        (Asn.to_int (a 'A'), Asn.to_int (a 'C'));
        (Asn.to_int (a 'E'), Asn.to_int (a 'I'));
        (Asn.to_int (a 'C'), Asn.to_int (a 'F'));
      ]
  in
  Alcotest.(check (list (pair int int))) "GRC paths from D" expected got

let test_grc_fig1_h () =
  (* H's only neighbor is its provider D: H-D-{A,C,E} (peers+providers of D,
     exported to customer H) plus customers of D (none besides H). *)
  let got = mids_to_list (Legacy.grc g (a 'H')) in
  let expected =
    List.sort compare
      (List.map
         (fun c -> (Asn.to_int (a 'D'), Asn.to_int (a c)))
         [ 'A'; 'C'; 'E' ])
  in
  Alcotest.(check (list (pair int int))) "GRC paths from H" expected got

let test_ma_direct_fig1_d () =
  (* D's peers: E and C.
     MA with E gives providers(E)={B} and peers(E)\{D}={C,F}, minus
     customers(D)={H}: {B, C, F}.
     MA with C gives providers(C)={} wait C is tier-1: providers(C)=∅,
     peers(C)\{D}={A,B,E}: {A, B, E}. *)
  let got = mids_to_list (Legacy.ma_direct g (a 'D')) in
  let expected =
    List.sort compare
      [
        (Asn.to_int (a 'E'), Asn.to_int (a 'B'));
        (Asn.to_int (a 'E'), Asn.to_int (a 'C'));
        (Asn.to_int (a 'E'), Asn.to_int (a 'F'));
        (Asn.to_int (a 'C'), Asn.to_int (a 'A'));
        (Asn.to_int (a 'C'), Asn.to_int (a 'B'));
        (Asn.to_int (a 'C'), Asn.to_int (a 'E'));
      ]
  in
  Alcotest.(check (list (pair int int))) "MA direct paths of D" expected got

let test_ma_direct_excludes_own_customers () =
  (* E's MA with D would grant D's peers {C} (E excluded) and providers
     {A}; none of them are customers of E, but I (E's customer) must never
     appear as a via-D destination. *)
  let m = Legacy.ma_direct g (a 'E') in
  let dests = Legacy.dest_set m in
  Alcotest.(check bool) "I not an MA destination" false
    (Asn.Set.mem (a 'I') dests)

let test_ma_direct_partner_restriction () =
  let only_e =
    Legacy.ma_direct ~partners:(Asn.Set.singleton (a 'E')) g (a 'D')
  in
  Alcotest.(check int) "one mid" 1 (Asn.Map.cardinal only_e);
  Alcotest.(check bool) "mid is E" true (Asn.Map.mem (a 'E') only_e);
  (* restricting to a non-peer yields nothing *)
  let none =
    Legacy.ma_direct ~partners:(Asn.Set.singleton (a 'A')) g (a 'D')
  in
  Alcotest.(check int) "no paths via non-peer" 0 (Legacy.total_count none)

let test_ma_indirect_fig1_b () =
  (* B gains B-E-D indirectly from MA(E, D) (B is E's provider, B not a
     customer of D) and B-A-... A's peers' MAs: B ∈ peers(A); MA(A, ?) —
     A's peers are B, C: MA(A,C) gives C access to B, so B gains B-A-C;
     similarly B-C-A via MA(C,A); B-C-D via MA(C,D), B-C-E via MA(C,E),
     B-E-C via MA(E,C), B-E-F via MA(E,F). *)
  let got = mids_to_list (Legacy.ma_indirect g (a 'B')) in
  let expect =
    List.sort compare
      [
        (Asn.to_int (a 'E'), Asn.to_int (a 'D'));
        (Asn.to_int (a 'E'), Asn.to_int (a 'C'));
        (Asn.to_int (a 'E'), Asn.to_int (a 'F'));
        (Asn.to_int (a 'A'), Asn.to_int (a 'C'));
        (Asn.to_int (a 'C'), Asn.to_int (a 'A'));
        (Asn.to_int (a 'C'), Asn.to_int (a 'D'));
        (Asn.to_int (a 'C'), Asn.to_int (a 'E'));
      ]
  in
  Alcotest.(check (list (pair int int))) "indirect MA paths of B" expect got

let test_ma_and_grc_disjoint () =
  (* MA-added paths violate the GRC, so they can never coincide with GRC
     paths — on Fig. 1 and on a generated topology. *)
  let check_disjoint g x =
    let grc = Legacy.grc g x in
    let ma = Legacy.ma_direct g x in
    Asn.Map.iter
      (fun mid zs ->
        match Asn.Map.find_opt mid grc with
        | None -> ()
        | Some grc_zs ->
            if not (Asn.Set.is_empty (Asn.Set.inter zs grc_zs)) then
              Alcotest.failf "overlap at AS%d" (Asn.to_int x))
      ma
  in
  List.iter (fun c -> check_disjoint g (a c)) [ 'A'; 'B'; 'C'; 'D'; 'E'; 'F' ];
  let params =
    { Gen.default_params with Gen.n_transit = 40; Gen.n_stub = 150 }
  in
  let g' = Gen.graph (Gen.generate ~params ~seed:11 ()) in
  List.iter (fun x -> check_disjoint g' x) (Graph.ases g')

let test_ma_paths_are_grc_violations () =
  (* every direct MA path, seen as an AS path, violates valley-freeness *)
  let x = a 'D' in
  Legacy.iter_paths
    (fun ~mid ~dst ->
      let p = Path.make_exn g [ x; mid; dst ] in
      Alcotest.(check bool) "MA path violates GRC" false
        (Path.is_valley_free g p))
    (Legacy.ma_direct g x)

let test_grc_paths_are_valley_free () =
  let check g x =
    Legacy.iter_paths
      (fun ~mid ~dst ->
        let p = Path.make_exn g [ x; mid; dst ] in
        Alcotest.(check bool) "GRC path valley-free" true
          (Path.is_valley_free g p))
      (Legacy.grc g x)
  in
  List.iter (fun c -> check g (a c)) [ 'A'; 'D'; 'H' ]

let test_counts_and_dests () =
  let m = Legacy.grc g (a 'D') in
  Alcotest.(check int) "total count" 4 (Legacy.total_count m);
  Alcotest.(check int) "distinct destinations" 4
    (Asn.Set.cardinal (Legacy.dest_set m))

let test_union_diff () =
  let m1 = Legacy.grc g (a 'D') in
  let m2 = Legacy.ma_direct g (a 'D') in
  let u = Legacy.union m1 m2 in
  Alcotest.(check int) "union counts add (disjoint)"
    (Legacy.total_count m1 + Legacy.total_count m2)
    (Legacy.total_count u);
  let d = Legacy.diff u m1 in
  Alcotest.(check int) "diff removes the base" (Legacy.total_count m2)
    (Legacy.total_count d)

let test_by_destination_inverts () =
  let m = Legacy.scenario_paths g Legacy.Ma_all (a 'D') in
  let inv = Legacy.by_destination m in
  Alcotest.(check int) "path count preserved" (Legacy.total_count m)
    (Legacy.total_count inv);
  (* spot-check: D-E-B appears as dest B with mid E *)
  match Asn.Map.find_opt (a 'B') inv with
  | None -> Alcotest.fail "destination B missing"
  | Some mids -> Alcotest.(check bool) "mid E" true (Asn.Set.mem (a 'E') mids)

let test_top_partners () =
  let top = Legacy.top_partners g ~n:2 (a 'D') in
  Alcotest.(check int) "two partners" 2 (List.length top);
  (* E yields 3 new paths, C yields 3; tie broken by AS number: C < E *)
  Alcotest.(check (list int)) "ranking"
    [ Asn.to_int (a 'C'); Asn.to_int (a 'E') ]
    (List.map Asn.to_int top);
  Alcotest.(check int) "n larger than peer count is capped" 2
    (List.length (Legacy.top_partners g ~n:10 (a 'D')))

let test_scenario_monotonicity () =
  (* GRC ⊆ Top1 ⊆ Top2 ⊆ ... ⊆ MA* ⊆ MA, pointwise in count, on a
     generated topology. *)
  let params =
    { Gen.default_params with Gen.n_transit = 40; Gen.n_stub = 150 }
  in
  let g' = Gen.graph (Gen.generate ~params ~seed:3 ()) in
  let order =
    Legacy.
      [ Grc; Ma_top 1; Ma_top 2; Ma_top 5; Ma_direct_only; Ma_all ]
  in
  List.iter
    (fun x ->
      let counts =
        List.map
          (fun s -> Legacy.total_count (Legacy.scenario_paths g' s x))
          order
      in
      let rec monotone = function
        | a :: (b :: _ as rest) -> a <= b && monotone rest
        | _ -> true
      in
      if not (monotone counts) then
        Alcotest.failf "scenario counts not monotone at AS%d" (Asn.to_int x))
    (Graph.ases g')

let test_additional_paths () =
  let add = Legacy.additional_paths g Legacy.Ma_direct_only (a 'D') in
  Alcotest.(check int) "additional = MA direct" 6 (Legacy.total_count add);
  let none = Legacy.additional_paths g Legacy.Grc (a 'D') in
  Alcotest.(check int) "GRC adds nothing" 0 (Legacy.total_count none)

let test_scenario_labels () =
  Alcotest.(check string) "grc" "GRC" (Path_enum.scenario_label Path_enum.Grc);
  Alcotest.(check string) "top" "MA* (Top 3)"
    (Path_enum.scenario_label (Path_enum.Ma_top 3))

let qcheck_dest_set_bounded =
  QCheck.Test.make ~count:20 ~name:"destinations <= paths, paths >= 0"
    QCheck.(pair (int_range 1 1000) (int_range 0 3))
    (fun (seed, scenario_idx) ->
      let params =
        { Gen.default_params with Gen.n_transit = 20; Gen.n_stub = 60 }
      in
      let g = Gen.graph (Gen.generate ~params ~seed ()) in
      let scenario =
        List.nth
          Legacy.[ Grc; Ma_all; Ma_direct_only; Ma_top 1 ]
          scenario_idx
      in
      List.for_all
        (fun x ->
          let m = Legacy.scenario_paths g scenario x in
          Asn.Set.cardinal (Legacy.dest_set m) <= Legacy.total_count m)
        (Graph.ases g))

let suite =
  [
    Alcotest.test_case "GRC paths from D (hand-checked)" `Quick
      test_grc_fig1_d;
    Alcotest.test_case "GRC paths from H (hand-checked)" `Quick
      test_grc_fig1_h;
    Alcotest.test_case "MA direct paths of D (hand-checked)" `Quick
      test_ma_direct_fig1_d;
    Alcotest.test_case "MA excludes own customers" `Quick
      test_ma_direct_excludes_own_customers;
    Alcotest.test_case "MA partner restriction" `Quick
      test_ma_direct_partner_restriction;
    Alcotest.test_case "indirect MA paths of B (hand-checked)" `Quick
      test_ma_indirect_fig1_b;
    Alcotest.test_case "MA and GRC path sets disjoint" `Quick
      test_ma_and_grc_disjoint;
    Alcotest.test_case "MA paths violate valley-freeness" `Quick
      test_ma_paths_are_grc_violations;
    Alcotest.test_case "GRC paths are valley-free" `Quick
      test_grc_paths_are_valley_free;
    Alcotest.test_case "counts and destinations" `Quick test_counts_and_dests;
    Alcotest.test_case "union / diff" `Quick test_union_diff;
    Alcotest.test_case "by_destination inverts" `Quick
      test_by_destination_inverts;
    Alcotest.test_case "top partners" `Quick test_top_partners;
    Alcotest.test_case "scenario monotonicity" `Quick
      test_scenario_monotonicity;
    Alcotest.test_case "additional paths" `Quick test_additional_paths;
    Alcotest.test_case "scenario labels" `Quick test_scenario_labels;
    QCheck_alcotest.to_alcotest qcheck_dest_set_bounded;
  ]
