(* Tests for economic MA adoption (E11) and the economic path scenario. *)

open Pan_topology
open Pan_experiments

let small_graph =
  lazy
    (Gen.graph
       (Gen.generate
          ~params:{ Gen.default_params with Gen.n_transit = 50; n_stub = 200 }
          ~seed:42 ()))

let first_peering g =
  match
    Graph.fold_peering_links
      (fun x y acc -> match acc with None -> Some (x, y) | some -> some)
      g None
  with
  | Some p -> p
  | None -> Alcotest.fail "no peering links in test graph"

let test_negotiate_pair_deterministic () =
  let g = Lazy.force small_graph in
  let x, y = first_peering g in
  let n1 = Adoption.negotiate_pair ~seed:3 g x y in
  let n2 = Adoption.negotiate_pair ~seed:3 g x y in
  Alcotest.(check bool) "same outcome" true
    (n1.Adoption.concluded = n2.Adoption.concluded
    && n1.Adoption.joint_utility = n2.Adoption.joint_utility)

let test_negotiate_pair_seed_sensitivity () =
  let g = Lazy.force small_graph in
  (* at least one pair must flip between two seeds on a 50-transit graph *)
  let flips = ref 0 in
  let count = ref 0 in
  Graph.fold_peering_links
    (fun x y () ->
      if !count < 300 then begin
        incr count;
        let n1 = Adoption.negotiate_pair ~seed:1 g x y in
        let n2 = Adoption.negotiate_pair ~seed:2 g x y in
        if n1.Adoption.concluded <> n2.Adoption.concluded then incr flips
      end)
    g ();
  Alcotest.(check bool) "business conditions matter" true (!flips > 0)

let result = lazy (Adoption.run ~sample_size:100 ~seed:17 (Lazy.force small_graph))

let test_adoption_rate_non_trivial () =
  let r = Lazy.force result in
  Alcotest.(check bool) "some adopted" true (r.Adoption.adoption_rate > 0.0);
  Alcotest.(check bool) "not everything adopted" true
    (r.Adoption.adoption_rate < 1.0);
  Alcotest.(check int) "concluded list consistent"
    (List.length r.Adoption.concluded)
    (int_of_float
       (Float.round
          (r.Adoption.adoption_rate *. float_of_int r.Adoption.pairs_evaluated)))

let test_adoption_ordering () =
  let r = Lazy.force result in
  List.iter
    (fun (pa : Adoption.per_as) ->
      Alcotest.(check bool) "GRC <= economic" true
        (pa.Adoption.grc_paths <= pa.Adoption.economic_paths);
      Alcotest.(check bool) "economic <= all-MA" true
        (pa.Adoption.economic_paths <= pa.Adoption.all_ma_paths);
      Alcotest.(check bool) "dest ordering" true
        (pa.Adoption.grc_dests <= pa.Adoption.economic_dests
        && pa.Adoption.economic_dests <= pa.Adoption.all_ma_dests))
    r.Adoption.sampled

let test_concluded_pairs_are_peers () =
  let g = Lazy.force small_graph in
  let r = Lazy.force result in
  List.iter
    (fun (x, y) ->
      Alcotest.(check bool) "peers" true
        (Graph.relationship g x y = Some Graph.Peer))
    r.Adoption.concluded

let test_economic_paths_bounds () =
  let g = Lazy.force small_graph in
  let c = Compact.freeze g in
  let index = Compact.index_of_exn c in
  let x = index (List.hd (Graph.ases g)) in
  (* nothing concluded: exactly the GRC baseline *)
  let none =
    Path_enum_compact.economic_paths ~concluded:(fun _ _ -> false) c x
  in
  Alcotest.(check int) "no MAs = GRC"
    (Path_enum_compact.total_count (Path_enum_compact.grc c x))
    (Path_enum_compact.total_count none);
  (* everything concluded: exactly the Ma_all scenario *)
  List.iter
    (fun asn ->
      let i = index asn in
      let all =
        Path_enum_compact.economic_paths ~concluded:(fun _ _ -> true) c i
      in
      Alcotest.(check int) "all MAs = Ma_all scenario"
        (Path_enum_compact.total_count
           (Path_enum_compact.scenario_paths c Path_enum.Ma_all i))
        (Path_enum_compact.total_count all))
    (List.filteri (fun i _ -> i < 25) (Graph.ases g))

(* Golden per-AS records of [result]: every sampled AS's path and
   destination counts in sample order, as an MD5 of their rendering,
   plus the negotiation totals. *)
let test_golden_records () =
  let r = Lazy.force result in
  let records =
    String.concat ";"
      (List.map
         (fun (pa : Adoption.per_as) ->
           Printf.sprintf "%d:%d,%d,%d,%d,%d,%d" (Asn.to_int pa.Adoption.asn)
             pa.Adoption.grc_paths pa.Adoption.economic_paths
             pa.Adoption.all_ma_paths pa.Adoption.grc_dests
             pa.Adoption.economic_dests pa.Adoption.all_ma_dests)
         r.Adoption.sampled)
  in
  Alcotest.(check int) "pairs evaluated" 2057 r.Adoption.pairs_evaluated;
  Alcotest.(check int) "concluded" 1165 (List.length r.Adoption.concluded);
  Alcotest.(check string) "mean joint utility"
    "0x1.92e61867c1166p+3"
    (Printf.sprintf "%h" r.Adoption.mean_joint_utility);
  Alcotest.(check string) "per-AS records"
    "0467a4f6ed7d8790b9f4fb3d6d49b5e4"
    (Digest.to_hex (Digest.string records))

let suite =
  [
    Alcotest.test_case "negotiation deterministic" `Quick
      test_negotiate_pair_deterministic;
    Alcotest.test_case "negotiation seed-sensitive" `Quick
      test_negotiate_pair_seed_sensitivity;
    Alcotest.test_case "adoption rate non-trivial" `Quick
      test_adoption_rate_non_trivial;
    Alcotest.test_case "scenario ordering" `Quick test_adoption_ordering;
    Alcotest.test_case "concluded pairs are peers" `Quick
      test_concluded_pairs_are_peers;
    Alcotest.test_case "economic_paths bounds" `Quick
      test_economic_paths_bounds;
    Alcotest.test_case "golden: per-AS records" `Quick test_golden_records;
  ]
