(* Tests for Pan_topology.Asn and Pan_topology.Graph. *)

open Pan_topology

let asn = Asn.of_int

let small () =
  let g = Graph.create () in
  Graph.add_provider_customer g ~provider:(asn 1) ~customer:(asn 2);
  Graph.add_provider_customer g ~provider:(asn 1) ~customer:(asn 3);
  Graph.add_peering g (asn 2) (asn 3);
  g

let test_asn_basics () =
  Alcotest.(check int) "round trip" 42 (Asn.to_int (asn 42));
  Alcotest.(check bool) "equal" true (Asn.equal (asn 5) (asn 5));
  Alcotest.check_raises "negative" (Invalid_argument "Asn.of_int: negative AS number")
    (fun () -> ignore (asn (-1)))

let test_counts () =
  let g = small () in
  Alcotest.(check int) "ases" 3 (Graph.num_ases g);
  Alcotest.(check int) "p2c" 2 (Graph.num_provider_customer_links g);
  Alcotest.(check int) "p2p" 1 (Graph.num_peering_links g)

let test_neighbor_decomposition () =
  let g = small () in
  Alcotest.(check int) "providers of 2" 1
    (Asn.Set.cardinal (Graph.providers g (asn 2)));
  Alcotest.(check bool) "1 is provider of 2" true
    (Asn.Set.mem (asn 1) (Graph.providers g (asn 2)));
  Alcotest.(check bool) "3 is peer of 2" true
    (Asn.Set.mem (asn 3) (Graph.peers g (asn 2)));
  Alcotest.(check int) "customers of 1" 2
    (Asn.Set.cardinal (Graph.customers g (asn 1)));
  Alcotest.(check int) "neighbors of 2" 2
    (Asn.Set.cardinal (Graph.neighbors g (asn 2)));
  Alcotest.(check int) "degree of 2" 2 (Graph.degree g (asn 2))

let test_relationship () =
  let g = small () in
  Alcotest.(check bool) "provider view" true
    (Graph.relationship g (asn 2) (asn 1) = Some Graph.Provider);
  Alcotest.(check bool) "customer view" true
    (Graph.relationship g (asn 1) (asn 2) = Some Graph.Customer);
  Alcotest.(check bool) "peer view" true
    (Graph.relationship g (asn 2) (asn 3) = Some Graph.Peer);
  Alcotest.(check bool) "unrelated" true
    (Graph.relationship g (asn 2) (asn 99) = None);
  Alcotest.(check bool) "connected" true (Graph.connected g (asn 1) (asn 3));
  Alcotest.(check bool) "not connected" false
    (Graph.connected g (asn 99) (asn 1))

let test_idempotent_links () =
  let g = small () in
  Graph.add_peering g (asn 3) (asn 2);
  Alcotest.(check int) "peering not duplicated" 1
    (Graph.num_peering_links g);
  Graph.add_provider_customer g ~provider:(asn 1) ~customer:(asn 2);
  Alcotest.(check int) "p2c not duplicated" 2
    (Graph.num_provider_customer_links g)

let test_conflicting_link_raises () =
  let g = small () in
  (try
     Graph.add_peering g (asn 1) (asn 2);
     Alcotest.fail "expected Invalid_argument"
   with Invalid_argument _ -> ());
  try
    Graph.add_provider_customer g ~provider:(asn 2) ~customer:(asn 3);
    Alcotest.fail "expected Invalid_argument"
  with Invalid_argument _ -> ()

let test_self_link_raises () =
  let g = Graph.create () in
  try
    Graph.add_peering g (asn 4) (asn 4);
    Alcotest.fail "expected Invalid_argument"
  with Invalid_argument _ -> ()

let test_isolated_as () =
  let g = Graph.create () in
  Graph.add_as g (asn 9);
  Alcotest.(check bool) "mem" true (Graph.mem g (asn 9));
  Alcotest.(check int) "degree" 0 (Graph.degree g (asn 9));
  Alcotest.(check (list int)) "ases" [ 9 ]
    (List.map Asn.to_int (Graph.ases g))

let test_fold_peering_links () =
  let g = small () in
  Graph.add_peering g (asn 1) (asn 9);
  let links = Graph.fold_peering_links (fun x y acc -> (Asn.to_int x, Asn.to_int y) :: acc) g [] in
  Alcotest.(check int) "two peering links" 2 (List.length links);
  List.iter
    (fun (x, y) ->
      if x >= y then Alcotest.fail "endpoints not ascending")
    links

let test_fold_p2c_links () =
  let g = small () in
  let links =
    Graph.fold_provider_customer_links
      (fun ~provider ~customer acc ->
        (Asn.to_int provider, Asn.to_int customer) :: acc)
      g []
    |> List.sort compare
  in
  Alcotest.(check (list (pair int int))) "p2c links" [ (1, 2); (1, 3) ] links

let test_fold_order_insertion_independent () =
  (* The folds iterate the sorted AS set, not the underlying hash tables,
     so two graphs with the same links added in different orders must
     produce byte-identical link sequences. *)
  let links =
    [ (1, 2, `P2c); (1, 3, `P2c); (2, 3, `P2p); (5, 2, `P2p); (3, 9, `P2c);
      (9, 5, `P2p); (1, 9, `P2p); (5, 6, `P2c); (6, 7, `P2p) ]
  in
  let build order =
    let g = Graph.create () in
    List.iter
      (fun (x, y, kind) ->
        match kind with
        | `P2c -> Graph.add_provider_customer g ~provider:(asn x) ~customer:(asn y)
        | `P2p -> Graph.add_peering g (asn x) (asn y))
      order;
    g
  in
  let peering g =
    Graph.fold_peering_links
      (fun x y acc -> (Asn.to_int x, Asn.to_int y) :: acc)
      g []
  in
  let p2c g =
    Graph.fold_provider_customer_links
      (fun ~provider ~customer acc ->
        (Asn.to_int provider, Asn.to_int customer) :: acc)
      g []
  in
  let g1 = build links in
  let g2 = build (List.rev links) in
  let g3 =
    build
      (List.sort (fun (x1, y1, _) (x2, y2, _) -> compare (y1, x1) (y2, x2)) links)
  in
  Alcotest.(check (list (pair int int))) "peering order g2" (peering g1)
    (peering g2);
  Alcotest.(check (list (pair int int))) "peering order g3" (peering g1)
    (peering g3);
  Alcotest.(check (list (pair int int))) "p2c order g2" (p2c g1) (p2c g2);
  Alcotest.(check (list (pair int int))) "p2c order g3" (p2c g1) (p2c g3)

let test_ases_sorted () =
  let g = Graph.create () in
  Graph.add_as g (asn 5);
  Graph.add_as g (asn 1);
  Graph.add_as g (asn 3);
  Alcotest.(check (list int)) "ascending" [ 1; 3; 5 ]
    (List.map Asn.to_int (Graph.ases g))

let suite =
  [
    Alcotest.test_case "asn basics" `Quick test_asn_basics;
    Alcotest.test_case "counts" `Quick test_counts;
    Alcotest.test_case "neighbor decomposition" `Quick
      test_neighbor_decomposition;
    Alcotest.test_case "relationship queries" `Quick test_relationship;
    Alcotest.test_case "idempotent links" `Quick test_idempotent_links;
    Alcotest.test_case "conflicting link raises" `Quick
      test_conflicting_link_raises;
    Alcotest.test_case "self link raises" `Quick test_self_link_raises;
    Alcotest.test_case "isolated AS" `Quick test_isolated_as;
    Alcotest.test_case "fold peering links" `Quick test_fold_peering_links;
    Alcotest.test_case "fold p2c links" `Quick test_fold_p2c_links;
    Alcotest.test_case "fold order insertion-independent" `Quick
      test_fold_order_insertion_independent;
    Alcotest.test_case "ases sorted" `Quick test_ases_sorted;
  ]
