(* Tests for the agreement formalization (Eq. 2) and its canonical
   instances. *)

open Pan_topology
open Pan_econ

let a = Gen.fig1_asn
let g = Gen.fig1 ()

let set cs = Asn.set_of_list (List.map a cs)

let test_make_validates_grants () =
  (* offering a provider one does not have is rejected *)
  let bad =
    Agreement.make (Graph.view g) ~x:(a 'D') ~y:(a 'E')
      ~x_grant:{ Agreement.empty_grant with Agreement.providers = set [ 'B' ] }
      ~y_grant:Agreement.empty_grant
  in
  (match bad with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "foreign provider accepted");
  (* same parties *)
  match
    Agreement.make (Graph.view g) ~x:(a 'D') ~y:(a 'D')
      ~x_grant:Agreement.empty_grant ~y_grant:Agreement.empty_grant
  with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "x = y accepted"

let test_paper_example () =
  let ag = Agreement.paper_example g in
  let x, y = Agreement.parties ag in
  Alcotest.(check int) "x is D" (Asn.to_int (a 'D')) (Asn.to_int x);
  Alcotest.(check int) "y is E" (Asn.to_int (a 'E')) (Asn.to_int y);
  (* D gains access to B and F through E *)
  let d_access = Agreement.accessible ag ~to_:(a 'D') in
  Alcotest.(check bool) "D reaches B" true (Asn.Set.mem (a 'B') d_access);
  Alcotest.(check bool) "D reaches F" true (Asn.Set.mem (a 'F') d_access);
  Alcotest.(check int) "exactly two" 2 (Asn.Set.cardinal d_access);
  (* E gains access to A *)
  let e_access = Agreement.accessible ag ~to_:(a 'E') in
  Alcotest.(check bool) "E reaches A" true (Asn.Set.mem (a 'A') e_access);
  Alcotest.(check int) "exactly one" 1 (Asn.Set.cardinal e_access);
  Alcotest.(check bool) "violates GRC" true (Agreement.violates_grc ag)

let test_counterparty () =
  let ag = Agreement.paper_example g in
  Alcotest.(check int) "counterparty of D" (Asn.to_int (a 'E'))
    (Asn.to_int (Agreement.counterparty ag (a 'D')));
  try
    ignore (Agreement.counterparty ag (a 'A'));
    Alcotest.fail "non-party accepted"
  with Invalid_argument _ -> ()

let test_classic_peering () =
  let ag = Agreement.classic_peering g (a 'D') (a 'E') in
  (* a_p = [D(down {H}); E(down {I})] as in §III-B1 *)
  let d_grant = Agreement.grant_of ag (a 'D') in
  Alcotest.(check bool) "D offers H" true
    (Asn.Set.mem (a 'H') d_grant.Agreement.customers);
  Alcotest.(check bool) "no providers offered" true
    (Asn.Set.is_empty d_grant.Agreement.providers);
  Alcotest.(check bool) "peering conforms to GRC" false
    (Agreement.violates_grc ag)

let test_mutuality () =
  let ag = Agreement.mutuality g (a 'D') (a 'E') in
  (* D offers providers {A}, peers {C} (E excluded, H is a customer of E?
     no -- nothing excluded since E has no customers among them) *)
  let d_grant = Agreement.grant_of ag (a 'D') in
  Alcotest.(check bool) "D offers A" true
    (Asn.Set.mem (a 'A') d_grant.Agreement.providers);
  Alcotest.(check bool) "D offers peer C" true
    (Asn.Set.mem (a 'C') d_grant.Agreement.peers);
  Alcotest.(check bool) "partner itself excluded" false
    (Asn.Set.mem (a 'E') d_grant.Agreement.peers);
  (* E offers providers {B}, peers {C, F} *)
  let e_access = Agreement.accessible ag ~to_:(a 'D') in
  Alcotest.(check bool) "D gains B, C, F" true
    (Asn.Set.equal e_access (set [ 'B'; 'C'; 'F' ]))

let test_mutuality_excludes_partner_customers () =
  (* add an AS that is both a peer of D and a customer of E: it must not
     be offered to E *)
  let g' = Gen.fig1 () in
  let extra = Asn.of_int 99 in
  Graph.add_peering g' (a 'D') extra;
  Graph.add_provider_customer g' ~provider:(a 'E') ~customer:extra;
  let ag = Agreement.mutuality g' (a 'D') (a 'E') in
  let d_grant = Agreement.grant_of ag (a 'D') in
  Alcotest.(check bool) "E's customer filtered from D's grant" false
    (Asn.Set.mem extra d_grant.Agreement.peers)

let test_mutuality_requires_peers () =
  try
    ignore (Agreement.mutuality g (a 'A') (a 'D'));
    Alcotest.fail "non-peers accepted"
  with Invalid_argument _ -> ()

let test_grant_all () =
  let grant =
    {
      Agreement.providers = set [ 'A' ];
      peers = set [ 'C' ];
      customers = set [ 'H' ];
    }
  in
  Alcotest.(check int) "union size" 3
    (Asn.Set.cardinal (Agreement.grant_all grant))

let suite =
  [
    Alcotest.test_case "make validates grants" `Quick
      test_make_validates_grants;
    Alcotest.test_case "paper example (Eq. 6)" `Quick test_paper_example;
    Alcotest.test_case "counterparty" `Quick test_counterparty;
    Alcotest.test_case "classic peering (§III-B1)" `Quick
      test_classic_peering;
    Alcotest.test_case "mutuality (§VI MA)" `Quick test_mutuality;
    Alcotest.test_case "mutuality excludes partner customers" `Quick
      test_mutuality_excludes_partner_customers;
    Alcotest.test_case "mutuality requires peers" `Quick
      test_mutuality_requires_peers;
    Alcotest.test_case "grant_all" `Quick test_grant_all;
  ]
