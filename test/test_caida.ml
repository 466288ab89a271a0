(* Tests for the CAIDA as-rel2 parser/serializer. *)

open Pan_topology

let sample =
  "# comment line\n\
   1|2|-1|bgp\n\
   2|3|0|mlp\n\
   \n\
   1|4|-1|bgp\n"

let test_parse () =
  let g = Caida.of_string sample in
  Alcotest.(check int) "ases" 4 (Graph.num_ases g);
  Alcotest.(check int) "p2c" 2 (Graph.num_provider_customer_links g);
  Alcotest.(check int) "p2p" 1 (Graph.num_peering_links g);
  Alcotest.(check bool) "1 provider of 2" true
    (Graph.relationship g (Asn.of_int 2) (Asn.of_int 1) = Some Graph.Provider);
  Alcotest.(check bool) "2 peers 3" true
    (Graph.relationship g (Asn.of_int 2) (Asn.of_int 3) = Some Graph.Peer)

let test_parse_line_variants () =
  Alcotest.(check bool) "comment is None" true
    (Caida.parse_line 1 "# foo" = None);
  Alcotest.(check bool) "blank is None" true (Caida.parse_line 1 "   " = None);
  (* older serials have no source field *)
  Alcotest.(check bool) "no source field" true
    (Caida.parse_line 1 "10|20|0" <> None);
  Alcotest.(check bool) "leading zeros and padding" true
    (Caida.parse_line 1 "007| 8 |0" <> None)

let test_parse_errors () =
  let expect_error line =
    match Caida.parse_line 1 line with
    | exception Caida.Parse_error _ -> ()
    | _ -> Alcotest.failf "expected Parse_error on %S" line
  in
  expect_error "1|2|5|bgp";
  expect_error "x|2|-1|bgp";
  expect_error "1|-7|-1|bgp";
  expect_error "1|2";
  expect_error "7|7|0";
  (* a whole input with no relationship line: empty, or comments only *)
  let expect_no_relationships input ~line =
    match Caida.of_string input with
    | exception Caida.Parse_error e ->
        Alcotest.(check (pair int string))
          (Printf.sprintf "no relationships in %S" input)
          (line, "no AS relationships") (e.line, e.reason)
    | _ -> Alcotest.failf "expected Parse_error on %S" input
  in
  expect_no_relationships "" ~line:1;
  expect_no_relationships "# serial-2\n\n# no links" ~line:3

(* Whole-file errors name the offending line: a self-link, and a pair
   given a second relationship (either direction), used to escape as a
   bare [Invalid_argument] from [Graph] with no location. *)
let test_located_errors () =
  let expect name input ~line ~text ~reason =
    match Caida.of_string input with
    | exception Caida.Parse_error e ->
        Alcotest.(check (triple int string string))
          name (line, text, reason) (e.line, e.text, e.reason)
    | _ -> Alcotest.failf "%s: expected Parse_error" name
  in
  expect "self-link" "1|2|-1\n3|3|0\n" ~line:2 ~text:"3|3|0"
    ~reason:"self-link on AS3";
  expect "p2c then p2p" "1|2|-1\n# note\n2|1|0|mlp\n" ~line:3
    ~text:"2|1|0|mlp"
    ~reason:"AS2 and AS1 are already linked with another relationship";
  expect "p2c then reversed p2c" "1|2|-1\n2|1|-1\n" ~line:2 ~text:"2|1|-1"
    ~reason:"AS2 and AS1 are already linked with another relationship";
  expect "p2p then p2c" "5|6|0\n5|6|-1\n" ~line:2 ~text:"5|6|-1"
    ~reason:"AS5 and AS6 are already linked with another relationship";
  (* AS numbers are plain decimal digits, not OCaml literals *)
  List.iter
    (fun (text, field) ->
      expect text ("1|2|-1\n" ^ text ^ "\n") ~line:2 ~text
        ~reason:(Printf.sprintf "bad AS number %S" field))
    [ ("0x2|3|0", "0x2"); ("+2|3|0", "+2"); ("5|-0|-1", "-0");
      ("2|3_0|0", "3_0") ];
  (* repeating a relationship, or a peering from the other side, is fine *)
  let g = Caida.of_string "1|2|-1\n1|2|-1\n2|3|0\n3|2|0\n" in
  Alcotest.(check (pair int int)) "duplicates collapse" (1, 1)
    (Graph.num_provider_customer_links g, Graph.num_peering_links g)

let test_round_trip () =
  let g = Caida.of_string sample in
  let g' = Caida.of_string (Caida.to_string g) in
  Alcotest.(check int) "ases" (Graph.num_ases g) (Graph.num_ases g');
  Alcotest.(check int) "p2c"
    (Graph.num_provider_customer_links g)
    (Graph.num_provider_customer_links g');
  Alcotest.(check int) "p2p" (Graph.num_peering_links g)
    (Graph.num_peering_links g');
  List.iter
    (fun x ->
      List.iter
        (fun y ->
          Alcotest.(check bool) "same relationship" true
            (Graph.relationship g x y = Graph.relationship g' x y))
        (Graph.ases g))
    (Graph.ases g)

let test_file_round_trip () =
  let g = Caida.of_string sample in
  let path = Filename.temp_file "panagree" ".as-rel2" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Caida.save path g;
      let g' = Caida.load path in
      Alcotest.(check int) "ases survive file round trip" (Graph.num_ases g)
        (Graph.num_ases g'))

let test_generated_graph_round_trip () =
  let gen =
    Gen.generate
      ~params:{ Gen.default_params with Gen.n_transit = 30; Gen.n_stub = 100 }
      ~seed:1 ()
  in
  let g = Gen.graph gen in
  let g' = Caida.of_string (Caida.to_string g) in
  Alcotest.(check int) "p2c preserved"
    (Graph.num_provider_customer_links g)
    (Graph.num_provider_customer_links g');
  Alcotest.(check int) "p2p preserved" (Graph.num_peering_links g)
    (Graph.num_peering_links g')

let suite =
  [
    Alcotest.test_case "parse sample" `Quick test_parse;
    Alcotest.test_case "parse line variants" `Quick test_parse_line_variants;
    Alcotest.test_case "parse errors" `Quick test_parse_errors;
    Alcotest.test_case "self-link and conflict errors are located" `Quick
      test_located_errors;
    Alcotest.test_case "string round trip" `Quick test_round_trip;
    Alcotest.test_case "file round trip" `Quick test_file_round_trip;
    Alcotest.test_case "generated graph round trip" `Quick
      test_generated_graph_round_trip;
  ]
