(* The whole-system integration test: economics decides which MAs exist,
   and the PAN substrate turns exactly those agreements into forwardable
   paths.

   generate topology -> negotiate every MA economically (E11) -> feed the
   concluded pairs into the authorization policy -> beacon, combine,
   forward -> check that the data plane matches the path-enumeration
   analysis pair by pair. *)

open Pan_topology
open Pan_scion
open Pan_experiments

let setup =
  lazy
    (let g =
       Gen.graph
         (Gen.generate
            ~params:
              { Gen.default_params with Gen.n_transit = 40; Gen.n_stub = 160 }
            ~seed:42 ())
     in
     let adoption = Adoption.run ~sample_size:50 ~seed:17 g in
     let authz =
       Authz.create ~core_transit:false ~mas:adoption.Adoption.concluded g
     in
     (g, adoption, authz))

let frozen = lazy (let g, _, _ = Lazy.force setup in Compact.freeze g)

(* The direct MA paths [x - mid - dst] the analysis enumerates for [x]
   through [partners], as (mid, dst) ASN pairs in enumeration order. *)
let ma_direct_paths ~partners x =
  let c = Lazy.force frozen in
  let index = Compact.index_of_exn c in
  let partners =
    Bitset.of_list ~width:(Compact.num_ases c)
      (List.map index (Asn.Set.elements partners))
  in
  let acc = ref [] in
  Path_enum_compact.iter_paths
    (fun ~mid ~dst -> acc := (Compact.id c mid, Compact.id c dst) :: !acc)
    (Path_enum_compact.ma_direct ~partners c (index x));
  List.rev !acc

let concluded_pred (adoption : Adoption.result) x y =
  List.exists
    (fun (a, b) ->
      (Asn.equal a x && Asn.equal b y) || (Asn.equal a y && Asn.equal b x))
    adoption.Adoption.concluded

let test_adoption_is_partial () =
  let _, adoption, _ = Lazy.force setup in
  Alcotest.(check bool) "some MAs concluded" true
    (adoption.Adoption.concluded <> []);
  Alcotest.(check bool) "some MAs refused" true
    (adoption.Adoption.adoption_rate < 1.0)

let test_dataplane_matches_analysis () =
  (* for sampled sources, every concluded-MA direct path must be
     constructible and forwardable, and every refused-MA path must be
     rejected by the data plane *)
  let g, adoption, authz = Lazy.force setup in
  let concluded = concluded_pred adoption in
  let checked_ok = ref 0 and checked_refused = ref 0 in
  List.iter
    (fun (pa : Adoption.per_as) ->
      let x = pa.Adoption.asn in
      Asn.Set.iter
        (fun y ->
          let sample =
            List.filteri
              (fun i _ -> i < 3)
              (ma_direct_paths ~partners:(Asn.Set.singleton y) x)
          in
          List.iter
            (fun (mid, dst) ->
              let path = [ x; mid; dst ] in
              match Forwarding.send_path authz path ~payload:"it" with
              | Ok delivery ->
                  incr checked_ok;
                  if not (concluded x y) then
                    Alcotest.failf "refused MA forwarded (AS%d-AS%d)"
                      (Asn.to_int x) (Asn.to_int y);
                  Alcotest.(check bool) "trace = path" true
                    (delivery.Forwarding.trace = path)
              | Error _ ->
                  incr checked_refused;
                  (* the middle AS may still carry the traffic under one
                     of ITS other concluded MAs only if (x, mid) is
                     concluded; otherwise refusal is mandatory *)
                  if concluded x y then
                    Alcotest.failf "concluded MA path refused (AS%d-AS%d)"
                      (Asn.to_int x) (Asn.to_int y))
            sample)
        (Graph.peers g x))
    (List.filteri (fun i _ -> i < 15) adoption.Adoption.sampled);
  Alcotest.(check bool) "exercised both outcomes" true
    (!checked_ok > 0 && !checked_refused > 0)

let test_economic_paths_match_dataplane_counts () =
  (* the per-AS economic path analysis agrees with what the authorization
     policy actually admits, path by path *)
  let g, adoption, authz = Lazy.force setup in
  let concluded = concluded_pred adoption in
  List.iter
    (fun (pa : Adoption.per_as) ->
      let x = pa.Adoption.asn in
      (* direct MA paths of concluded partners only *)
      let partners =
        Asn.Set.filter (fun y -> concluded x y) (Graph.peers g x)
      in
      List.iter
        (fun (mid, dst) ->
          match Segment.make authz [ x; mid; dst ] with
          | Ok _ -> ()
          | Error _ ->
              Alcotest.failf "analysis path not authorized: AS%d-AS%d-AS%d"
                (Asn.to_int x) (Asn.to_int mid) (Asn.to_int dst))
        (ma_direct_paths ~partners x))
    (List.filteri (fun i _ -> i < 10) adoption.Adoption.sampled)

let test_end_to_end_delivery_over_concluded_ma () =
  (* find one concluded MA whose beneficiary has a customer, and deliver a
     packet from that customer across the GRC-violating segment via the
     full control plane (beacon -> path server -> combinator) *)
  let g, adoption, authz = Lazy.force setup in
  let ps = Path_server.build authz (Beacon.run authz) in
  let delivered = ref 0 in
  List.iter
    (fun (x, y) ->
      if !delivered < 3 then
        Asn.Set.iter
          (fun dst ->
            if
              !delivered < 3
              && (not (Asn.equal dst x))
              && not (Graph.connected g x dst)
            then
              match
                List.find_opt
                  (fun seg ->
                    (* a path actually crossing the x-y MA splice *)
                    let rec crosses = function
                      | a :: (b :: _ as rest) ->
                          (Asn.equal a x && Asn.equal b y) || crosses rest
                      | _ -> false
                    in
                    crosses (Segment.ases seg))
                  (Combinator.end_to_end ~max_paths:50 ps ~src:x ~dst)
              with
              | Some seg -> (
                  match
                    Forwarding.send authz
                      { Forwarding.segment = seg; payload = "e2e" }
                  with
                  | Ok d ->
                      incr delivered;
                      Alcotest.(check bool) "loop-free" true
                        (List.length d.Forwarding.trace
                        = List.length
                            (List.sort_uniq Asn.compare d.Forwarding.trace))
                  | Error _ -> Alcotest.fail "authorized path dropped")
              | None -> ())
          (Asn.Set.union (Graph.providers g y) (Graph.peers g y)))
    adoption.Adoption.concluded;
  Alcotest.(check bool) "delivered across MA splices" true (!delivered > 0)

let suite =
  [
    Alcotest.test_case "adoption is partial" `Quick test_adoption_is_partial;
    Alcotest.test_case "data plane matches analysis" `Quick
      test_dataplane_matches_analysis;
    Alcotest.test_case "economic paths all authorized" `Quick
      test_economic_paths_match_dataplane_counts;
    Alcotest.test_case "end-to-end delivery over concluded MAs" `Quick
      test_end_to_end_delivery_over_concluded_ma;
  ]
