(* Tests for the intent engine (lib/intent) and its consumers:

   - Compact.Mask semantics against hand-checked cases;
   - qcheck oracle: Yen-style k_shortest over the CSR equals brute-force
     enumeration of all simple paths sorted by (hops, lex) — including
     masked subgraphs and a link predicate — which pins both
     completeness and the deterministic tie-break;
   - qcheck reference: on generated topologies of a few hundred ASes,
     k_shortest equals the full-BFS Yen search kept in pan_oracle;
   - two hand-built graphs where answering a spur from the call's
     unrestricted labelling would be wrong, against both oracles;
   - Intent parse/print canonical round-trip (qcheck) and parse-error
     line/column positions (unit);
   - qcheck facade equivalence: the refactored Scion.Selection is
     bit-identical (scores and ranking) to a copy of the pre-refactor
     implementation on real beaconed candidate sets;
   - Engine intent memo: cached answers equal uncached recomputation
     across link churn (link-downs drop the entries riding the link,
     link-ups the entries a path through the new link could enter);
   - Probe determinism under an injected fault spec. *)

open Pan_topology
open Pan_intent
module Rng = Pan_numerics.Rng
module Yen_reference = Pan_oracle.Yen_reference

let asn = Asn.of_int

(* ------------------------------------------------------------------ *)
(* Compact.Mask                                                        *)

let diamond () =
  (* 1 -2- 3 with two middles 2 and 4, plus direct 1-3 *)
  let g = Graph.create () in
  Graph.add_peering g (asn 1) (asn 2);
  Graph.add_peering g (asn 2) (asn 3);
  Graph.add_peering g (asn 1) (asn 4);
  Graph.add_peering g (asn 4) (asn 3);
  Graph.add_peering g (asn 1) (asn 3);
  Compact.freeze g

let test_mask_semantics () =
  let c = diamond () in
  let i x = Compact.index_of_exn c (asn x) in
  let m = Compact.Mask.all c in
  Alcotest.(check bool) "all is trivial" true (Compact.Mask.is_trivial m);
  Alcotest.(check bool) "all allows link" true
    (Compact.Mask.allows_link m (i 1) (i 3));
  let m2 = Compact.Mask.exclude_as m (i 2) in
  Alcotest.(check bool) "original untouched" true (Compact.Mask.is_trivial m);
  Alcotest.(check bool) "as blocked" false (Compact.Mask.allows_as m2 (i 2));
  Alcotest.(check bool) "links at blocked as" false
    (Compact.Mask.allows_link m2 (i 1) (i 2));
  Alcotest.(check (list int)) "excluded_ases" [ i 2 ]
    (Compact.Mask.excluded_ases m2);
  let m3 = Compact.Mask.exclude_link m2 (i 3) (i 1) in
  Alcotest.(check bool) "link blocked either order" false
    (Compact.Mask.allows_link m3 (i 1) (i 3));
  Alcotest.(check bool) "other links stay" true
    (Compact.Mask.allows_link m3 (i 1) (i 4));
  (* idempotent exclusion, inverse restore *)
  let m4 = Compact.Mask.exclude_link m3 (i 1) (i 3) in
  Alcotest.(check bool) "exclude idempotent" true (Compact.Mask.equal m3 m4);
  let m5 = Compact.Mask.restore_link m4 (i 1) (i 3) in
  Alcotest.(check bool) "restore inverts" true (Compact.Mask.equal m2 m5);
  Alcotest.(check bool) "restore absent = no-op" true
    (Compact.Mask.equal m2 (Compact.Mask.restore_link m5 (i 1) (i 3)));
  (match Compact.Mask.exclude_as m (-1) with
  | exception Invalid_argument msg ->
      Alcotest.(check bool) "error names module" true
        (String.length msg > 12 && String.sub msg 0 12 = "Compact.Mask")
  | _ -> Alcotest.fail "out-of-range index accepted")

(* ------------------------------------------------------------------ *)
(* Yen k_shortest vs brute force                                       *)

(* Small random mixed-class topologies; dense enough that K9-ish path
   explosions keep the oracle honest but cheap. *)
let random_compact seed =
  let rng = Rng.create seed in
  let n = 4 + Rng.int rng 5 in
  let g = Graph.create () in
  let added = ref false in
  for i = 1 to n do
    for j = i + 1 to n do
      if Rng.float rng < 0.45 then begin
        added := true;
        if Rng.bool rng then Graph.add_peering g (asn i) (asn j)
        else Graph.add_provider_customer g ~provider:(asn i) ~customer:(asn j)
      end
    done
  done;
  if not !added then Graph.add_peering g (asn 1) (asn 2);
  Compact.freeze g

let compare_hops_lex p q =
  match compare (List.length p) (List.length q) with
  | 0 -> compare p q
  | c -> c

(* Every simple path src..dst (at most max_hops ASes) over the allowed
   subgraph, sorted by (hops, lex) — the order k_shortest promises. *)
let brute_force topo ~node_ok ~edge_ok ~max_hops ~src ~dst =
  let acc = ref [] in
  let visited = Array.make (Compact.num_ases topo) false in
  let rec go cur path len =
    if cur = dst then acc := List.rev path :: !acc
    else if len < max_hops then
      Compact.iter_neighbors topo cur (fun v ->
          if (not visited.(v)) && node_ok v && edge_ok cur v then begin
            visited.(v) <- true;
            go v (v :: path) (len + 1);
            visited.(v) <- false
          end)
  in
  if node_ok src && node_ok dst then begin
    visited.(src) <- true;
    go src [ src ] 1
  end;
  List.sort compare_hops_lex !acc

let take k l = List.filteri (fun i _ -> i < k) l

let show_paths ps =
  String.concat " | "
    (List.map (fun p -> String.concat "-" (List.map string_of_int p)) ps)

let check_pair topo ?mask ?edge_ok ~max_hops ~src ~dst k =
  let node_ok, mask_ok =
    match mask with
    | None -> ((fun _ -> true), fun _ _ -> true)
    | Some m -> (Compact.Mask.allows_as m, Compact.Mask.allows_link m)
  in
  let extra_ok = Option.value edge_ok ~default:(fun _ _ -> true) in
  let edge_ok' i j = mask_ok i j && extra_ok i j in
  let bound =
    match max_hops with Some h -> h | None -> Compact.num_ases topo
  in
  let expected =
    take k
      (brute_force topo ~node_ok ~edge_ok:edge_ok' ~max_hops:bound ~src ~dst)
  in
  let got =
    Candidates.k_shortest topo ?mask ?edge_ok ?max_hops ~src ~dst ~k ()
  in
  if got <> expected then
    QCheck.Test.fail_reportf
      "k_shortest (src=%d dst=%d k=%d) = [%s], brute force = [%s]" src dst k
      (show_paths got) (show_paths expected);
  true

(* A symmetric link predicate that rejects about one link in [every],
   standing in for geo fences and [require=] clauses. *)
let symmetric_edge_ok rng ~every =
  let salt = Rng.int rng 1_000_000 in
  fun i j ->
    let lo = min i j and hi = max i j in
    Hashtbl.hash (lo, hi, salt) mod every <> 0

let qcheck_yen_oracle =
  QCheck.Test.make ~count:60 ~name:"k_shortest = brute force (hops, lex)"
    QCheck.(int_range 1 10_000)
    (fun seed ->
      let topo = random_compact seed in
      let n = Compact.num_ases topo in
      List.for_all Fun.id
        (List.concat_map
           (fun src ->
             List.concat_map
               (fun dst ->
                 List.map
                   (fun k ->
                     check_pair topo ~max_hops:None ~src ~dst k
                     && check_pair topo ~max_hops:(Some 4) ~src ~dst k)
                   [ 1; 2; 5; 9 ])
               (List.init n Fun.id))
           (List.init n Fun.id)))

let qcheck_yen_oracle_masked =
  QCheck.Test.make ~count:60 ~name:"k_shortest under mask = brute force"
    QCheck.(int_range 1 10_000)
    (fun seed ->
      let topo = random_compact (seed + 77) in
      let n = Compact.num_ases topo in
      let rng = Rng.create (seed * 3) in
      let blocked_as = Rng.int rng n in
      let la = Rng.int rng n in
      let lb = (la + 1 + Rng.int rng (n - 1)) mod n in
      let mask =
        Compact.Mask.exclude_link
          (Compact.Mask.exclude_as (Compact.Mask.all topo) blocked_as)
          la lb
      in
      let edge_ok = symmetric_edge_ok rng ~every:4 in
      List.for_all Fun.id
        (List.concat_map
           (fun src ->
             List.map
               (fun dst ->
                 check_pair topo ~mask ~edge_ok ~max_hops:None ~src ~dst 6)
               (List.init n Fun.id))
           (List.init n Fun.id)))

(* The brute force above only reaches 4-8 ASes, where the early exit of
   a spur search and the scratch reuse across spurs barely matter.  On
   generated topologies of a few hundred ASes (route-server hubs
   included) the search must return exactly what the full-BFS reference
   returns, under random masks, link predicates, hop bounds and K. *)
let qcheck_yen_reference =
  QCheck.Test.make ~count:40
    ~name:"k_shortest = full-BFS reference on generated topologies"
    QCheck.(int_range 1 10_000)
    (fun seed ->
      let params =
        { Gen.default_params with Gen.n_transit = 40; Gen.n_stub = 250 }
      in
      let topo = Compact.freeze (Gen.graph (Gen.generate ~params ~seed ())) in
      let n = Compact.num_ases topo in
      let rng = Rng.create (seed * 5) in
      let random_link m =
        let a = Rng.int rng n in
        let nbrs = ref [] in
        Compact.iter_neighbors topo a (fun b -> nbrs := b :: !nbrs);
        match !nbrs with
        | [] -> m
        | l ->
            Compact.Mask.exclude_link m a
              (List.nth l (Rng.int rng (List.length l)))
      in
      List.for_all
        (fun k ->
          let src = Rng.int rng n in
          let dst = (src + 1 + Rng.int rng (n - 1)) mod n in
          let mask = ref (Compact.Mask.all topo) in
          for _ = 1 to Rng.int rng 4 do
            mask := Compact.Mask.exclude_as !mask (Rng.int rng n)
          done;
          for _ = 1 to Rng.int rng 3 do
            mask := random_link !mask
          done;
          (match Yen_reference.k_shortest topo ~src ~dst ~k:1 () with
          | [ (_ :: _ :: _ as p) ] when Rng.bool rng ->
              let p = Array.of_list p in
              let j = Rng.int rng (Array.length p - 1) in
              mask := Compact.Mask.exclude_link !mask p.(j) p.(j + 1)
          | _ -> ());
          let mask = !mask in
          let edge_ok =
            if Rng.bool rng then Some (symmetric_edge_ok rng ~every:6) else None
          in
          let max_hops =
            if Rng.bool rng then Some (3 + Rng.int rng 5) else None
          in
          let expected =
            Yen_reference.k_shortest topo ~mask ?edge_ok ?max_hops ~src ~dst
              ~k ()
          in
          let got =
            Candidates.k_shortest topo ~mask ?edge_ok ?max_hops ~src ~dst ~k ()
          in
          got = expected
          || QCheck.Test.fail_reportf
               "k_shortest (src=%d dst=%d k=%d) = [%s], reference = [%s]" src
               dst k (show_paths got) (show_paths expected))
        [ 1; 2; 5; 8; 16; 1; 2; 5; 8; 16 ])

(* Re-running the enumeration must reproduce it bit-for-bit: it is a
   pure function of the frozen view (no hash-order dependence). *)
let qcheck_yen_deterministic =
  QCheck.Test.make ~count:30 ~name:"k_shortest reruns bit-identical"
    QCheck.(int_range 1 10_000)
    (fun seed ->
      let topo = random_compact seed in
      let n = Compact.num_ases topo in
      let src = seed mod n and dst = (seed + 1) mod n in
      Candidates.k_shortest topo ~src ~dst ~k:8 ()
      = Candidates.k_shortest topo ~src ~dst ~k:8 ())

(* A spur is answered from the call's unrestricted labelling only when
   its best first hop is no farther from dst than the spur and every
   root node.  Two hand-built graphs (all peering, AS n = index n - 1)
   where the shortcut would go wrong:
   (a) on the path 1-2-3-5-6-7, spur AS3's best first hop AS4 reaches
       AS7 in two hops only through the earlier root node AS2;
   (b) spur AS2's best first hop AS3 is avoided after the first path,
       so a sideways step to AS4 wins; once AS4 is avoided too, the only
       hop left, AS6, is farther than the spur, and its shortest way on
       runs back through the spur and the avoided link to AS3. *)
let test_reuse_fallback () =
  let graph links =
    let g = Graph.create () in
    List.iter (fun (a, b) -> Graph.add_peering g (asn a) (asn b)) links;
    Compact.freeze g
  in
  let check name topo ~src ~dst =
    let src = src - 1 and dst = dst - 1 in
    let all =
      brute_force topo
        ~node_ok:(fun _ -> true)
        ~edge_ok:(fun _ _ -> true)
        ~max_hops:(Compact.num_ases topo) ~src ~dst
    in
    List.iter
      (fun k ->
        let got = Candidates.k_shortest topo ~src ~dst ~k () in
        let what = Printf.sprintf "%s k=%d" name k in
        Alcotest.(check (list (list int)))
          (what ^ " = reference")
          (Yen_reference.k_shortest topo ~src ~dst ~k ())
          got;
        Alcotest.(check (list (list int))) (what ^ " = brute force") (take k all)
          got)
      [ 1; 2; 3; 4; max_int ]
  in
  check "(a)"
    (graph [ (1, 2); (2, 7); (2, 3); (2, 4); (3, 4); (3, 5); (5, 6); (6, 7) ])
    ~src:1 ~dst:7;
  check "(b)"
    (graph
       [
         (1, 2); (2, 3); (3, 10); (2, 4); (4, 5); (5, 10); (2, 6); (6, 7);
         (7, 8); (8, 9); (9, 10);
       ])
    ~src:1 ~dst:10

(* ------------------------------------------------------------------ *)
(* Intent syntax round-trip                                            *)

let arbitrary_intent =
  let open QCheck.Gen in
  let component =
    oneofl
      Intent.[ Latency; Nlatency; Bandwidth; Nbandwidth; Hops ]
  in
  (* weights span magnitudes: %g prints 1e12 and up, and 1e-5 and down,
     with an exponent *)
  let weight =
    oneof
      [
        oneofl [ 0.25; 0.5; 1.0; 2.0; 2.5; 3.0; 10.0; 1e12; 1e-12; -1e12 ];
        map2
          (fun m e -> m *. (10.0 ** float_of_int e))
          (float_range (-10.0) 10.0) (int_range (-20) 20);
      ]
  in
  let term =
    map2 (fun weight component -> { Intent.weight; component }) weight component
  in
  let gen =
    let* metric = list_size (int_range 1 4) term in
    let* k = int_range 1 32 in
    let* max_hops = opt (int_range 1 8) in
    let* exclude_as = list_size (int_range 0 3) (map asn (int_range 1 40)) in
    let* exclude_link =
      list_size (int_range 0 2)
        (map2
           (fun a b -> (asn a, asn (a + 1 + b)))
           (int_range 1 20) (int_range 0 20))
    in
    let* geo_fence =
      opt
        (map2
           (fun lat lon ->
             {
               Intent.center =
                 { Geo.lat = float_of_int lat; lon = float_of_int lon };
               radius_km = 2500.0;
             })
           (int_range (-80) 80) (int_range (-170) 170))
    in
    let* require =
      oneofl [ []; [ Intent.Encrypted ]; [ Intent.Monitored ];
               Intent.[ Encrypted; Monitored ] ]
    in
    (* metric lists with duplicate-free components: canonical printing
       keeps term order, so any list round-trips; no constraint needed *)
    return
      (Intent.make ~metric ~k ?max_hops ~exclude_as ~exclude_link ?geo_fence
         ~require ())
  in
  QCheck.make ~print:Intent.to_string gen

let qcheck_intent_roundtrip =
  QCheck.Test.make ~count:500 ~name:"Intent parse (to_string t) = t"
    arbitrary_intent (fun t ->
      match Intent.parse (Intent.to_string t) with
      | Ok t' ->
          Intent.equal t t' && String.equal (Intent.to_string t') (Intent.to_string t)
      | Error (`Msg m) ->
          QCheck.Test.fail_reportf "%S did not parse: %s" (Intent.to_string t) m)

(* The decimal reader takes back every finite double printed in C
   decimal notation, exponent signs included (the intent printer's own
   forms are the round-trip property's). *)
let qcheck_decimal_float_reads_printed =
  QCheck.Test.make ~count:1000 ~name:"Decimal float reader = printed double"
    QCheck.(pair float (int_range (-300) 300))
    (fun (m, e) ->
      let x = if Float.is_finite m then m *. (10.0 ** float_of_int e) else 0.5 in
      (not (Float.is_finite x))
      || List.for_all
           (fun s ->
             match Pan_numerics.Decimal.float_of_string_opt s with
             | Some y -> Int64.bits_of_float y = Int64.bits_of_float x
             | None -> QCheck.Test.fail_reportf "%S did not read" s)
           [
             Printf.sprintf "%.17g" x;
             Printf.sprintf "%.17e" x;
           ])

(* Whitespace and case-insensitive keywords normalize to the canonical
   form. *)
let test_parse_normalizes () =
  let t =
    Intent.parse_exn
      "  metric = 2 * nlatency + nbandwidth ;k=08; exclude-as = AS7 , AS3, \
       AS7 ; require=monitored,encrypted"
  in
  Alcotest.(check string) "canonical"
    "metric=2*nlatency+nbandwidth; k=8; exclude-as=AS3,AS7; \
     require=encrypted,monitored"
    (Intent.to_string t);
  let u = Intent.parse_exn "metric=latency" in
  Alcotest.(check bool) "defaults fill in" true (Intent.equal u Intent.default)

let check_error spec line col frag =
  match Intent.parse_located spec with
  | Ok t ->
      Alcotest.failf "%S parsed as %s, expected error" spec (Intent.to_string t)
  | Error (l, c, msg) ->
      Alcotest.(check (pair int int))
        (Printf.sprintf "position of %S" spec)
        (line, col) (l, c);
      let has_frag =
        let fl = String.length frag and ml = String.length msg in
        let rec scan i =
          i + fl <= ml && (String.sub msg i fl = frag || scan (i + 1))
        in
        scan 0
      in
      if not has_frag then
        Alcotest.failf "error %S does not mention %S" msg frag

let test_parse_error_positions () =
  check_error "metric=bogus" 1 8 "unknown metric component";
  check_error "metric=latency; k=0" 1 19 "k";
  check_error "metric=latency; k=1025" 1 19 "k must be <= 1024, got 1025";
  check_error "k = 1000000000; metric=latency" 1 5
    "k must be <= 1024, got 1000000000";
  Alcotest.(check int) "k = 1024 parses" 1024
    (Intent.parse_exn "metric=latency; k=1024").Intent.k;
  Alcotest.check_raises "make rejects k > 1024"
    (Invalid_argument "Intent.make: k must be <= 1024") (fun () ->
      ignore (Intent.make ~k:1025 ()));
  check_error "metric=latency; k=4; k=2" 1 22 "duplicate";
  check_error "metric=" 1 8 "unknown metric component";
  check_error "metric=latency; geo-fence=1,2" 1 27 "geo-fence";
  check_error "metric=latency; exclude-link=AS1-AS1" 1 30 "self-link";
  check_error "metric=latency;\nwat=1" 2 1 "unknown clause";
  check_error "metric=latency;\n  k = x" 2 7 "k";
  (* integer tokens are plain decimal digits, not OCaml literals *)
  check_error "metric=latency; k=0x2" 1 19 "expected an integer k, got \"0x2\"";
  check_error "metric=latency; k=+2" 1 19 "expected an integer k";
  check_error "metric=latency; max-hops=1_0" 1 26
    "expected an integer max-hops, got \"1_0\"";
  check_error "metric=latency; exclude-as=AS0o10" 1 28
    "expected an AS number like AS42, got \"AS0o10\"";
  check_error "metric=latency; exclude-as=AS3, AS-0" 1 33 "\"AS-0\"";
  check_error "metric=latency; exclude-link=AS1-AS0x2" 1 34 "\"AS0x2\"";
  (* weights and geo-fence numbers are plain decimals too *)
  check_error "metric=0x1p3*latency+1_0*hops; k=2" 1 8
    "expected a finite number for a metric weight, got \"0x1p3\"";
  check_error "metric=latency+1_0*hops; k=2" 1 16
    "expected a finite number for a metric weight, got \"1_0\"";
  check_error "metric=latency; geo-fence=1_0,0x10,5_000" 1 27
    "expected a finite number for geo-fence latitude, got \"1_0\"";
  check_error "metric=latency; geo-fence=10,0x10,5000" 1 30
    "expected a finite number for geo-fence longitude, got \"0x10\"";
  check_error "metric=latency; geo-fence=10,16,5_000" 1 33
    "expected a finite number for geo-fence radius, got \"5_000\"";
  check_error "metric=+2*latency" 1 8 "unknown metric component";
  check_error "metric=latency; geo-fence=+1,2,3" 1 27 "got \"+1\"";
  check_error "metric=1e400*latency" 1 8 "expected a finite number";
  check_error "metric=.*latency" 1 8 "got \".\"";
  check_error "metric=1e*latency" 1 8 "got \"1e\"";
  check_error "metric=latency; geo-fence=nan,0,1" 1 27 "got \"nan\"";
  Alcotest.(check string) "decimal forms parse"
    "metric=0.5*latency+0.0025*hops+5*nlatency; k=1; \
     geo-fence=-33.9,151.2,1000"
    (Intent.to_string
       (Intent.parse_exn
          "metric=.5*latency+2.5e-3*hops+5.*nlatency; \
           geo-fence=-33.9,151.2,1E3"))

(* A bad spec inside a stream line reports the 1-based column within
   that line (the embedder re-anchors intent columns). *)
let test_stream_intent_error_column () =
  let line = "intent AS1 AS2 metric=bogus; k=2" in
  match Pan_service.Stream.parse line with
  | _ -> Alcotest.fail "bad intent spec accepted"
  | exception Invalid_argument msg ->
      (* "metric=" starts at column 16, so the bad component is at 23 *)
      Alcotest.(check string) "anchored column"
        "Stream.parse: line 1: intent spec (col 23): unknown metric \
         component \"bogus\" (expected latency, nlatency, bandwidth, \
         nbandwidth or hops)"
        msg

(* ------------------------------------------------------------------ *)
(* Scion.Selection facade = pre-refactor implementation                *)

(* The pre-refactor Selection, copied verbatim (modulo module paths):
   the facade must reproduce its floats bit-for-bit. *)
module Reference = struct
  let per_hop_penalty_km = 100.0

  let latency_proxy (ctx : Pan_scion.Selection.context) ases =
    match ases with
    | [] | [ _ ] -> invalid_arg "reference: path too short"
    | first :: _ ->
        let rec link_points = function
          | a :: (b :: _ as rest) ->
              Geo.link_location ctx.geo a b :: link_points rest
          | _ -> []
        in
        let links = link_points ases in
        let src_loc = Geo.as_location ctx.geo first in
        let rec last = function
          | [ x ] -> x
          | _ :: rest -> last rest
          | [] -> assert false
        in
        let dst_loc = Geo.as_location ctx.geo (last ases) in
        let rec chain acc prev = function
          | [] -> acc +. Geo.distance_km prev dst_loc
          | p :: rest -> chain (acc +. Geo.distance_km prev p) p rest
        in
        let geodist =
          match links with
          | [] -> Geo.distance_km src_loc dst_loc
          | p :: rest -> chain (Geo.distance_km src_loc p) p rest
        in
        geodist +. (per_hop_penalty_km *. float_of_int (List.length ases))

  let bandwidth_proxy (ctx : Pan_scion.Selection.context) ases =
    Bandwidth.path_bandwidth ctx.bandwidth ases

  let score ctx app ases =
    match app with
    | Pan_scion.Selection.Voip -> latency_proxy ctx ases
    | Pan_scion.Selection.File_transfer -> -.bandwidth_proxy ctx ases
    | Pan_scion.Selection.Web ->
        (latency_proxy ctx ases /. 1000.0)
        +. (1000.0 /. Float.max 1.0 (bandwidth_proxy ctx ases))

  let compare_candidates ctx app s1 s2 =
    let a1 = Pan_scion.Segment.ases s1 and a2 = Pan_scion.Segment.ases s2 in
    match compare (score ctx app a1) (score ctx app a2) with
    | 0 -> (
        match compare (List.length a1) (List.length a2) with
        | 0 -> compare a1 a2
        | c -> c)
    | c -> c

  let rank ctx app candidates =
    List.stable_sort (compare_candidates ctx app) candidates
end

let qcheck_selection_facade =
  QCheck.Test.make ~count:15
    ~name:"Selection.rank/score = pre-refactor reference (bit-identical)"
    QCheck.(int_range 1 1000)
    (fun seed ->
      let open Pan_scion in
      let params =
        { Gen.default_params with Gen.n_transit = 8; Gen.n_stub = 30 }
      in
      let g = Gen.graph (Gen.generate ~params ~seed ()) in
      let ctx =
        {
          Selection.geo = Geo.generate ~seed:(seed + 1) g;
          Selection.bandwidth = Bandwidth.degree_gravity g;
        }
      in
      let authz = Authz.create g in
      let ps = Path_server.build authz (Beacon.run authz) in
      let ases = Array.of_list (Graph.ases g) in
      let rng = Rng.create (seed + 2) in
      let apps =
        Selection.[ Voip; File_transfer; Web ]
      in
      List.for_all Fun.id
        (List.init 20 (fun _ ->
             let src = ases.(Rng.int rng (Array.length ases)) in
             let dst = ases.(Rng.int rng (Array.length ases)) in
             let candidates = Combinator.end_to_end ps ~src ~dst in
             List.for_all
               (fun app ->
                 let got = Selection.rank ctx app candidates in
                 let expected = Reference.rank ctx app candidates in
                 List.map Segment.ases got = List.map Segment.ases expected
                 && Selection.select ctx app candidates
                    = (match expected with [] -> None | s :: _ -> Some s)
                 && List.for_all
                      (fun s ->
                        let ases = Segment.ases s in
                        (* bit-identical, not approximately equal *)
                        Float.equal
                          (Selection.score ctx app ases)
                          (Reference.score ctx app ases))
                      candidates)
               apps)))

(* ------------------------------------------------------------------ *)
(* Engine intent memo across churn                                     *)

let test_engine_intent_churn_equivalence () =
  let open Pan_service in
  let params = { Gen.default_params with Gen.n_transit = 10; Gen.n_stub = 40 } in
  let topo = Compact.freeze (Gen.graph (Gen.generate ~params ~seed:7 ())) in
  let intent = Intent.parse_exn "metric=nlatency+nbandwidth; k=4" in
  let stream =
    Stream.generate ~intent ~rng:(Rng.create 11) ~topo ~requests:120
      ~churn:0.3 ()
  in
  let engine = Engine.create topo in
  let n = Compact.num_ases topo in
  let pairs = List.init 6 (fun i -> (i * 5 mod n, ((i * 5) + 7) mod n)) in
  List.iter
    (fun item ->
      (match item with
      | Stream.Up _ | Stream.Down _ ->
          ignore (Engine.apply engine (Serve.event_of_item topo item) : int)
      | Stream.Intent_query { src; dst; intent } ->
          let src = Compact.index_of_exn topo src in
          let dst = Compact.index_of_exn topo dst in
          ignore (Engine.intent_query engine ~src ~dst intent
                   : Candidates.result list)
      | Stream.Query _ -> ());
      (* after every item, the memo (warm or churn-invalidated) must
         agree with a fresh recomputation on fixed probe pairs *)
      List.iter
        (fun (src, dst) ->
          if src <> dst then
            let cached = Engine.intent_query engine ~src ~dst intent in
            let fresh = Engine.intent_query_uncached engine ~src ~dst intent in
            if cached <> fresh then
              Alcotest.failf "memoized intent answer diverges for (%d, %d)"
                src dst)
        pairs)
    stream;
  let st = Engine.stats engine in
  Alcotest.(check bool) "memo was exercised" true (st.Engine.store_hits > 0);
  Alcotest.(check bool) "churn invalidated something" true
    (st.Engine.invalidated > 0)

(* ------------------------------------------------------------------ *)
(* Probe                                                               *)

let test_probe_no_faults_selects_first () =
  let topo = diamond () in
  let paths = [ [ asn 1; asn 2; asn 3 ]; [ asn 1; asn 3 ] ] in
  let saved = Pan_runner.Fault.get () in
  Pan_runner.Fault.set None;
  Fun.protect
    ~finally:(fun () -> Pan_runner.Fault.set saved)
    (fun () ->
      let o = Probe.run ~topo paths in
      Alcotest.(check bool) "first candidate wins" true
        (o.Probe.selected = Some [ asn 1; asn 2; asn 3 ]);
      Alcotest.(check int) "single attempt" 1 (List.length o.Probe.attempts))

let test_probe_deterministic_under_faults () =
  let params = { Gen.default_params with Gen.n_transit = 8; Gen.n_stub = 30 } in
  let topo = Compact.freeze (Gen.graph (Gen.generate ~params ~seed:5 ())) in
  let metric =
    Metric.of_models
      ~geo:(Geo.of_compact ~seed:43 topo)
      ~bandwidth:(Bandwidth.of_compact topo)
  in
  let intent = Intent.parse_exn "metric=latency; k=6" in
  let n = Compact.num_ases topo in
  let saved = Pan_runner.Fault.get () in
  let probe_all () =
    Pan_runner.Fault.set
      (Some { Pan_runner.Fault.seed = 3; rate = 0.2; delay = 0.0;
              delay_rate = 0.0 });
    Fun.protect
      ~finally:(fun () -> Pan_runner.Fault.set saved)
      (fun () ->
        List.init 15 (fun i ->
            let src = Compact.id topo (i mod n) in
            let dst = Compact.id topo ((i + 9) mod n) in
            if Asn.equal src dst then None
            else
              let paths =
                List.map
                  (fun r -> r.Candidates.path)
                  (Candidates.generate ~topo ~metric intent ~src ~dst)
              in
              let o = Probe.run ~topo paths in
              Some (o.Probe.selected, Probe.failed_links o)))
  in
  let first = probe_all () in
  Alcotest.(check bool) "probe outcome is a pure function of the spec" true
    (first = probe_all ());
  let failed =
    List.exists
      (function Some (_, _ :: _) -> true | _ -> false)
      first
  in
  Alcotest.(check bool) "faults actually fired" true failed

let suite =
  [
    Alcotest.test_case "Compact.Mask semantics" `Quick test_mask_semantics;
    QCheck_alcotest.to_alcotest qcheck_yen_oracle;
    QCheck_alcotest.to_alcotest qcheck_yen_oracle_masked;
    QCheck_alcotest.to_alcotest qcheck_yen_reference;
    QCheck_alcotest.to_alcotest qcheck_yen_deterministic;
    Alcotest.test_case
      "k_shortest reuse falls back when a root node or an avoided hop matters"
      `Quick test_reuse_fallback;
    QCheck_alcotest.to_alcotest qcheck_intent_roundtrip;
    QCheck_alcotest.to_alcotest qcheck_decimal_float_reads_printed;
    Alcotest.test_case "parse normalizes to canonical form" `Quick
      test_parse_normalizes;
    Alcotest.test_case "parse errors carry line/column" `Quick
      test_parse_error_positions;
    Alcotest.test_case "stream re-anchors intent error columns" `Quick
      test_stream_intent_error_column;
    QCheck_alcotest.to_alcotest qcheck_selection_facade;
    Alcotest.test_case "engine intent memo = uncached across churn" `Quick
      test_engine_intent_churn_equivalence;
    Alcotest.test_case "probe: no faults -> first candidate" `Quick
      test_probe_no_faults_selects_first;
    Alcotest.test_case "probe: deterministic under injected faults" `Quick
      test_probe_deterministic_under_faults;
  ]
