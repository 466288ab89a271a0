(* Marketplace determinism suite (lib/market).

   The headline properties, in the spirit of the PR 5 runner-equivalence
   and PR 7 churn-equivalence suites: a marketplace run's epoch outcomes
   — the signed agreement set, welfare totals, and the byte-exact
   transcript fingerprint — are identical for every pool size, for every
   chunk size, and under injected faults with retries; and the epoch
   loop's incrementally-spliced topology is byte-identical to a
   from-scratch freeze of the equivalently-mutated graph (the Delta
   oracle). *)

open Pan_topology
open Pan_market
module Pool = Pan_runner.Pool
module Fault = Pan_runner.Fault

let gen_graph ?(n_transit = 8) ?(n_stub = 30) seed =
  let params = { Gen.default_params with Gen.n_transit; Gen.n_stub } in
  Gen.graph (Gen.generate ~params ~seed ())

let config ?(epochs = 2) ?(seed = 11) () =
  {
    Market.default with
    Market.epochs;
    w = 8;
    max_candidates = 32;
    chunk = 5;
    seed;
  }

let same_result (a : Market.result) (b : Market.result) =
  String.equal a.Market.fingerprint b.Market.fingerprint
  && a.Market.agreements = b.Market.agreements
  && a.Market.welfare = b.Market.welfare
  && List.map (fun (r : Market.epoch_report) -> (r.Market.epoch, r.Market.welfare)) a.Market.reports
     = List.map (fun (r : Market.epoch_report) -> (r.Market.epoch, r.Market.welfare)) b.Market.reports
  (* the Both-mode comparison records hold possibly-nan PoD means, so
     [compare] (which equates nans) instead of [=] *)
  && compare
       (List.map (fun (r : Market.epoch_report) -> r.Market.mech) a.Market.reports)
       (List.map (fun (r : Market.epoch_report) -> r.Market.mech) b.Market.reports)
     = 0

let mech_gen =
  QCheck.oneofl [ Market.Bosco; Market.Nash_peering; Market.Both ]

(* ------------------------------------------------------------------ *)
(* j=1 = j=4, any chunk size — every mechanism                         *)

let qcheck_jobs_equivalence =
  QCheck.Test.make ~count:6
    ~name:
      "market: epoch outcomes byte-identical at j=1 vs j=4, any chunk, every \
       mechanism"
    QCheck.(pair (int_range 1 1_000) mech_gen)
    (fun (seed, mechanism) ->
      let g = gen_graph seed in
      let cfg = config ~seed () in
      let seq = Market.run ~mechanism cfg g in
      let par =
        Pool.with_pool ~domains:4 (fun pool ->
            Market.run ~pool ~mechanism cfg g)
      in
      let rechunked = Market.run ~mechanism { cfg with Market.chunk = 16 } g in
      same_result seq par && same_result seq rechunked)

(* ------------------------------------------------------------------ *)
(* Faults + retries reproduce the fault-free run — every mechanism     *)

let qcheck_fault_equivalence =
  QCheck.Test.make ~count:4
    ~name:
      "market: faulty run with retries = fault-free, j=1 and j=4, every \
       mechanism"
    QCheck.(pair (int_range 1 1_000) mech_gen)
    (fun (seed, mechanism) ->
      let g = gen_graph seed in
      let cfg = config ~seed () in
      let baseline = Market.run ~mechanism cfg g in
      (* rate 0.3 with 10 retries: exhausting a chunk is ~6e-6 *)
      Fault.set
        (Some { Fault.seed; rate = 0.3; delay = 0.0; delay_rate = 0.0 });
      Fun.protect
        ~finally:(fun () -> Fault.set None)
        (fun () ->
          let faulty_seq = Market.run ~mechanism ~retries:10 cfg g in
          let faulty_par =
            Pool.with_pool ~domains:4 (fun pool ->
                Market.run ~pool ~mechanism ~retries:10 cfg g)
          in
          same_result baseline faulty_seq && same_result baseline faulty_par))

(* ------------------------------------------------------------------ *)
(* Delta oracle: spliced topology = from-scratch freeze, every epoch   *)

let test_delta_oracle () =
  let g = gen_graph 3 in
  let r = Market.run ~oracle:true (config ~seed:3 ()) g in
  Alcotest.(check (option bool)) "oracle" (Some true) r.Market.oracle_ok;
  Alcotest.(check bool) "candidates were scored" true (r.Market.pairs > 0);
  Alcotest.(check bool) "negotiations ran" true (r.Market.negotiations > 0);
  Alcotest.(check bool) "agreements were signed" true
    (r.Market.agreements <> []);
  Alcotest.(check int) "reports cover the signed totals"
    (List.length r.Market.agreements)
    (List.fold_left
       (fun acc (e : Market.epoch_report) -> acc + e.Market.signed)
       0 r.Market.reports)

(* Signing reshapes the next epoch: every signed pair is connected
   afterwards, so no agreement can recur across epochs. *)
let test_agreements_distinct () =
  let g = gen_graph 7 in
  let r = Market.run (config ~epochs:3 ~seed:7 ()) g in
  let norm (x, y) = if Asn.compare x y <= 0 then (x, y) else (y, x) in
  let pairs = List.map norm r.Market.agreements in
  Alcotest.(check int) "no pair signed twice"
    (List.length pairs)
    (List.length (List.sort_uniq compare pairs))

(* ------------------------------------------------------------------ *)
(* Arena reuse is pure scratch: re-negotiating is bit-identical        *)

let test_negotiate_pair_deterministic () =
  let g = gen_graph 5 in
  let topo = Compact.freeze g in
  let cands = Candidates.enumerate ~min_gain:2 topo in
  Alcotest.(check bool) "have candidates" true (Array.length cands > 0);
  let dist = Pan_numerics.Distribution.uniform (-1.0) 1.0 in
  let truthful = 1.0 /. 12.0 in
  let once i =
    Negotiate.negotiate_pair ~topo ~seed:5 ~epoch:1 ~w:8
      ~max_demands:3 ~truthful ~dist cands.(i)
  in
  for i = 0 to Int.min 4 (Array.length cands - 1) do
    let a = once i and b = once i in
    Alcotest.(check bool)
      (Printf.sprintf "outcome %d bit-identical on arena reuse" i)
      true
      (a.Negotiate.u_x = b.Negotiate.u_x
      && a.Negotiate.u_y = b.Negotiate.u_y
      && (a.Negotiate.pod = b.Negotiate.pod
         || (Float.is_nan a.Negotiate.pod && Float.is_nan b.Negotiate.pod))
      && a.Negotiate.rounds = b.Negotiate.rounds
      && a.Negotiate.signed = b.Negotiate.signed)
  done

(* ------------------------------------------------------------------ *)
(* Candidate enumeration invariants                                    *)

let test_candidates_sound () =
  let g = gen_graph 9 in
  let topo = Compact.freeze g in
  let cands = Candidates.enumerate ~min_gain:2 ~max_candidates:1000 topo in
  Array.iter
    (fun (c : Candidates.t) ->
      if c.Candidates.x >= c.Candidates.y then Alcotest.fail "x >= y";
      if Compact.connected topo c.Candidates.x c.Candidates.y then
        Alcotest.fail "candidate pair already connected";
      let gx, gy = Candidates.gains topo c.Candidates.x c.Candidates.y in
      Alcotest.(check int) "gain_x" gx c.Candidates.gain_x;
      Alcotest.(check int) "gain_y" gy c.Candidates.gain_y;
      if gx < 2 || gy < 2 then Alcotest.fail "below min_gain";
      (* the cheap CSR count agrees with the bitset path algebra *)
      Alcotest.(check int) "gain_x = |ma_gain|"
        (Bitset.cardinal
           (Path_enum_compact.ma_gain topo c.Candidates.x c.Candidates.y))
        gx;
      Alcotest.(check int) "gain_y = |ma_gain|"
        (Bitset.cardinal
           (Path_enum_compact.ma_gain topo c.Candidates.y c.Candidates.x))
        gy)
    cands

(* ------------------------------------------------------------------ *)
(* Bound-pruned top-K ≡ full build-sort-truncate scan                  *)

let budgets = [ 0; 1; 7; 256; 4096 ]

let pp_cands (a : Candidates.t array) =
  String.concat " "
    (Array.to_list
       (Array.map
          (fun (c : Candidates.t) ->
            Printf.sprintf "(%d,%d:%d+%d)" c.Candidates.x c.Candidates.y
              c.Candidates.gain_x c.Candidates.gain_y)
          a))

let qcheck_topk_equals_scan =
  let gen =
    QCheck.Gen.(
      int_range 2 50 >>= fun n_transit ->
      (* 12 tier-1 ASes + transit + stubs in [20, 300] *)
      int_range (max 0 (8 - n_transit)) (288 - n_transit) >>= fun n_stub ->
      quad (return (n_transit, n_stub)) (int_range 0 6) (int_range 1 10_000)
        (oneofl [ 1; 2; 3; 5 ]))
  in
  QCheck.Test.make ~count:40 ~name:"candidates: bound-pruned top-K = full scan"
    (QCheck.make gen ~print:(fun ((t, s), hubs, seed, min_gain) ->
         Printf.sprintf "transit=%d stubs=%d hubs=%d seed=%d min_gain=%d" t s
           hubs seed min_gain))
    (fun ((n_transit, n_stub), route_server_hubs, seed, min_gain) ->
      let params =
        { Gen.default_params with Gen.n_transit; n_stub; route_server_hubs }
      in
      let topo = Compact.freeze (Gen.graph (Gen.generate ~params ~seed ())) in
      List.for_all
        (fun max_candidates ->
          let got = Candidates.enumerate ~min_gain ~max_candidates topo in
          let want =
            Pan_oracle.Candidates_reference.enumerate ~min_gain ~max_candidates
              topo
          in
          got = want
          || QCheck.Test.fail_reportf "budget %d:@.got  %s@.want %s"
               max_candidates (pp_cands got) (pp_cands want))
        budgets)

(* Customers c1..c4 (AS11..14) of P and Q (AS1, AS2); c2 and c4 also
   peer with R and S (AS21, AS22), so up(c2) = up(c4) = 4 and
   up(c1) = up(c3) = 2.  Every c–c pair gains up(other) per side:
   (c2,c4) totals 8, then four pairs tie at 6.  The search meets
   (c2,c3) before (c1,c4), which ties it at the K-th total and wins on
   (x, y) only if bound = K-th total is still searched. *)
let test_topk_tie_at_cut () =
  let g = Graph.create () in
  let a = Asn.of_int in
  List.iter
    (fun c ->
      Graph.add_provider_customer g ~provider:(a 1) ~customer:(a c);
      Graph.add_provider_customer g ~provider:(a 2) ~customer:(a c))
    [ 11; 12; 13; 14 ];
  List.iter
    (fun (x, y) -> Graph.add_peering g (a x) (a y))
    [ (12, 21); (12, 22); (14, 21); (14, 22) ];
  let topo = Compact.freeze g in
  let asns (arr : Candidates.t array) =
    Array.to_list
      (Array.map
         (fun (c : Candidates.t) ->
           ( Asn.to_int (Compact.id topo c.Candidates.x),
             Asn.to_int (Compact.id topo c.Candidates.y),
             Candidates.(c.gain_x + c.gain_y) ))
         arr)
  in
  let full = Pan_oracle.Candidates_reference.enumerate topo in
  Alcotest.(check (list (triple int int int)))
    "full scan"
    [
      (12, 14, 8); (11, 12, 6); (11, 14, 6); (12, 13, 6); (13, 14, 6);
      (11, 13, 4); (21, 22, 4);
    ]
    (asns full);
  for max_candidates = 0 to 8 do
    Alcotest.(check (list (triple int int int)))
      (Printf.sprintf "budget %d" max_candidates)
      (asns (Pan_oracle.Candidates_reference.enumerate ~max_candidates topo))
      (asns (Candidates.enumerate ~max_candidates topo))
  done

(* ------------------------------------------------------------------ *)
(* Nash-Peering qualifier ≡ brute-force coalition oracle               *)

let test_qualifier_oracle () =
  List.iter
    (fun seed ->
      let g = gen_graph ~n_transit:4 ~n_stub:12 seed in
      let topo = Compact.freeze g in
      let cands = Candidates.enumerate ~min_gain:1 ~max_candidates:64 topo in
      let scores =
        Array.map
          (Nash_peering.score_pair ~topo ~seed ~epoch:1 ~max_demands:3)
          cands
      in
      let v = Nash_peering.qualify scores in
      let o = Pan_oracle.Qualify_reference.qualify_oracle scores in
      Alcotest.(check int)
        (Printf.sprintf "seed %d: verdict count" seed)
        (Array.length o) (Array.length v);
      Array.iteri
        (fun i (a : Nash_peering.verdict) ->
          let b = o.(i) in
          let ctx = Printf.sprintf "seed %d verdict %d" seed i in
          Alcotest.(check bool)
            (ctx ^ ": qualified")
            b.Nash_peering.qualified a.Nash_peering.qualified;
          Alcotest.(check bool)
            (ctx ^ ": share/coalition values bit-identical")
            true
            (a.Nash_peering.share = b.Nash_peering.share
            && a.Nash_peering.best_x = b.Nash_peering.best_x
            && a.Nash_peering.best_y = b.Nash_peering.best_y))
        v;
      (* at least one graph in the sweep must actually discriminate *)
      if seed = 1 then
        Alcotest.(check bool) "qualifier keeps a strict subset somewhere" true
          (Nash_peering.count_qualified v <= Array.length v))
    [ 1; 2; 3; 17 ]

(* ------------------------------------------------------------------ *)
(* Both mode: the Bosco arm is the Bosco run; the Nash arm's first     *)
(* epoch is the Nash_peering run's first epoch (shared snapshot)       *)

let test_both_mode_arms () =
  let g = gen_graph 13 in
  let cfg = config ~seed:13 () in
  let bosco = Market.run cfg g in
  let nash = Market.run ~mechanism:Market.Nash_peering cfg g in
  let both = Market.run ~mechanism:Market.Both cfg g in
  Alcotest.(check bool) "Both splices the Bosco signings" true
    (both.Market.agreements = bosco.Market.agreements);
  Alcotest.(check bool) "Both's epoch stream = Bosco's" true
    (List.map
       (fun (r : Market.epoch_report) ->
         (r.Market.epoch, r.Market.signed, r.Market.welfare))
       both.Market.reports
    = List.map
        (fun (r : Market.epoch_report) ->
          (r.Market.epoch, r.Market.signed, r.Market.welfare))
        bosco.Market.reports);
  List.iter
    (fun (r : Market.epoch_report) ->
      match r.Market.mech with
      | None -> Alcotest.fail "Both-mode epoch without comparison record"
      | Some c ->
          Alcotest.(check int) "bosco arm signed = epoch signed"
            r.Market.signed c.Market.bosco_signed;
          Alcotest.(check bool) "bosco arm welfare = epoch welfare" true
            (c.Market.bosco_welfare = r.Market.welfare);
          Alcotest.(check bool) "nash arm is a subset" true
            (c.Market.nash_signed <= c.Market.cmp_qualified
            && c.Market.cmp_qualified <= r.Market.candidates
            && c.Market.nash_welfare <= c.Market.bosco_welfare))
    both.Market.reports;
  (* first epochs share the pristine snapshot: the counterfactual nash
     arm is bit-identical to the real nash-peering run *)
  match (both.Market.reports, nash.Market.reports) with
  | rb :: _, rn :: _ ->
      let c = Option.get rb.Market.mech in
      Alcotest.(check int) "first-epoch qualified" rn.Market.qualified
        c.Market.cmp_qualified;
      Alcotest.(check int) "first-epoch nash signed" rn.Market.signed
        c.Market.nash_signed;
      Alcotest.(check bool) "first-epoch nash welfare bit-identical" true
        (c.Market.nash_welfare = rn.Market.welfare)
  | _ -> Alcotest.fail "no epochs"

(* Bench parts 13 and 14 at smoke scale, whose fingerprints
   BENCH_market.json and BENCH_market_mech.json record: two epochs of
   up to 384 candidates at W = 24 on the 206-AS graph, at -j1. *)
let bench_smoke_graph () = gen_graph ~n_transit:24 ~n_stub:170 42

let bench_smoke_config =
  { Market.default with Market.epochs = 2; w = 24; max_candidates = 384;
    chunk = 8 }

let bench_smoke_fingerprint mechanism =
  (Market.run ~mechanism bench_smoke_config (bench_smoke_graph ()))
    .Market.fingerprint

(* The graph entry point and the frozen-core one run the same market. *)
let test_market_golden () =
  Alcotest.(check string) "fingerprint" "a6f1ac931c6ba8cb4dab55dc4fa3cd70"
    (bench_smoke_fingerprint Market.Bosco);
  Alcotest.(check string) "run_frozen fingerprint"
    "a6f1ac931c6ba8cb4dab55dc4fa3cd70"
    (Market.run_frozen bench_smoke_config
       (Compact.freeze (bench_smoke_graph ())))
      .Market.fingerprint

let test_market_mech_golden () =
  Alcotest.(check string) "fingerprint" "327987d80ac3b04f31587aaa4e3c282a"
    (bench_smoke_fingerprint Market.Both)

(* ------------------------------------------------------------------ *)
(* compare_candidates: saturating total order (the overflow regression)*)

let cand_gen =
  let open QCheck.Gen in
  let gain =
    oneof
      [
        int_range 0 1_000;
        oneofl [ 0; 1; (max_int / 2) - 1; max_int / 2; max_int - 1; max_int ];
      ]
  in
  map
    (fun ((x, y), (gx, gy)) -> { Candidates.x; y; gain_x = gx; gain_y = gy })
    (pair (pair (int_range 0 50) (int_range 0 50)) (pair gain gain))

(* The intended order, computed without overflow: gain sums in Int64,
   clamped to [max_int] (the saturation point), descending; ties by
   ascending pair.  Agreement with this oracle pins both the ranking and
   the saturation semantics — the pre-fix comparator wraps at
   [max_int + 5] and sorts adversarial candidates last. *)
let exact_compare a b =
  let clamp v =
    if Int64.compare v (Int64.of_int max_int) > 0 then Int64.of_int max_int
    else v
  in
  let s (c : Candidates.t) =
    clamp
      (Int64.add (Int64.of_int c.Candidates.gain_x)
         (Int64.of_int c.Candidates.gain_y))
  in
  match Int64.compare (s b) (s a) with
  | 0 ->
      compare
        (a.Candidates.x, a.Candidates.y)
        (b.Candidates.x, b.Candidates.y)
  | c -> c

let qcheck_compare_candidates =
  QCheck.Test.make ~count:1_000
    ~name:"candidates: compare is a saturating total order (= Int64 oracle)"
    (QCheck.make
       QCheck.Gen.(triple cand_gen cand_gen cand_gen)
       ~print:(fun ((a : Candidates.t), b, c) ->
         let one (d : Candidates.t) =
           Printf.sprintf "{x=%d;y=%d;gx=%d;gy=%d}" d.Candidates.x
             d.Candidates.y d.Candidates.gain_x d.Candidates.gain_y
         in
         String.concat " " [ one a; one b; one c ]))
    (fun (a, b, c) ->
      let sign n = compare n 0 in
      let cmp = Candidates.compare_candidates in
      (* agreement with the overflow-free oracle *)
      sign (cmp a b) = sign (exact_compare a b)
      (* antisymmetry and reflexivity *)
      && sign (cmp a b) = -sign (cmp b a)
      && cmp a a = 0
      (* transitivity across the triple *)
      && (not (cmp a b <= 0 && cmp b c <= 0) || cmp a c <= 0))

let suite =
  [
    QCheck_alcotest.to_alcotest qcheck_jobs_equivalence;
    QCheck_alcotest.to_alcotest qcheck_fault_equivalence;
    QCheck_alcotest.to_alcotest qcheck_compare_candidates;
    QCheck_alcotest.to_alcotest qcheck_topk_equals_scan;
    Alcotest.test_case "candidates: budget cuts inside a tie" `Quick
      test_topk_tie_at_cut;
    Alcotest.test_case "delta oracle across epochs" `Quick test_delta_oracle;
    Alcotest.test_case "agreements distinct across epochs" `Quick
      test_agreements_distinct;
    Alcotest.test_case "negotiate_pair deterministic on arena reuse" `Quick
      test_negotiate_pair_deterministic;
    Alcotest.test_case "candidate enumeration sound" `Quick
      test_candidates_sound;
    Alcotest.test_case "nash-peering qualifier = coalition oracle" `Quick
      test_qualifier_oracle;
    Alcotest.test_case "both-mode arms consistent" `Quick test_both_mode_arms;
    Alcotest.test_case "market = BENCH_market.json" `Quick test_market_golden;
    Alcotest.test_case "market mech = BENCH_market_mech.json" `Quick
      test_market_mech_golden;
  ]
