(* Benchmark and reproduction harness.

   Part 1 regenerates every figure of the paper's evaluation at a scale
   that completes in a few minutes (the `panagree` CLI runs the full-scale
   versions; EXPERIMENTS.md records full-scale results).

   Part 2 times the computational kernel behind each experiment with
   Bechamel — one Test.make per figure/experiment — and prints OLS
   estimates of ns/run.

   Part 3 runs the ablations called out in DESIGN.md §5.

   Part 4 measures the parallel experiment engine (lib/runner): wall-clock
   scaling of the ported experiment kernels over worker-domain counts,
   verifying on the fly that every parallel run reproduces the sequential
   result bit-for-bit, plus a sequential-vs-parallel Bechamel pair.

   Part 5 demonstrates the observability layer (lib/obs): one instrumented
   diversity run with the real clock, printing the metrics table and the
   span tree — the same data `panagree --metrics/--trace` exports.

   Parts 6 and 7 compare against the reference implementations of the
   test-only pan_oracle library (test/oracle).

   Part 6 measures the compact frozen-topology core (lib/topology
   Compact/Bitset): freeze cost and scenario_paths sweep throughput of
   the oracle's ASN-set enumerator vs Path_enum_compact on generated
   topologies, verifying equal results and --jobs 1 = --jobs 4
   determinism on the fly.

   Part 7 measures the BOSCO best-response kernel (lib/bosco
   Strategy/Workspace): time per best response of the O(W)
   Strategy.best_response vs the oracle's O(W²) reference across
   choice-set sizes, verifying equal thresholds; time, rounds and
   minor-heap words per Service.negotiate through one long-lived
   workspace at W ∈ {8, 16, 24, 48}; then --jobs 1 = --jobs 4
   determinism of Service.trials.

   Part 8 measures the supervised runner (lib/runner Supervise/Fault):
   the E1 kernel fault-free vs supervised-with-retries vs under injected
   faults (rate 0.1, retries 5), verifying that every recovered run
   reproduces the fault-free fingerprint bit-for-bit at -j1 and -j4 and
   that the faulty runs actually exercised retries.

   Part 9 measures the econ fast kernel (lib/econ Model_fast):
   Model_fast.utilities vs the map-based Traffic_model.utilities on the
   fig1 scenario, verifying bit-identical utilities, then the E8
   method-comparison sweep's -j1 = -j4 fingerprints.

   Part 10 measures versioned topology snapshots (lib/topology
   Compact.Snapshot, the frozen core and nothing else): loading a core
   vs re-parsing and re-freezing its CAIDA serialization, verifying
   byte-identical frozen cores.

   Part 11 measures the resident path-query service (lib/service):
   sustained queries/sec and per-query latency percentiles under link
   churn, the incremental-freeze drain vs the re-freeze oracle (which
   thaws, edits and re-freezes per event), verifying byte-identical
   transcripts between the two modes and between -j1 and -j4, and
   emitting BENCH_serve.json (`main.exe serve[-smoke]`,
   `make bench-serve`).

   Part 12 measures the intent engine (lib/intent): K-shortest candidate
   generation throughput over the compact core across K = 1..32,
   deterministic probe-with-failover under an injected fault spec, and a
   serve drain of an all-intent stream under churn, verifying -j1 = -j4
   transcripts and emitting BENCH_intent.json
   (`main.exe intent[-smoke]`, `make bench-intent`).

   Part 13 measures the MA negotiation marketplace (lib/market): the
   full epoch loop — candidate enumeration, concurrent BOSCO
   negotiations, batch agreement splices — timed at -j1/-j2/-j4 in
   negotiations/sec, verifying byte-identical transcript fingerprints
   at every pool size, across re-runs, and against the from-scratch
   freeze oracle, and emitting BENCH_market.json
   (`main.exe market[-smoke]`, `make bench-market`).

   Part 14 runs Part 13 with the Both mechanism, comparing BOSCO and
   the Nash-Peering qualifier per epoch on shared candidate streams, and
   emits BENCH_market_mech.json (`main.exe market-mech[-smoke]`,
   `make bench-market-mech`).

   Parts 7, 9 and 10 also emit machine-readable BENCH_<part>.json
   snapshots (Pan_obs.Bench_snap) recording wall-clock, throughput,
   speedup and a result fingerprint; `panagree validate-bench FILE...`
   re-parses and schema-checks emitted files.

   Invocation: no argument runs everything at moderate scale;
   `main.exe topo` runs only the Part 6 smoke (1k ASes, used by CI and
   `make bench-topo`); `main.exe topo-full` runs Part 6 at 1k/10k/50k;
   `main.exe topo-snapshot[-smoke]` runs Part 10 (full: 1k/10k/50k);
   `main.exe bosco` runs only Part 7 at W ∈ {8..2048} (used by
   `make bench-bosco`); `main.exe bosco-smoke` caps Part 7 at W = 128
   (used by CI); both emit BENCH_bosco.json; `main.exe econ[-smoke]`
   runs Part 9 (60/24 scenarios); `main.exe faults` runs only Part 8
   (used by CI and `make bench-faults`); `main.exe runner` runs only
   Part 4 (`make bench-runner`).  The topo, bosco, econ, topo-snapshot,
   faults and runner parts exit non-zero on any fingerprint or
   determinism mismatch. *)

open Bechamel
open Toolkit
open Pan_numerics
open Pan_topology
open Pan_bosco
open Pan_experiments

let fmt = Format.std_formatter
let section name =
  Format.fprintf fmt "@.==================== %s ====================@." name

(* ------------------------------------------------------------------ *)
(* Part 1: figure reproduction (reduced scale)                         *)

let shared_graph =
  lazy
    (let params =
       { Gen.default_params with Gen.n_transit = 250; Gen.n_stub = 1250 }
     in
     Gen.graph (Gen.generate ~params ~seed:42 ()))

let reproduce_fig2 () =
  section "Fig. 2 — Price of Dishonesty vs. choice-set size (E1)";
  List.iter
    (fun s -> Fig2_pod.pp_series fmt s)
    (Fig2_pod.run_both ~ws:[ 2; 5; 10; 20; 50 ] ~trials:60 ~seed:42 ())

let reproduce_fig34 () =
  section "Figs. 3 & 4 — length-3 paths and destinations (E2/E3/E6)";
  let g = Lazy.force shared_graph in
  Format.fprintf fmt "# topology: %a@." Graph.pp_stats g;
  Diversity.pp_result fmt (Diversity.analyze ~sample_size:300 ~seed:7 g)

let reproduce_fig5 () =
  section "Fig. 5 — geodistance of MA paths (E4)";
  let g = Lazy.force shared_graph in
  Geodistance.pp fmt (Geodistance.run ~sample_size:200 ~seed:7 g)

let reproduce_fig6 () =
  section "Fig. 6 — bandwidth of MA paths (E5)";
  let g = Lazy.force shared_graph in
  Bandwidth_exp.pp fmt (Bandwidth_exp.run ~sample_size:200 ~seed:7 g)

let reproduce_gadgets () =
  section "§II — BGP gadgets vs. PAN forwarding (E7)";
  Gadget_exp.pp fmt (Gadget_exp.run ())

let reproduce_methods () =
  section "§IV-C — cash compensation vs. flow-volume targets (E8)";
  Methods_exp.pp fmt (Methods_exp.run ~scenarios:60 ~seed:3 ())

let reproduce_resilience () =
  section "Extension E9 — failover resilience with and without MAs";
  let _, r = Resilience.run_default () in
  Resilience.pp fmt r

let reproduce_chained () =
  section "Extension E10 — agreement-path extension (§III-B3)";
  let _, r = Chained_exp.run_default () in
  Chained_exp.pp fmt r

let reproduce_te () =
  section "Extension E12 — traffic engineering with MA multipath";
  let _, r = Te_exp.run_default () in
  Te_exp.pp fmt r

let reproduce_fragility () =
  section "Extension E13 — BGP fragility vs. violation density";
  Fragility_exp.pp fmt (Fragility_exp.run ~topologies:6 ())

let reproduce_adoption () =
  section "Extension E11 — economically concluded MAs";
  let params =
    { Gen.default_params with Gen.n_transit = 120; Gen.n_stub = 480 }
  in
  let g = Gen.graph (Gen.generate ~params ~seed:42 ()) in
  Adoption.pp fmt (Adoption.run ~sample_size:200 ~seed:17 g)

(* ------------------------------------------------------------------ *)
(* Part 2: Bechamel microbenchmarks, one per experiment                *)

let bench_tests () =
  let dist = Fig2_pod.u1 in
  (* E1 kernel: one full BOSCO negotiation (choice sets, equilibrium,
     PoD) at W = 20. *)
  let e1 =
    Test.make ~name:"E1 fig2: bosco negotiation (W=20)"
      (Staged.stage (fun () ->
           let rng = Rng.create 11 in
           ignore
             (Service.negotiate ~truthful:0.1 ~rng ~dist_x:dist ~dist_y:dist
                ~w:20 ())))
  in
  let g = Lazy.force shared_graph in
  let ases = Array.of_list (Graph.ases g) in
  let pick = ases.(Array.length ases / 2) in
  (* E2-E5 enumerate over the frozen core, as fig3/fig5/fig6 do. *)
  let c = Compact.freeze g in
  let pick_i = Compact.index_of_exn c pick in
  (* E2/E3 kernel: the per-AS scenario path enumeration. *)
  let e2 =
    Test.make ~name:"E2 fig3: scenario_paths MA (one AS)"
      (Staged.stage (fun () ->
           ignore (Path_enum_compact.scenario_paths c Path_enum.Ma_all pick_i)))
  in
  let geo = Geo.of_compact ~seed:11 c in
  let e4 =
    Test.make ~name:"E4 fig5: geodistance of one AS's GRC paths"
      (Staged.stage (fun () ->
           Path_enum_compact.iter_paths
             (fun ~mid ~dst ->
               ignore
                 (Geo.path3_geodistance geo pick (Compact.id c mid)
                    (Compact.id c dst)))
             (Path_enum_compact.grc c pick_i)))
  in
  let bw = Bandwidth.of_compact c in
  let e5 =
    Test.make ~name:"E5 fig6: bandwidth of one AS's GRC paths"
      (Staged.stage (fun () ->
           Path_enum_compact.iter_paths
             (fun ~mid ~dst ->
               ignore
                 (Bandwidth.path3_bandwidth bw pick (Compact.id c mid)
                    (Compact.id c dst)))
             (Path_enum_compact.grc c pick_i)))
  in
  let bad = Pan_routing.Gadgets.bad_gadget () in
  let e7 =
    Test.make ~name:"E7 gadgets: SPVP round-robin on BAD GADGET"
      (Staged.stage (fun () ->
           ignore
             (Pan_routing.Bgp.run ~schedule:Pan_routing.Bgp.Round_robin bad)))
  in
  let _, scenario = Pan_econ.Scenario_gen.fig1_scenario () in
  let e8_cash =
    Test.make ~name:"E8 methods: cash optimization (Eq. 11)"
      (Staged.stage (fun () -> ignore (Pan_econ.Cash_opt.optimize scenario)))
  in
  let e8_fv =
    Test.make ~name:"E8 methods: flow-volume optimization (Eq. 9)"
      (Staged.stage (fun () ->
           ignore
             (Pan_econ.Flow_volume_opt.optimize ~starts_per_dim:2 scenario)))
  in
  let e7b =
    Test.make ~name:"E7 gadgets: dispute-wheel search (SURPRISE)"
      (Staged.stage (fun () ->
           ignore (Pan_routing.Dispute.has_wheel (Pan_routing.Gadgets.surprise ()))))
  in
  (* E9 runs on its own small network: beaconing plus full path
     combination over the dense shared graph would time a different thing
     (control-plane construction) than the failover delivery itself. *)
  let small_net =
    lazy
      (let params =
         { Gen.default_params with Gen.n_transit = 50; Gen.n_stub = 200 }
       in
       let g = Gen.graph (Gen.generate ~params ~seed:42 ()) in
       let mas =
         Graph.fold_peering_links (fun x y acc -> (x, y) :: acc) g []
       in
       (g, Pan_scion.Failure.create (Pan_scion.Authz.create ~mas g)))
  in
  let e9 =
    Test.make ~name:"E9 resilience: one failover delivery"
      (Staged.stage (fun () ->
           let g, net = Lazy.force small_net in
           let ases = Array.of_list (Graph.ases g) in
           ignore
             (Pan_scion.Failure.send_with_failover ~max_paths:8 net
                ~src:ases.(10)
                ~dst:ases.(Array.length ases - 10)
                ~payload:"")))
  in
  let e10 =
    Test.make ~name:"E10 chained: Extension.chained_stats (one AS)"
      (Staged.stage (fun () ->
           ignore (Pan_econ.Extension.chained_stats g pick)))
  in
  let e7c =
    Test.make ~name:"E7 gadgets: async SPVP on GOOD GADGET"
      (Staged.stage (fun () ->
           ignore
             (Pan_routing.Bgp_async.run ~schedule:Pan_routing.Bgp_async.Fifo
                (Pan_routing.Gadgets.good_gadget ()))))
  in
  let e11 =
    Test.make ~name:"E11 adoption: negotiate one MA"
      (Staged.stage
         (let g11, _ = Lazy.force small_net in
          let pair =
            Graph.fold_peering_links
              (fun x y acc -> match acc with None -> Some (x, y) | s -> s)
              g11 None
          in
          fun () ->
            match pair with
            | Some (x, y) ->
                ignore (Adoption.negotiate_pair ~seed:3 g11 x y)
            | None -> ()))
  in
  let e12 =
    Test.make ~name:"E12 te: place one split demand"
      (Staged.stage
         (let g12, net12 = Lazy.force small_net in
          let bw12 = Bandwidth.degree_gravity g12 in
          let t12 = Pan_scion.Traffic.create g12 in
          let ases12 = Array.of_list (Graph.ases g12) in
          let paths =
            List.map Pan_scion.Segment.ases
              (Pan_scion.Combinator.end_to_end ~max_paths:3
                 (Pan_scion.Failure.path_server net12)
                 ~src:ases12.(10)
                 ~dst:ases12.(Array.length ases12 - 10))
          in
          fun () ->
            Pan_scion.Traffic.place t12 bw12 (Pan_scion.Traffic.Split 2)
              paths 1.0))
  in
  let e13 =
    Test.make ~name:"E13 fragility: one violating instance + dynamics"
      (Staged.stage (fun () ->
           ignore (Fragility_exp.run ~densities:[ 0.5 ] ~topologies:1
                     ~dests_per_topology:1 ())))
  in
  [ e1; e2; e4; e5; e7; e7b; e7c; e8_cash; e8_fv; e9; e10; e11; e12; e13 ]

let run_bechamel tests =
  let ols =
    Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:None () in
  List.iter
    (fun test ->
      let results = Benchmark.all cfg instances test in
      let analyses = Analyze.all ols Instance.monotonic_clock results in
      Hashtbl.iter
        (fun name ols_result ->
          let estimate =
            match Analyze.OLS.estimates ols_result with
            | Some (e :: _) -> e
            | _ -> Float.nan
          in
          let r2 =
            match Analyze.OLS.r_square ols_result with
            | Some r -> r
            | None -> Float.nan
          in
          Format.fprintf fmt "%-48s %14.1f ns/run  (r2=%.3f)@." name estimate
            r2)
        analyses)
    tests

let run_benchmarks () =
  section "Microbenchmarks (Bechamel, OLS ns/run)";
  run_bechamel (bench_tests ())

(* ------------------------------------------------------------------ *)
(* Part 3: ablations                                                   *)

let ablation_choice_sets () =
  section "Ablation: random vs. grid choice-set construction";
  let run construction label =
    let rng = Rng.create 5 in
    let reports =
      Service.trials ~construction ~rng ~dist_x:Fig2_pod.u1 ~dist_y:Fig2_pod.u1
        ~w:20 ~n:40 ()
    in
    Format.fprintf fmt "%-22s min PoD %.4f  mean PoD %.4f@." label
      (Service.min_pod reports) (Service.mean_pod reports)
  in
  run Service.Random_sampling "random sampling";
  run Service.Grid "grid"

let ablation_dynamics_start () =
  section "Ablation: best-response dynamics start point";
  let rng = Rng.create 5 in
  let claims_x = Claim.sample rng Fig2_pod.u1 20 in
  let claims_y = Claim.sample rng Fig2_pod.u1 20 in
  let game =
    Game.{ dist_x = Fig2_pod.u1; dist_y = Fig2_pod.u1; claims_x; claims_y }
  in
  List.iter
    (fun (start, label) ->
      let eq = Equilibrium.best_response_dynamics ~start game in
      let pod =
        Efficiency.price_of_dishonesty game eq.Equilibrium.strategy_x
          eq.Equilibrium.strategy_y
      in
      Format.fprintf fmt "%-22s rounds %3d  converged %b  PoD %.4f@." label
        eq.Equilibrium.rounds eq.Equilibrium.converged pod)
    [
      (Equilibrium.Truthful, "truthful start");
      (Equilibrium.All_cancel, "all-cancel start");
    ]

let ablation_asymmetric_distributions () =
  section "Ablation: PoD under asymmetric utility distributions";
  (* the paper evaluates two symmetric uniforms; check the mechanism
     copes when one party's stakes are much larger, or skewed *)
  let cases =
    [
      ("U[-1,1] vs U[-1,1]", Fig2_pod.u1, Fig2_pod.u1);
      ("U[-1,1] vs U[-3,3]", Fig2_pod.u1, Distribution.uniform (-3.0) 3.0);
      (* note: U[-0.2,1] vs U[-1,0.2] would be affinely equivalent to the
         symmetric case (opposite shifts cancel in the surplus), so use
         genuinely different widths instead *)
      ( "U[-0.2,1] vs U[-1,1]",
        Distribution.uniform (-0.2) 1.0,
        Fig2_pod.u1 );
      ( "triangular vs uniform",
        Distribution.triangular (-1.0) 0.5 1.0,
        Fig2_pod.u1 );
    ]
  in
  List.iter
    (fun (label, dist_x, dist_y) ->
      let rng = Rng.create 5 in
      let reports = Service.trials ~rng ~dist_x ~dist_y ~w:25 ~n:30 () in
      Format.fprintf fmt "%-26s min PoD %.4f  mean PoD %.4f@." label
        (Service.min_pod reports) (Service.mean_pod reports))
    cases

let ablation_topology_density () =
  section "Ablation: transit peering density vs. MA path gains";
  List.iter
    (fun degree ->
      let params =
        {
          Gen.default_params with
          Gen.n_transit = 200;
          Gen.n_stub = 800;
          Gen.transit_peering_degree = degree;
        }
      in
      let g = Gen.graph (Gen.generate ~params ~seed:42 ()) in
      let result = Diversity.analyze ~sample_size:200 ~seed:7 g in
      let agg = Diversity.aggregate_stats result in
      Format.fprintf fmt
        "peering degree %5.1f: additional paths avg %8.0f max %8d@." degree
        agg.Diversity.avg_additional_paths agg.Diversity.max_additional_paths)
    [ 5.0; 20.0; 40.0 ]

(* ------------------------------------------------------------------ *)
(* Part 4: runner scaling (sequential vs parallel)                     *)

let time f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

(* Prints the table; true iff every 2- and 4-domain result equals the
   sequential one. *)
let runner_scaling () =
  section "Runner scaling: wall-clock per worker-domain count";
  let g = Lazy.force shared_graph in
  (* Each kernel returns a plain fingerprint (floats only) so bit-for-bit
     parallel-equals-sequential can be checked with (=). *)
  let kernels =
    [
      ( "E1 fig2 (trials=60, W=20)",
        fun pool ->
          let rng = Rng.create 42 in
          let reports =
            Service.trials ?pool ~rng ~dist_x:Fig2_pod.u1 ~dist_y:Fig2_pod.u1
              ~w:20 ~n:60 ()
          in
          List.map (fun (r : Service.report) -> r.Service.pod) reports );
      ( "E2/E3 diversity (sample=300)",
        fun pool ->
          let r = Diversity.analyze ?pool ~sample_size:300 ~seed:7 g in
          List.concat_map
            (fun pa -> List.map (fun (_, n) -> float_of_int n) pa.Diversity.paths)
            r.Diversity.sampled );
      ( "E5 fig6 bandwidth (sample=200)",
        fun pool ->
          let r = Bandwidth_exp.run ?pool ~sample_size:200 ~seed:7 g in
          List.fold_left ( +. ) 0.0 r.Pair_analysis.improvements
          :: List.map
               (fun (pc : Pair_analysis.pair_counts) ->
                 float_of_int pc.Pair_analysis.below_min)
               r.Pair_analysis.pairs );
      ( "E8 methods (scenarios=60)",
        fun pool ->
          let r = Methods_exp.run ?pool ~scenarios:60 ~seed:3 () in
          [
            float_of_int r.Methods_exp.cash_concluded;
            float_of_int r.Methods_exp.flow_volume_concluded;
            float_of_int r.Methods_exp.cash_only;
            r.Methods_exp.mean_cash_joint;
            r.Methods_exp.mean_flow_volume_joint;
          ] );
      ( "Eq.19 MC nash (samples=2e6)",
        let game, sx, sy =
          let rng = Rng.create 11 in
          let r =
            Service.negotiate ~truthful:0.1 ~rng ~dist_x:Fig2_pod.u1
              ~dist_y:Fig2_pod.u1 ~w:20 ()
          in
          (r.Service.game, r.Service.strategy_x, r.Service.strategy_y)
        in
        fun pool ->
          [
            Efficiency.mc_expected_nash ?pool ~rng:(Rng.create 5)
              ~samples:2_000_000 game sx sy;
          ] );
    ]
  in
  Format.fprintf fmt "%-32s %10s %10s %10s %10s  %s@." "kernel" "seq (s)"
    "j=2 (s)" "j=4 (s)" "speedup@4" "par=seq";
  List.fold_left
    (fun ok (name, kernel) ->
      let seq, t_seq = time (fun () -> kernel None) in
      let run_jobs jobs =
        Pan_runner.Pool.with_pool ~domains:jobs (fun pool ->
            time (fun () -> kernel (Some pool)))
      in
      let r2, t2 = run_jobs 2 in
      let r4, t4 = run_jobs 4 in
      let equal = seq = r2 && seq = r4 in
      Format.fprintf fmt "%-32s %10.3f %10.3f %10.3f %9.2fx  %b@." name t_seq
        t2 t4 (t_seq /. t4) equal;
      ok && equal)
    true kernels

let run_runner_pair () =
  (* Bechamel pair: the same E1 kernel sequentially and on a reused
     4-domain pool. *)
  section "Runner microbenchmark (Bechamel): sequential vs 4-domain pool";
  let dist = Fig2_pod.u1 in
  let kernel pool () =
    let rng = Rng.create 42 in
    ignore (Service.trials ?pool ~rng ~dist_x:dist ~dist_y:dist ~w:20 ~n:20 ())
  in
  Pan_runner.Pool.with_pool ~domains:4 (fun pool ->
      run_bechamel
        [
          Test.make ~name:"runner E1 kernel: sequential"
            (Staged.stage (kernel None));
          Test.make ~name:"runner E1 kernel: 4-domain pool"
            (Staged.stage (kernel (Some pool)));
        ])

(* ------------------------------------------------------------------ *)
(* Part 5: observability (lib/obs)                                     *)

let obs_profile () =
  section "Observability: instrumented diversity run (lib/obs)";
  Pan_obs.Obs.configure ~clock:(Pan_obs.Clock.real ()) ();
  Fun.protect
    ~finally:(fun () ->
      let m = Pan_obs.Obs.metrics () in
      let spans = Pan_obs.Obs.spans () in
      Pan_obs.Obs.disable ();
      Pan_obs.Report.pp_metrics_table fmt m;
      Format.fprintf fmt "# span tree@.";
      Pan_obs.Report.pp_span_tree fmt spans)
    (fun () ->
      let g = Lazy.force shared_graph in
      Pan_runner.Pool.with_pool ~domains:2 (fun pool ->
          ignore (Diversity.analyze ~pool ~sample_size:150 ~seed:7 g)))

(* ------------------------------------------------------------------ *)
(* Part 6: compact frozen-topology core (lib/topology Compact/Bitset)  *)

(* (label, n_transit, n_stub, sampled sources); 12 tier-1 ASes are added
   by the generator, so n_transit + n_stub + 12 = the label. *)
let compact_sizes = function
  | `Smoke -> [ ("1k", 60, 928, 100) ]
  | `Full ->
      [ ("1k", 60, 928, 100); ("10k", 500, 9488, 60); ("50k", 1500, 48488, 20) ]

let compact_core_bench sizes =
  section "Compact core: legacy Path_enum vs Compact+Bitset (MA sweep)";
  let module Legacy = Pan_oracle.Path_enum_legacy in
  Format.fprintf fmt "%-6s %7s %11s %11s %12s %9s  %s@." "size" "srcs"
    "freeze (s)" "legacy (s)" "compact (s)" "speedup" "equal";
  List.for_all
    (fun (label, n_transit, n_stub, sample) ->
      let params = { Gen.default_params with Gen.n_transit; Gen.n_stub } in
      let g = Gen.graph (Gen.generate ~params ~seed:42 ()) in
      let c, t_freeze = time (fun () -> Compact.freeze g) in
      let ases = Compact.asns c in
      let n = Array.length ases in
      (* deterministic stride sample; index i interns ases.(i), so both
         sweeps enumerate exactly the same sources *)
      let stride = Stdlib.max 1 (n / sample) in
      let sources =
        List.filter (fun i -> i mod stride = 0) (List.init n Fun.id)
      in
      let legacy, t_legacy =
        time (fun () ->
            List.fold_left
              (fun (p, d) i ->
                let m = Legacy.scenario_paths g Legacy.Ma_all ases.(i) in
                ( p + Legacy.total_count m,
                  d + Asn.Set.cardinal (Legacy.dest_set m) ))
              (0, 0) sources)
      in
      let compact, t_compact =
        time (fun () ->
            List.fold_left
              (fun (p, d) i ->
                let m = Path_enum_compact.scenario_paths c Path_enum.Ma_all i in
                ( p + Path_enum_compact.total_count m,
                  d + Bitset.cardinal (Path_enum_compact.dest_set m) ))
              (0, 0) sources)
      in
      Format.fprintf fmt "%-6s %7d %11.3f %11.3f %12.3f %8.2fx  %b@." label
        (List.length sources) t_freeze t_legacy t_compact
        (t_legacy /. t_compact) (legacy = compact);
      legacy = compact)
    sizes

let compact_jobs_check ~n_transit ~n_stub () =
  section "Compact core: Diversity --jobs 1 vs --jobs 4 over one frozen view";
  let params = { Gen.default_params with Gen.n_transit; Gen.n_stub } in
  let g = Gen.graph (Gen.generate ~params ~seed:42 ()) in
  let fingerprint pool =
    let r = Diversity.analyze ?pool ~sample_size:200 ~seed:7 g in
    List.map
      (fun pa ->
        (pa.Diversity.asn, pa.Diversity.paths, pa.Diversity.destinations))
      r.Diversity.sampled
  in
  let seq, t_seq = time (fun () -> fingerprint None) in
  let par, t_par =
    Pan_runner.Pool.with_pool ~domains:4 (fun pool ->
        time (fun () -> fingerprint (Some pool)))
  in
  Format.fprintf fmt
    "sequential %.3f s, 4 domains %.3f s (%.2fx); identical: %b@." t_seq t_par
    (t_seq /. t_par) (seq = par);
  seq = par

(* Both sections always run; the part fails if either check does. *)
let run_compact_core scale =
  let equal = compact_core_bench (compact_sizes scale) in
  let identical =
    match scale with
    | `Smoke -> compact_jobs_check ~n_transit:60 ~n_stub:928 ()
    | `Full -> compact_jobs_check ~n_transit:500 ~n_stub:9488 ()
  in
  equal && identical

(* ------------------------------------------------------------------ *)
(* Part 7: BOSCO best-response kernel (lib/bosco Strategy/Workspace)   *)

let bosco_sizes = function
  | `Smoke -> [ 8; 32; 128 ]
  | `Full -> [ 8; 32; 128; 512; 2048 ]

(* Thresholds rounded to 9 significant digits: the fast kernel
   reassociates suffix sums, so its floats may differ from the reference
   in the last couple of ulps, but the two must agree at this
   resolution. *)
let thresholds_fingerprint s =
  Array.to_list (Array.map (Printf.sprintf "%.9g") (Strategy.thresholds s))

let bosco_kernel_bench sizes =
  section "BOSCO kernel: fast O(W) vs reference O(W^2) best response";
  Format.fprintf fmt "%-6s %6s %13s %13s %9s  %s@." "W" "reps" "ref (us)"
    "fast (us)" "speedup" "equal";
  let ok = ref true in
  List.iter
    (fun w ->
      (* Fresh claims per size, same seed.  Both kernels answer the
         opponent strategies the dynamics start from and end at; each
         fast response gets a fresh workspace, as the reference builds
         its own arrays.  Repetitions keep small-W timings above clock
         noise. *)
      let rng = Rng.create 42 in
      let dist = Fig2_pod.u1 in
      let claims_x = Claim.sample rng dist w in
      let claims_y = Claim.sample rng dist w in
      let game = Game.{ dist_x = dist; dist_y = dist; claims_x; claims_y } in
      let eq = Equilibrium.best_response_dynamics game in
      let opponents =
        [ Strategy.truthful_rounding claims_y; eq.Equilibrium.strategy_y ]
      in
      let reps =
        if w <= 32 then 2000 else if w <= 128 then 200 else if w <= 512 then 20
        else 2
      in
      let run best_response =
        let out = ref [] in
        let _, t =
          time (fun () ->
              for _ = 1 to reps do
                out :=
                  List.map
                    (fun opponent ->
                      best_response ~opponent_dist:dist ~opponent claims_x)
                    opponents
              done)
        in
        ( List.map thresholds_fingerprint !out,
          t /. float_of_int (reps * List.length opponents) )
      in
      let fp_ref, t_ref =
        run Pan_oracle.Strategy_reference.best_response_reference
      in
      let fp_fast, t_fast = run (Strategy.best_response ?workspace:None) in
      let equal = fp_ref = fp_fast in
      if not equal then ok := false;
      Format.fprintf fmt "%-6d %6d %13.2f %13.2f %8.2fx  %b@." w reps
        (t_ref *. 1e6) (t_fast *. 1e6) (t_ref /. t_fast) equal)
    sizes;
  !ok

(* Whole negotiations as the marketplace runs them: one long-lived
   workspace for every size, the truthful benchmark computed once, and a
   fresh game per negotiation from one generator.  Wall time, rounds and
   minor-heap words per negotiation, and words per best-response round
   (the dynamics plus the efficiency scoring, divided by the rounds). *)
let bosco_negotiation_bench n =
  section "BOSCO negotiation: Service.negotiate through one workspace";
  Format.fprintf fmt "%-4s %6s %16s %8s %18s %13s@." "W" "count"
    "us/negotiation" "rounds" "words/negotiation" "words/round";
  let dist = Fig2_pod.u1 in
  let truthful =
    Efficiency.expected_nash_truthful
      Game.
        {
          dist_x = dist;
          dist_y = dist;
          claims_x = Claim.of_list [];
          claims_y = Claim.of_list [];
        }
  in
  let workspace = Workspace.create () in
  List.iter
    (fun w ->
      let negotiate rng =
        Service.negotiate ~truthful ~workspace ~rng ~dist_x:dist ~dist_y:dist
          ~w ()
      in
      ignore (negotiate (Rng.create 1) : Service.report);
      let rng = Rng.create 42 and rounds = ref 0 in
      let words0 = Gc.minor_words () in
      let (), t =
        time (fun () ->
            for _ = 1 to n do
              rounds := !rounds + (negotiate rng).Service.rounds
            done)
      in
      let words = Gc.minor_words () -. words0 in
      let per x = x /. float_of_int n in
      Format.fprintf fmt "%-4d %6d %16.1f %8.1f %18.0f %13.0f@." w n
        (per t *. 1e6)
        (per (float_of_int !rounds))
        (per words)
        (words /. float_of_int !rounds))
    [ 8; 16; 24; 48 ]

(* ------------------------------------------------------------------ *)
(* BENCH_<part>.json emission (Pan_obs.Bench_snap)                     *)

let emit_snapshot snap =
  let path = Pan_obs.Bench_snap.write snap in
  Format.fprintf fmt "bench snapshot: %s@." path

(* The kernel table, then Service.trials at -j1 and -j4: the trial
   fingerprints must agree, and BENCH_bosco.json records them. *)
let run_bosco scale =
  let ok_kernel = bosco_kernel_bench (bosco_sizes scale) in
  bosco_negotiation_bench (match scale with `Smoke -> 200 | `Full -> 5000);
  section "BOSCO kernel: Service.trials --jobs 1 vs --jobs 4";
  let trials pool =
    let rng = Rng.create 42 in
    Service.trials ?pool ~rng ~dist_x:Fig2_pod.u1 ~dist_y:Fig2_pod.u1 ~w:32
      ~n:24 ()
  in
  let render reports =
    String.concat ";"
      (List.map
         (fun (r : Service.report) ->
           Printf.sprintf "%.17g,%d,%b" r.Service.pod r.Service.rounds
             r.Service.converged)
         reports)
  in
  let seq, t_seq = time (fun () -> render (trials None)) in
  let par, t_par =
    Pan_runner.Pool.with_pool ~domains:4 (fun pool ->
        time (fun () -> render (trials (Some pool))))
  in
  let fp_seq = Pan_obs.Bench_snap.fingerprint_of_string seq in
  let fp_par = Pan_obs.Bench_snap.fingerprint_of_string par in
  let ok = fp_seq = fp_par in
  Format.fprintf fmt
    "sequential %.3f s, 4 domains %.3f s (%.2fx); fingerprint -j1 %s  -j4 \
     %s  equal %b@."
    t_seq t_par (t_seq /. t_par) fp_seq fp_par ok;
  emit_snapshot
    (Pan_obs.Bench_snap.make ~part:"bosco" ~wall_s:t_par
       ~throughput:(24.0 /. t_par) ~speedup:(t_seq /. t_par)
       ~fingerprint:fp_seq ~jobs:4
       ~meta:[ ("fingerprint_j1", fp_seq); ("fingerprint_j4", fp_par) ]
       ());
  ok_kernel && ok

(* ------------------------------------------------------------------ *)
(* Part 9: econ fast kernel (lib/econ Model_fast)                      *)

let methods_fingerprint (r : Methods_exp.report) =
  Pan_obs.Bench_snap.fingerprint_of_string
    (Printf.sprintf "%d,%d,%d,%d,%.17g,%.17g" r.Methods_exp.scenarios
       r.Methods_exp.cash_concluded r.Methods_exp.flow_volume_concluded
       r.Methods_exp.cash_only r.Methods_exp.mean_cash_joint
       r.Methods_exp.mean_flow_volume_joint)

let run_econ ~scenarios () =
  let open Pan_econ in
  section "Econ kernel: flat Model_fast vs map-based Traffic_model (E8 sweep)";
  (* Evaluator microbench: the fig1 scenario's utilities at 64 decision
     vectors inside the forecast box, the flat evaluator (compiled once)
     vs the map-based one — the evaluation the Nelder-Mead loop of the
     flow-volume optimizer repeats. *)
  let _, scenario = Scenario_gen.fig1_scenario () in
  let model = Model_fast.compile scenario in
  let workspace = Econ_workspace.create () in
  let rng = Rng.create 5 in
  let choices =
    List.init 64 (fun _ ->
        List.map
          (fun (c : Traffic_model.choice) ->
            {
              Traffic_model.reroute = c.Traffic_model.reroute *. Rng.float rng;
              attracted = c.Traffic_model.attracted *. Rng.float rng;
            })
          (Traffic_model.full_choice scenario))
  in
  let reps = 200 in
  let evaluate utilities =
    let r = ref [] in
    let _, t =
      time (fun () ->
          for _ = 1 to reps do
            r := List.map utilities choices
          done)
    in
    (!r, t)
  in
  let u_map, t_map = evaluate (Traffic_model.utilities scenario) in
  let u_flat, t_flat = evaluate (Model_fast.utilities ~workspace model) in
  let evaluators_equal = u_map = u_flat in
  Format.fprintf fmt
    "fig1 utilities (%d evaluations): map %.3f s, flat %.3f s (%.2fx); \
     bit-identical: %b@."
    (reps * List.length choices)
    t_map t_flat (t_map /. t_flat) evaluators_equal;
  (* The full E8 sweep at -j1 and -j4. *)
  let run_methods ?pool () =
    time (fun () -> Methods_exp.run ?pool ~scenarios ~seed:3 ())
  in
  let rep_seq, t_seq = run_methods () in
  let rep_par, t_par =
    Pan_runner.Pool.with_pool ~domains:4 (fun pool -> run_methods ~pool ())
  in
  let fp_j1 = methods_fingerprint rep_seq in
  let fp_j4 = methods_fingerprint rep_par in
  let jobs_equal = fp_j1 = fp_j4 in
  Format.fprintf fmt
    "E8 sweep (%d scenarios): -j1 %.3f s, -j4 %.3f s (%.2fx); fingerprint \
     -j1 %s -j4 %s equal %b@."
    scenarios t_seq t_par (t_seq /. t_par) fp_j1 fp_j4 jobs_equal;
  emit_snapshot
    (Pan_obs.Bench_snap.make ~part:"econ" ~wall_s:t_seq
       ~throughput:(float_of_int scenarios /. t_seq)
       ~speedup:(t_map /. t_flat) ~fingerprint:fp_j1 ~jobs:4
       ~meta:
         [
           ("fingerprint_j1", fp_j1);
           ("fingerprint_j4", fp_j4);
           ("scenarios", string_of_int scenarios);
         ]
       ());
  evaluators_equal && jobs_equal

(* ------------------------------------------------------------------ *)
(* Part 10: versioned topology snapshots (Compact.Snapshot)            *)

let snapshot_sizes = function
  | `Smoke -> [ ("1k", 60, 928) ]
  | `Full -> [ ("1k", 60, 928); ("10k", 500, 9488); ("50k", 1500, 48488) ]

(* Generate-and-serialize in its own function so the legacy Graph (large
   Asn.Map adjacency) is dead before the timed phases; otherwise every
   load's allocations pay major-GC slices marking it. *)
let write_caida_file ~n_transit ~n_stub file =
  let params = { Gen.default_params with Gen.n_transit; Gen.n_stub } in
  Caida.save file (Gen.graph (Gen.generate ~params ~seed:42 ()))

let run_topo_snapshot scale =
  section "Topology snapshots: parse+freeze vs Snapshot.load";
  Format.fprintf fmt "%-6s %8s %15s %13s %9s  %s@." "size" "ases"
    "parse+freeze(s)" "snap load (s)" "speedup" "equal";
  let ok = ref true in
  let last_fp = ref "" and last_speedup = ref 0.0 and last_wall = ref 0.0 in
  let last_ases = ref 0 in
  List.iter
    (fun (label, n_transit, n_stub) ->
      let caida_file = Filename.temp_file "panagree_bench" ".caida" in
      let snap_file = Filename.temp_file "panagree_bench" ".snap" in
      Fun.protect
        ~finally:(fun () ->
          (try Sys.remove caida_file with Sys_error _ -> ());
          try Sys.remove snap_file with Sys_error _ -> ())
        (fun () ->
          write_caida_file ~n_transit ~n_stub caida_file;
          (* Steady-state cost for both paths: best of [reps], a
             [Gc.full_major] before each so one rep's garbage is not
             charged to the next rep's timed region. *)
          let best_of reps f =
            let result = ref None and best = ref infinity in
            for _ = 1 to reps do
              Gc.full_major ();
              let r, t = time f in
              result := Some r;
              if t < !best then best := t
            done;
            (Option.get !result, !best)
          in
          (* the cold-start path a snapshot replaces: parse the serialized
             topology and freeze it *)
          let frozen, t_parse =
            best_of 2 (fun () -> Compact.freeze (Caida.load caida_file))
          in
          Compact.Snapshot.save snap_file frozen;
          let loaded, t_load =
            best_of 5 (fun () -> Compact.Snapshot.load snap_file)
          in
          let loaded = ref loaded in
          let bytes_frozen = Compact.Snapshot.to_string frozen in
          let bytes_loaded = Compact.Snapshot.to_string !loaded in
          let equal = String.equal bytes_frozen bytes_loaded in
          if not equal then ok := false;
          let speedup = t_parse /. t_load in
          Format.fprintf fmt "%-6s %8d %15.4f %13.5f %8.1fx  %b@." label
            (Compact.num_ases frozen) t_parse t_load speedup equal;
          last_fp := Pan_obs.Bench_snap.fingerprint_of_string bytes_frozen;
          last_speedup := speedup;
          last_wall := t_load;
          last_ases := Compact.num_ases frozen))
    (snapshot_sizes scale);
  emit_snapshot
    (Pan_obs.Bench_snap.make ~part:"topo-snapshot" ~wall_s:!last_wall
       ~throughput:(float_of_int !last_ases /. !last_wall)
       ~speedup:!last_speedup ~fingerprint:!last_fp ~jobs:1
       ~meta:[ ("ases", string_of_int !last_ases) ]
       ());
  !ok

(* ------------------------------------------------------------------ *)
(* Part 8: supervised runner (lib/runner Supervise/Fault)              *)

(* Seed chosen so the 0.1 rate actually fires (twice) across the E1
   kernel's chunk grid — the trailing retries-exercised check guards the
   choice against drifting chunk counts. *)
let fault_spec =
  { Pan_runner.Fault.seed = 8; rate = 0.1; delay = 0.0; delay_rate = 0.0 }

let run_supervised () =
  section "Supervised runner: fault-injection recovery overhead (E1 kernel)";
  (* Same E1 fingerprint as Part 4.  A run that recovers from injected
     faults via retries replays each failed chunk's RNG split, so every
     row must reproduce the fault-free fingerprint bit-for-bit. *)
  let fingerprint ?pool ~retries () =
    let rng = Rng.create 42 in
    List.map
      (fun (r : Service.report) -> r.Service.pod)
      (Service.trials ?pool ~retries ~rng ~dist_x:Fig2_pod.u1
         ~dist_y:Fig2_pod.u1 ~w:20 ~n:60 ())
  in
  let saved = Pan_runner.Fault.get () in
  let run ~faults ~retries pool =
    Pan_runner.Fault.set (if faults then Some fault_spec else None);
    Fun.protect
      ~finally:(fun () -> Pan_runner.Fault.set saved)
      (fun () -> time (fun () -> fingerprint ?pool ~retries ()))
  in
  let baseline, t_base = run ~faults:false ~retries:0 None in
  let ok = ref true in
  Format.fprintf fmt "%-36s %10s %10s %10s  %s@." "configuration" "seq (s)"
    "j=4 (s)" "overhead" "par=seq=base";
  Format.fprintf fmt "%-36s %10.3f %10s %10s  %b@." "fault-free (retries=0)"
    t_base "-" "-" true;
  List.iter
    (fun (label, faults, retries) ->
      let seq, t_seq = run ~faults ~retries None in
      let par, t_par =
        Pan_runner.Pool.with_pool ~domains:4 (fun pool ->
            run ~faults ~retries (Some pool))
      in
      let equal = seq = baseline && par = baseline in
      if not equal then ok := false;
      Format.fprintf fmt "%-36s %10.3f %10.3f %9.1f%%  %b@." label t_seq t_par
        ((t_seq /. t_base -. 1.0) *. 100.0)
        equal)
    [
      ("supervised, no faults (retries=5)", false, 5);
      ("faults rate=0.1 + retries=5", true, 5);
    ];
  (* The faulty rows only prove recovery if faults actually fired: re-run
     the sequential faulty case instrumented and demand retries > 0. *)
  Pan_obs.Obs.configure ();
  let retried =
    Fun.protect
      ~finally:(fun () -> Pan_obs.Obs.disable ())
      (fun () ->
        ignore (run ~faults:true ~retries:5 None);
        Pan_obs.Metrics.counter (Pan_obs.Obs.metrics ()) "runner.retries")
  in
  Format.fprintf fmt "injected-fault retries exercised: %d@." retried;
  if retried <= 0 then ok := false;
  !ok

(* ------------------------------------------------------------------ *)
(* Part 11: resident path-query service (lib/service)                  *)

(* transit, stubs, requests, churn *)
let serve_params = function
  | `Smoke -> (60, 928, 3000, 0.02)
  | `Full -> (200, 3000, 20000, 0.02)

let run_serve scale =
  let module Sv = Pan_service in
  section "Resident service: sustained path queries under link churn";
  let n_transit, n_stub, requests, churn = serve_params scale in
  let params = { Gen.default_params with Gen.n_transit; Gen.n_stub } in
  let topo = Compact.freeze (Gen.graph (Gen.generate ~params ~seed:42 ())) in
  let stream =
    Sv.Stream.generate ~rng:(Rng.create 44) ~topo ~requests ~churn ()
  in
  let n_queries =
    List.length
      (List.filter
         (function Sv.Stream.Query _ -> true | _ -> false)
         stream)
  in
  let n_events = requests - n_queries in
  Format.fprintf fmt "topology: %a@.stream: %d queries, %d events (churn %g)@."
    Compact.pp_stats topo n_queries n_events churn;
  (* Latency pass: drive the engine directly, timing each memoized query
     individually (the sustained-service shape: store hits dominate once
     the memo warms between churn events). *)
  let engine = Sv.Engine.create topo in
  let latencies = Array.make (max 1 n_queries) 0.0 in
  let q = ref 0 in
  List.iter
    (fun item ->
      match item with
      | Sv.Stream.Query { src; dst; policy } ->
          let src = Option.get (Compact.index_of topo src) in
          let dst = Option.get (Compact.index_of topo dst) in
          let t0 = Unix.gettimeofday () in
          ignore (Sv.Engine.query engine ~src ~dst ~policy : int list);
          latencies.(!q) <- Unix.gettimeofday () -. t0;
          incr q
      | ev ->
          ignore (Sv.Engine.apply engine (Sv.Serve.event_of_item topo ev) : int))
    stream;
  let st = Sv.Engine.stats engine in
  let p50 = Pan_numerics.Stats.percentile latencies 50.0 *. 1e6 in
  let p99 = Pan_numerics.Stats.percentile latencies 99.0 *. 1e6 in
  Format.fprintf fmt
    "store: %d hits, %d misses, %d invalidations@.\
     query latency: p50 %.1f us, p99 %.1f us@."
    st.Sv.Engine.store_hits st.Sv.Engine.store_misses st.Sv.Engine.invalidated
    p50 p99;
  (* Incremental freeze vs full re-freeze, same stream end to end. *)
  let inc, t_inc =
    time (fun () -> Sv.Serve.run ~topo stream)
  in
  let refr, t_refr =
    time (fun () -> Sv.Serve.run ~mode:Sv.Engine.Refreeze ~topo stream)
  in
  let modes_equal =
    String.equal inc.Sv.Serve.fingerprint refr.Sv.Serve.fingerprint
  in
  let qps = float_of_int n_queries /. t_inc in
  Format.fprintf fmt
    "drain: incremental %.3f s (%.0f queries/s), refreeze %.3f s (%.1fx); \
     transcripts equal %b@."
    t_inc qps t_refr (t_refr /. t_inc) modes_equal;
  (* A pool must not change a byte of the transcript (the drain runs no
     pool work, so this holds by construction). *)
  let par, _t_par =
    Pan_runner.Pool.with_pool ~domains:4 (fun pool ->
        time (fun () ->
            Sv.Serve.run ~pool ~topo stream))
  in
  let jobs_equal =
    String.equal inc.Sv.Serve.fingerprint par.Sv.Serve.fingerprint
  in
  Format.fprintf fmt "fingerprint -j1 %s  -j4 %s  equal %b@."
    inc.Sv.Serve.fingerprint par.Sv.Serve.fingerprint jobs_equal;
  emit_snapshot
    (Pan_obs.Bench_snap.make ~part:"serve" ~wall_s:t_inc ~throughput:qps
       ~speedup:(t_refr /. t_inc) ~fingerprint:inc.Sv.Serve.fingerprint
       ~jobs:4
       ~meta:
         [
           ("queries", string_of_int n_queries);
           ("events", string_of_int n_events);
           ("churn", Printf.sprintf "%g" churn);
           ("p50_us", Printf.sprintf "%.1f" p50);
           ("p99_us", Printf.sprintf "%.1f" p99);
           ("fingerprint_j1", inc.Sv.Serve.fingerprint);
           ("fingerprint_j4", par.Sv.Serve.fingerprint);
         ]
       ());
  modes_equal && jobs_equal

(* ------------------------------------------------------------------ *)
(* Part 12: intent engine (lib/intent): K-shortest candidates          *)

(* transit, stubs, candidate pairs, serve-drain requests *)
let intent_params = function
  | `Smoke -> (60, 928, 200, 1500)
  | `Full -> (200, 3000, 600, 8000)

let run_intent scale =
  let module I = Pan_intent in
  let module Sv = Pan_service in
  section "Intent engine: K-shortest candidates over the compact core";
  let n_transit, n_stub, pairs, requests = intent_params scale in
  let params = { Gen.default_params with Gen.n_transit; Gen.n_stub } in
  let topo = Compact.freeze (Gen.graph (Gen.generate ~params ~seed:42 ())) in
  Format.fprintf fmt "topology: %a, %d endpoint pairs@." Compact.pp_stats topo
    pairs;
  let n = Compact.num_ases topo in
  let rng = Rng.create 45 in
  let endpoints =
    Array.init pairs (fun _ ->
        let src = Rng.int rng n in
        let dst = (src + 1 + Rng.int rng (n - 1)) mod n in
        (Compact.id topo src, Compact.id topo dst))
  in
  (* The same metric environment Engine pins at creation (geo seed 43). *)
  let metric =
    I.Metric.of_models
      ~geo:(Geo.of_compact ~seed:43 topo)
      ~bandwidth:(Bandwidth.of_compact topo)
  in
  let web =
    [
      { I.Intent.weight = 1.0; component = I.Intent.Nlatency };
      { I.Intent.weight = 1.0; component = I.Intent.Nbandwidth };
    ]
  in
  let ok = ref true in
  (* Candidate generation throughput across the K sweep; each K is run
     twice and must reproduce bit-for-bit (pure function of the frozen
     view). *)
  let rate_k8 = ref 0.0 and wall_k8 = ref 0.0 in
  Format.fprintf fmt "%4s %12s %10s %14s  %s@." "K" "candidates" "wall (s)"
    "candidates/s" "deterministic";
  List.iter
    (fun k ->
      let intent = I.Intent.make ~metric:web ~k () in
      let sweep () =
        Array.fold_left
          (fun acc (src, dst) ->
            I.Candidates.generate ~topo ~metric intent ~src ~dst :: acc)
          [] endpoints
      in
      let r1, t = time sweep in
      let r2, _ = time sweep in
      let count =
        List.fold_left (fun acc rs -> acc + List.length rs) 0 r1
      in
      let det = r1 = r2 in
      if not det then ok := false;
      let rate = float_of_int count /. t in
      if k = 8 then (rate_k8 := rate; wall_k8 := t);
      Format.fprintf fmt "%4d %12d %10.3f %14.0f  %b@." k count t rate det)
    [ 1; 2; 4; 8; 16; 32 ];
  (* Probe-with-failover under an active fault spec: outages are a pure
     function of (spec, link), so two probe passes must select the same
     paths. *)
  let k8 = I.Intent.make ~metric:web ~k:8 () in
  let candidate_paths =
    Array.map
      (fun (src, dst) ->
        List.map
          (fun r -> r.I.Candidates.path)
          (I.Candidates.generate ~topo ~metric k8 ~src ~dst))
      endpoints
  in
  let saved = Pan_runner.Fault.get () in
  let probe_pass () =
    Pan_runner.Fault.set
      (Some { Pan_runner.Fault.seed = 9; rate = 0.1; delay = 0.0;
              delay_rate = 0.0 });
    Fun.protect
      ~finally:(fun () -> Pan_runner.Fault.set saved)
      (fun () ->
        Array.fold_left
          (fun (sel, fail) paths ->
            let o = I.Probe.run ~topo paths in
            ( o.I.Probe.selected :: sel,
              fail + List.length (I.Probe.failed_links o) ))
          ([], 0) candidate_paths)
  in
  let (sel1, failovers), t_probe = time probe_pass in
  let (sel2, _), _ = time probe_pass in
  let probe_det = sel1 = sel2 in
  if not probe_det then ok := false;
  let survived =
    List.length (List.filter Option.is_some sel1)
  in
  Format.fprintf fmt
    "probe (fault rate 0.1): %d/%d pairs served, %d failed links, %.3f s; \
     deterministic %b@."
    survived pairs failovers t_probe probe_det;
  (* Serve drain over an all-intent stream under churn: byte-identical
     transcripts at -j1 and -j4 (intent answers never touch the pool). *)
  let stream =
    Sv.Stream.generate ~intent:k8 ~rng:(Rng.create 44) ~topo ~requests
      ~churn:0.02 ()
  in
  let j1, t_j1 =
    time (fun () -> Sv.Serve.run ~topo stream)
  in
  let j4, _ =
    Pan_runner.Pool.with_pool ~domains:4 (fun pool ->
        time (fun () ->
            Sv.Serve.run ~pool ~topo stream))
  in
  let jobs_equal = String.equal j1.Sv.Serve.fingerprint j4.Sv.Serve.fingerprint in
  if not jobs_equal then ok := false;
  Format.fprintf fmt
    "serve drain (%d intent items, churn 0.02): %.3f s; fingerprint -j1 %s  \
     -j4 %s  equal %b@."
    requests t_j1 j1.Sv.Serve.fingerprint j4.Sv.Serve.fingerprint jobs_equal;
  emit_snapshot
    (Pan_obs.Bench_snap.make ~part:"intent" ~wall_s:!wall_k8
       ~throughput:!rate_k8
       ~speedup:1.0 ~fingerprint:j1.Sv.Serve.fingerprint ~jobs:4
       ~meta:
         [
           ("pairs", string_of_int pairs);
           ("requests", string_of_int requests);
           ("candidates_per_s_k8", Printf.sprintf "%.0f" !rate_k8);
           ("probe_failed_links", string_of_int failovers);
           ("fingerprint_j1", j1.Sv.Serve.fingerprint);
           ("fingerprint_j4", j4.Sv.Serve.fingerprint);
         ]
       ());
  !ok

(* ------------------------------------------------------------------ *)
(* Part 13: MA negotiation marketplace (lib/market)                    *)

(* transit, stubs, epochs, max candidates per epoch, W *)
let market_params = function
  | `Smoke -> (24, 170, 2, 384, 24)
  | `Full -> (48, 440, 3, 768, 32)

(* Parts 13 and 14: the epoch loop at -j1/-j2/-j4 (every fingerprint
   must match -j1), a -j1 rerun and the re-freeze oracle.  Part 14 runs
   the [Both] mechanism, which negotiates the full candidate stream and
   scores the Nash-Peering arm counterfactually on the same outcomes, so
   the comparison rides the epoch loop at the Bosco arm's cost; its
   fingerprint covers the per-epoch comparison records, which must all
   be present. *)
let run_market ~mechanism scale =
  let module M = Pan_market.Market in
  let both = mechanism = M.Both in
  section
    (if both then
       "Mechanism comparison: Bosco vs Nash-Peering on shared candidate \
        streams"
     else "MA marketplace: concurrent negotiations over the frozen core");
  let n_transit, n_stub, epochs, max_candidates, w = market_params scale in
  let params = { Gen.default_params with Gen.n_transit; Gen.n_stub } in
  let g = Gen.graph (Gen.generate ~params ~seed:42 ()) in
  Format.fprintf fmt "topology: %a@." Graph.pp_stats g;
  let config = { M.default with M.epochs; w; max_candidates; chunk = 8 } in
  let ok = ref true in
  let results = ref [] in
  Format.fprintf fmt "%4s %10s %15s  %s@." "j" "wall (s)" "negotiations/s"
    "fingerprint";
  List.iter
    (fun j ->
      let r, t =
        if j = 1 then time (fun () -> M.run ~mechanism config g)
        else
          Pan_runner.Pool.with_pool ~domains:j (fun pool ->
              time (fun () -> M.run ~pool ~mechanism config g))
      in
      let rate = float_of_int r.M.negotiations /. t in
      results := (j, r, t, rate) :: !results;
      Format.fprintf fmt "%4d %10.3f %15.0f  %s@." j t rate r.M.fingerprint)
    [ 1; 2; 4 ];
  let results = List.rev !results in
  let _, r1, t1, rate1 = List.hd results in
  let jobs_equal =
    List.for_all
      (fun (_, r, _, _) -> String.equal r.M.fingerprint r1.M.fingerprint)
      results
  in
  if not jobs_equal then ok := false;
  (* Double run at -j1: the transcript is a pure function of the seed. *)
  let r1', _ = time (fun () -> M.run ~mechanism config g) in
  let rerun_equal = String.equal r1.M.fingerprint r1'.M.fingerprint in
  if not rerun_equal then ok := false;
  (* Delta oracle: each epoch's incrementally-spliced core must equal a
     from-scratch freeze of the equivalently-mutated graph. *)
  let oracle = M.run ~oracle:true ~mechanism config g in
  let oracle_ok = oracle.M.oracle_ok = Some true in
  if not oracle_ok then ok := false;
  let epoch_meta =
    List.concat_map
      (fun (e : M.epoch_report) ->
        let p = Printf.sprintf "epoch%d_" e.M.epoch in
        match e.M.mech with
        | Some c when both ->
            Format.fprintf fmt
              "epoch %d: bosco %d signed welfare %.3f pod %.3f | \
               nash-peering %d/%d qualified %d signed welfare %.3f pod \
               %.3f@."
              e.M.epoch c.M.bosco_signed c.M.bosco_welfare c.M.bosco_pod
              c.M.cmp_qualified e.M.candidates c.M.nash_signed
              c.M.nash_welfare c.M.nash_pod;
            [
              (p ^ "qualified", string_of_int c.M.cmp_qualified);
              (p ^ "bosco_signed", string_of_int c.M.bosco_signed);
              (p ^ "bosco_welfare", Printf.sprintf "%.3f" c.M.bosco_welfare);
              (p ^ "bosco_pod", Printf.sprintf "%.3f" c.M.bosco_pod);
              (p ^ "nash_signed", string_of_int c.M.nash_signed);
              (p ^ "nash_welfare", Printf.sprintf "%.3f" c.M.nash_welfare);
              (p ^ "nash_pod", Printf.sprintf "%.3f" c.M.nash_pod);
            ]
        | None when both ->
            ok := false;
            []
        | _ ->
            Format.fprintf fmt
              "epoch %d: %d candidates, %d viable, %d signed, %d \
               invalidated@."
              e.M.epoch e.M.candidates e.M.viable e.M.signed e.M.invalidated;
            [ (p ^ "candidates", string_of_int e.M.candidates) ])
      r1.M.reports
  in
  Format.fprintf fmt
    "agreements: %d, welfare %.3f; -j equal %b, rerun equal %b, oracle %b@."
    (List.length r1.M.agreements)
    r1.M.welfare jobs_equal rerun_equal oracle_ok;
  let _, r4, _, rate4 = List.find (fun (j, _, _, _) -> j = 4) results in
  emit_snapshot
    (Pan_obs.Bench_snap.make
       ~part:(if both then "market_mech" else "market")
       ~wall_s:t1 ~throughput:rate1 ~speedup:(rate4 /. rate1)
       ~fingerprint:r1.M.fingerprint ~jobs:4
       ~meta:
         ((if both then [ ("mechanism", "both") ] else [])
         @ [
             ("epochs", string_of_int epochs);
             ("pairs", string_of_int r1.M.pairs);
             ("negotiations", string_of_int r1.M.negotiations);
             ("agreements", string_of_int (List.length r1.M.agreements));
             ("welfare", Printf.sprintf "%.3f" r1.M.welfare);
             ("fingerprint_j1", r1.M.fingerprint);
             ("fingerprint_j4", r4.M.fingerprint);
             ("oracle", string_of_bool oracle_ok);
           ]
         @ epoch_meta)
       ());
  !ok

let full_run () =
  reproduce_gadgets ();
  reproduce_methods ();
  reproduce_fig2 ();
  reproduce_fig34 ();
  reproduce_fig5 ();
  reproduce_fig6 ();
  reproduce_resilience ();
  reproduce_chained ();
  reproduce_adoption ();
  reproduce_te ();
  reproduce_fragility ();
  ablation_choice_sets ();
  ablation_dynamics_start ();
  ablation_asymmetric_distributions ();
  ablation_topology_density ();
  ignore (runner_scaling () : bool);
  ignore (run_compact_core `Smoke : bool);
  ignore (run_bosco `Smoke : bool);
  ignore (run_econ ~scenarios:24 () : bool);
  ignore (run_topo_snapshot `Smoke : bool);
  ignore (run_supervised () : bool);
  ignore (run_serve `Smoke : bool);
  ignore (run_intent `Smoke : bool);
  ignore (run_market ~mechanism:Pan_market.Market.Bosco `Smoke : bool);
  ignore (run_market ~mechanism:Pan_market.Market.Both `Smoke : bool);
  run_benchmarks ();
  run_runner_pair ();
  obs_profile ()

let () =
  (match if Array.length Sys.argv > 1 then Sys.argv.(1) else "all" with
  | "all" -> full_run ()
  | "topo" -> if not (run_compact_core `Smoke) then exit 1
  | "topo-full" -> if not (run_compact_core `Full) then exit 1
  | "topo-snapshot" -> if not (run_topo_snapshot `Full) then exit 1
  | "topo-snapshot-smoke" -> if not (run_topo_snapshot `Smoke) then exit 1
  | "bosco" -> if not (run_bosco `Full) then exit 1
  | "bosco-smoke" -> if not (run_bosco `Smoke) then exit 1
  | "econ" -> if not (run_econ ~scenarios:60 ()) then exit 1
  | "econ-smoke" -> if not (run_econ ~scenarios:24 ()) then exit 1
  | "faults" -> if not (run_supervised ()) then exit 1
  | "runner" -> if not (runner_scaling ()) then exit 1
  | "serve" -> if not (run_serve `Full) then exit 1
  | "serve-smoke" -> if not (run_serve `Smoke) then exit 1
  | "intent" -> if not (run_intent `Full) then exit 1
  | "intent-smoke" -> if not (run_intent `Smoke) then exit 1
  | "market" -> if not (run_market ~mechanism:Bosco `Full) then exit 1
  | "market-smoke" -> if not (run_market ~mechanism:Bosco `Smoke) then exit 1
  | "market-mech" -> if not (run_market ~mechanism:Both `Full) then exit 1
  | "market-mech-smoke" ->
      if not (run_market ~mechanism:Both `Smoke) then exit 1
  | other ->
      Format.eprintf
        "usage: %s \
         [topo|topo-full|topo-snapshot|topo-snapshot-smoke|bosco|bosco-smoke|\
         econ|econ-smoke|faults|runner|serve|serve-smoke|intent|\
         intent-smoke|market|market-smoke|market-mech|market-mech-smoke]  \
         (unknown part %S)@."
        Sys.argv.(0) other;
      exit 2);
  Format.fprintf fmt "@.bench: done@."
