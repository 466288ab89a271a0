(* Command-line driver: one subcommand per experiment of the paper
   (see DESIGN.md for the experiment index). *)

open Cmdliner
open Pan_topology
open Pan_experiments

let fmt = Format.std_formatter

(* ------------------------------------------------------------------ *)
(* Shared options                                                      *)

let seed_arg =
  let doc = "Random seed (all experiments are deterministic given it)." in
  Arg.(value & opt int 42 & info [ "seed" ] ~doc)

(* Bounded numeric parsers, shared by every subcommand so out-of-range
   values are rejected at parse time with one uniform wording (the
   messages are cram-pinned).  Rejecting 0 here matters: several knobs
   (--epochs, --max-candidates) would otherwise be accepted and silently
   produce an empty run, others (--sample-size, --trials) crash it. *)
let bounded conv ~ok ~expected =
  let parse s =
    match Arg.conv_parser conv s with
    | Ok v when ok v -> Ok v
    | Ok _ ->
        Error
          (`Msg (Printf.sprintf "invalid value '%s' (expected %s)" s expected))
    | Error _ as e -> e
  in
  Arg.conv (parse, Arg.conv_printer conv)

let int_at_least lo =
  bounded Arg.int ~ok:(fun n -> n >= lo)
    ~expected:(Printf.sprintf "an integer >= %d" lo)

let positive_int = int_at_least 1
let nonneg_int = int_at_least 0
let pos_float =
  bounded Arg.float ~ok:(fun d -> d > 0.0) ~expected:"a number > 0"

let probability =
  bounded Arg.float
    ~ok:(fun p -> p >= 0.0 && p <= 1.0)
    ~expected:"a number in [0,1]"

let jobs_arg =
  let doc =
    "Worker domains for the parallel experiment engine.  Seeding is \
     chunk-deterministic, so the output is identical for any value \
     (including 1, the sequential path)."
  in
  Arg.(value & opt positive_int 1 & info [ "j"; "jobs" ] ~doc)

let retries_arg =
  let doc =
    "Retry each failed chunk up to $(docv) extra times.  Retried chunks \
     replay their deterministic RNG split, so a run that recovers from \
     (injected) faults is byte-identical to a fault-free run."
  in
  Arg.(value & opt nonneg_int 0 & info [ "retries" ] ~doc ~docv:"N")

let deadline_arg =
  let doc =
    "Abort the run once $(docv) seconds of wall clock have elapsed \
     (checked cooperatively at chunk boundaries; honors \
     PANAGREE_VCLOCK)."
  in
  Arg.(value & opt (some pos_float) None
       & info [ "deadline" ] ~doc ~docv:"SECONDS")

let faults_arg =
  let doc =
    "Inject deterministic faults at chunk boundaries.  $(docv) is \
     comma-separated key=value pairs: seed= (draw seed), rate= (failure \
     probability per chunk attempt), delay= (seconds), delay-rate=.  \
     Equivalent to setting the PANAGREE_FAULTS environment variable; \
     combine with --retries to exercise recovery."
  in
  let fault_conv =
    Arg.conv
      ( Pan_runner.Fault.parse,
        fun ppf s -> Format.pp_print_string ppf (Pan_runner.Fault.to_string s)
      )
  in
  Arg.(value & opt (some fault_conv) None & info [ "faults" ] ~doc ~docv:"SPEC")

let metrics_arg =
  let doc =
    "After the run, write a metrics snapshot (stable sorted JSON: \
     counters, high-water gauges, log-bucketed duration histograms) to \
     $(docv); '-' writes to standard output.  Set the \
     PANAGREE_VCLOCK environment variable to replace the wall clock \
     with a deterministic virtual clock, making the snapshot \
     byte-identical across runs."
  in
  Arg.(value & opt (some string) None & info [ "metrics" ] ~doc ~docv:"FILE")

let trace_arg =
  let doc =
    "After the run, write the recorded trace spans as JSONL (one \
     span per line, in start order) to $(docv); '-' writes to \
     standard output."
  in
  Arg.(value & opt (some string) None & info [ "trace" ] ~doc ~docv:"FILE")

let emit_to path pp =
  match path with
  | "-" ->
      pp fmt;
      Format.pp_print_flush fmt ()
  | p ->
      Out_channel.with_open_text p (fun oc ->
          let f = Format.formatter_of_out_channel oc in
          pp f;
          Format.pp_print_flush f ())

(* Observability is off (every probe a no-op) unless --metrics or --trace
   was given; then the ambient context is configured for the duration of
   the run and the requested snapshots are emitted afterwards — also when
   the run raises, so a crashed experiment still leaves its partial
   metrics behind. *)
let with_obs ~metrics ~trace f =
  match (metrics, trace) with
  | None, None -> f ()
  | _ ->
      Pan_obs.Obs.configure ();
      Fun.protect
        ~finally:(fun () ->
          let m = Pan_obs.Obs.metrics () in
          let spans = Pan_obs.Obs.spans () in
          Pan_obs.Obs.disable ();
          Option.iter
            (fun p -> emit_to p (fun f -> Pan_obs.Report.pp_metrics_json f m))
            metrics;
          Option.iter
            (fun p ->
              emit_to p (fun f -> Pan_obs.Report.pp_spans_jsonl f spans))
            trace)
        f

(* The run context shared by every --jobs subcommand: pool size,
   supervision and observability.  --faults is applied as a side effect
   of term evaluation (equivalent to setting PANAGREE_FAULTS), so the
   experiment code only sees retries/deadline. *)
type run = {
  jobs : int;
  retries : int;
  deadline : float option;
  metrics : string option;
  trace : string option;
}

let set_faults = Option.iter (fun spec -> Pan_runner.Fault.set (Some spec))

let run_term =
  let make jobs retries deadline faults metrics trace =
    set_faults faults;
    { jobs; retries; deadline; metrics; trace }
  in
  Term.(
    const make $ jobs_arg $ retries_arg $ deadline_arg $ faults_arg
    $ metrics_arg $ trace_arg)

(* [f] runs under the requested observability, on a pool of [jobs]
   domains, with the supervision labels every experiment takes. *)
let with_run r f =
  with_obs ~metrics:r.metrics ~trace:r.trace @@ fun () ->
  Pan_runner.Pool.with_pool ~domains:r.jobs (fun pool ->
      f ~pool ~retries:r.retries ~deadline:r.deadline)

(* Library validation errors (a corrupt snapshot, an unknown AS, a bad
   stream line) and oracle divergences end the run with a one-line
   diagnostic and exit 1. *)
let or_exit f =
  try f ()
  with Invalid_argument msg | Failure msg ->
    Format.eprintf "panagree: %s@." msg;
    exit 1

let sample_arg =
  let doc = "Number of sampled source ASes (the paper uses 500)." in
  Arg.(value & opt positive_int 500 & info [ "sample-size" ] ~doc)

let caida_arg =
  let doc =
    "Load a real CAIDA as-rel2 file instead of generating a synthetic \
     topology."
  in
  Arg.(value & opt (some file) None & info [ "caida" ] ~doc)

let transit_arg =
  let doc = "Number of transit ASes in the synthetic topology." in
  Arg.(value & opt nonneg_int Gen.default_params.Gen.n_transit
       & info [ "transit" ] ~doc)

let stub_arg =
  let doc = "Number of stub ASes in the synthetic topology." in
  Arg.(value & opt nonneg_int Gen.default_params.Gen.n_stub
       & info [ "stubs" ] ~doc)

let topology ~caida ~transit ~stubs ~seed =
  match caida with
  | Some path ->
      let g =
        try Caida.load path
        with Caida.Parse_error { line; reason; _ } ->
          Format.eprintf "panagree: %s:%d: %s@." path line reason;
          exit 1
      in
      Format.fprintf fmt "# loaded %s: %a@." path Graph.pp_stats g;
      g
  | None ->
      let params =
        { Gen.default_params with Gen.n_transit = transit; n_stub = stubs }
      in
      let g = Gen.graph (Gen.generate ~params ~seed ()) in
      Format.fprintf fmt "# synthetic topology (seed %d): %a@." seed
        Graph.pp_stats g;
      g

let snapshot_arg =
  let doc =
    "Load the frozen topology from a versioned binary snapshot written by \
     $(b,topology snapshot), instead of generating or parsing one.  Stale \
     or corrupt snapshots are rejected with a diagnostic."
  in
  Arg.(value & opt (some file) None & info [ "snapshot" ] ~doc ~docv:"FILE")

let load_snapshot path =
  let topo = Compact.Snapshot.load path in
  Format.fprintf fmt "# loaded snapshot %s: %a@." path Compact.pp_stats topo;
  topo

(* The frozen core of --snapshot when given, else of {!topology}. *)
let frozen_topology ~snapshot ~caida ~transit ~stubs ~seed =
  match snapshot with
  | Some path -> load_snapshot path
  | None -> Compact.freeze (topology ~caida ~transit ~stubs ~seed)

(* ------------------------------------------------------------------ *)
(* fig2                                                                *)

let fig2_cmd =
  let trials =
    Arg.(value & opt positive_int 200
         & info [ "trials" ] ~doc:"Choice-set combinations per cardinality.")
  in
  let ws =
    Arg.(value & opt (list positive_int) [ 2; 5; 10; 20; 35; 50; 75; 100 ]
         & info [ "ws" ] ~doc:"Choice-set cardinalities to sweep.")
  in
  let run seed ctx trials ws =
    with_run ctx @@ fun ~pool ~retries ~deadline ->
    List.iter
      (fun s -> Fig2_pod.pp_series fmt s)
      (Fig2_pod.run_both ~pool ~retries ?deadline ~ws ~trials ~seed ())
  in
  Cmd.v
    (Cmd.info "fig2" ~doc:"Fig. 2: Price of Dishonesty vs. choice-set size.")
    Term.(const run $ seed_arg $ run_term $ trials $ ws)

(* ------------------------------------------------------------------ *)
(* fig3 / fig4 / summary (one diversity run feeds all three)           *)

let diversity_run ~pool ~retries ~deadline caida transit stubs seed sample =
  let g = topology ~caida ~transit ~stubs ~seed in
  Diversity.analyze ~pool ~retries ?deadline ~sample_size:sample
    ~seed:(seed + 1) g

let fig34_cmd =
  let run caida transit stubs seed ctx sample =
    with_run ctx @@ fun ~pool ~retries ~deadline ->
    Diversity.pp_result fmt
      (diversity_run ~pool ~retries ~deadline caida transit stubs seed sample)
  in
  Cmd.v
    (Cmd.info "fig3"
       ~doc:
         "Figs. 3 & 4 and the §VI-A aggregates: length-3 paths and nearby \
          destinations per MA-conclusion scenario.")
    Term.(
      const run $ caida_arg $ transit_arg $ stub_arg $ seed_arg $ run_term
      $ sample_arg)

let summary_cmd =
  let run caida transit stubs seed ctx sample =
    with_run ctx @@ fun ~pool ~retries ~deadline ->
    let agg =
      Diversity.aggregate_stats
        (diversity_run ~pool ~retries ~deadline caida transit stubs seed
           sample)
    in
    Format.fprintf fmt
      "additional length-3 paths per AS:      avg %.0f  max %d@.\
       additional nearby destinations per AS: avg %.0f  max %d@."
      agg.Diversity.avg_additional_paths agg.Diversity.max_additional_paths
      agg.Diversity.avg_additional_destinations
      agg.Diversity.max_additional_destinations
  in
  Cmd.v
    (Cmd.info "summary" ~doc:"§VI-A aggregate path-diversity statistics.")
    Term.(
      const run $ caida_arg $ transit_arg $ stub_arg $ seed_arg $ run_term
      $ sample_arg)

(* ------------------------------------------------------------------ *)
(* fig5 / fig6                                                         *)

let fig5_cmd =
  let run caida transit stubs seed ctx sample =
    with_run ctx @@ fun ~pool ~retries ~deadline ->
    let g = topology ~caida ~transit ~stubs ~seed in
    Geodistance.pp fmt
      (Geodistance.run ~pool ~retries ?deadline ~sample_size:sample
         ~seed:(seed + 1) g)
  in
  Cmd.v
    (Cmd.info "fig5" ~doc:"Fig. 5: geodistance of MA-added paths.")
    Term.(
      const run $ caida_arg $ transit_arg $ stub_arg $ seed_arg $ run_term
      $ sample_arg)

let fig6_cmd =
  let run caida transit stubs seed ctx sample =
    with_run ctx @@ fun ~pool ~retries ~deadline ->
    let g = topology ~caida ~transit ~stubs ~seed in
    Bandwidth_exp.pp fmt
      (Bandwidth_exp.run ~pool ~retries ?deadline ~sample_size:sample
         ~seed:(seed + 1) g)
  in
  Cmd.v
    (Cmd.info "fig6"
       ~doc:"Fig. 6: bandwidth of MA-added paths (degree-gravity model).")
    Term.(
      const run $ caida_arg $ transit_arg $ stub_arg $ seed_arg $ run_term
      $ sample_arg)

(* ------------------------------------------------------------------ *)
(* gadgets / methods                                                   *)

let gadgets_cmd =
  let run seed = Gadget_exp.pp fmt (Gadget_exp.run ~seed ()) in
  Cmd.v
    (Cmd.info "gadgets"
       ~doc:"§II: BGP gadget dynamics vs. PAN forwarding stability.")
    Term.(const run $ seed_arg)

let methods_cmd =
  let n =
    Arg.(value & opt int 100
         & info [ "scenarios" ] ~doc:"Number of random scenarios.")
  in
  let run seed ctx n =
    with_run ctx @@ fun ~pool ~retries ~deadline ->
    Methods_exp.pp fmt
      (Methods_exp.run ~pool ~retries ?deadline ~scenarios:n ~seed ())
  in
  Cmd.v
    (Cmd.info "methods"
       ~doc:"§IV-C: cash compensation vs. flow-volume targets.")
    Term.(const run $ seed_arg $ run_term $ n)

(* ------------------------------------------------------------------ *)
(* extensions: resilience / chained / export                           *)

let resilience_cmd =
  let pairs =
    Arg.(value & opt int 100
         & info [ "pairs" ] ~doc:"Random source-destination pairs to probe.")
  in
  let run caida transit stubs seed pairs =
    let g = topology ~caida ~transit ~stubs ~seed in
    Resilience.pp fmt (Resilience.run ~pairs ~seed:(seed + 1) g)
  in
  Cmd.v
    (Cmd.info "resilience"
       ~doc:
         "Extension E9: failover connectivity under link failures, with \
          and without MAs.")
    Term.(const run $ caida_arg $ transit_arg $ stub_arg $ seed_arg $ pairs)

let chained_cmd =
  let run caida transit stubs seed sample =
    let g = topology ~caida ~transit ~stubs ~seed in
    Chained_exp.pp fmt (Chained_exp.run ~sample_size:sample ~seed:(seed + 1) g)
  in
  Cmd.v
    (Cmd.info "chained"
       ~doc:
         "Extension E10: diversity gains from agreement-path extension \
          (§III-B3).")
    Term.(
      const run $ caida_arg $ transit_arg $ stub_arg $ seed_arg $ sample_arg)

let adoption_cmd =
  let run caida transit stubs seed sample =
    let g = topology ~caida ~transit ~stubs ~seed in
    Adoption.pp fmt (Adoption.run ~sample_size:sample ~seed:(seed + 1) g)
  in
  Cmd.v
    (Cmd.info "adoption"
       ~doc:
         "Extension E11: negotiate every MA economically (Eq. 10/11) and \
          measure diversity from the concluded agreements only.")
    Term.(
      const run $ caida_arg $ transit_arg $ stub_arg $ seed_arg $ sample_arg)

let fragility_cmd =
  let topologies =
    Arg.(value & opt int 8
         & info [ "topologies" ] ~doc:"Random topologies per density.")
  in
  let run seed topologies =
    Fragility_exp.pp fmt (Fragility_exp.run ~topologies ~seed ())
  in
  Cmd.v
    (Cmd.info "fragility"
       ~doc:
         "Extension E13: BGP convergence trouble vs. density of \
          GRC-violating agreements.")
    Term.(const run $ seed_arg $ topologies)

let intent_conv =
  Arg.conv ~docv:"SPEC" (Pan_intent.Intent.parse, Pan_intent.Intent.pp)

let topology_cmd =
  let show_run caida transit stubs seed metrics trace snapshot =
    with_obs ~metrics ~trace @@ fun () ->
    match snapshot with
    | Some path -> ignore (or_exit (fun () -> load_snapshot path))
    | None ->
        let g = topology ~caida ~transit ~stubs ~seed in
        Format.fprintf fmt "%a@." Metrics.pp_summary (Metrics.summary g);
        Format.fprintf fmt "compact core: %a@." Compact.pp_stats
          (Compact.freeze g);
        let sizes = Metrics.cone_sizes g in
        let top =
          Asn.Map.bindings sizes
          |> List.sort (fun (_, s1) (_, s2) -> compare s2 s1)
          |> List.filteri (fun i _ -> i < 10)
        in
        Format.fprintf fmt "largest customer cones:@.";
        List.iter
          (fun (x, size) -> Format.fprintf fmt "  %a: %d ASes@." Asn.pp x size)
          top
  in
  let snapshot_cmd =
    let out =
      let doc = "Output snapshot file." in
      Arg.(value & opt string "topology.snap" & info [ "out" ] ~doc ~docv:"FILE")
    in
    let run caida transit stubs seed metrics trace out =
      with_obs ~metrics ~trace @@ fun () ->
      let frozen = Compact.freeze (topology ~caida ~transit ~stubs ~seed) in
      Compact.Snapshot.save out frozen;
      let bytes =
        In_channel.with_open_bin out (fun ic ->
            Int64.to_int (In_channel.length ic))
      in
      Format.fprintf fmt "wrote %s (%d bytes): %a@." out bytes
        Compact.pp_stats frozen
    in
    Cmd.v
      (Cmd.info "snapshot"
         ~doc:
           "Freeze the topology and save its frozen core as a versioned, \
            checksummed binary snapshot for instant reload via \
            $(b,--snapshot).")
      Term.(
        const run $ caida_arg $ transit_arg $ stub_arg $ seed_arg
        $ metrics_arg $ trace_arg $ out)
  in
  Cmd.group
    ~default:
      Term.(
        const show_run $ caida_arg $ transit_arg $ stub_arg $ seed_arg
        $ metrics_arg $ trace_arg $ snapshot_arg)
    (Cmd.info "topology"
       ~doc:"Structural metrics of the (synthetic or loaded) topology.")
    [ snapshot_cmd ]

let te_cmd =
  let n =
    Arg.(value & opt positive_int 300
         & info [ "demands" ] ~doc:"Number of gravity-model demands.")
  in
  let k =
    Arg.(value & opt positive_int 3
         & info [ "k" ] ~doc:"Paths used by multipath.")
  in
  let run caida transit stubs seed n k =
    let g = topology ~caida ~transit ~stubs ~seed in
    Te_exp.pp fmt (Te_exp.run ~demands:n ~k ~seed:(seed + 1) g)
  in
  Cmd.v
    (Cmd.info "te"
       ~doc:
         "Extension E12: link utilization under GRC vs. MA multipath \
          traffic engineering.")
    Term.(
      const run $ caida_arg $ transit_arg $ stub_arg $ seed_arg $ n $ k)

let export_cmd =
  let out =
    Arg.(value & opt string "export"
         & info [ "out" ] ~doc:"Output directory for CSV files.")
  in
  let run caida transit stubs seed ctx sample out =
    with_run ctx @@ fun ~pool ~retries ~deadline ->
    if not (Sys.file_exists out) then Sys.mkdir out 0o755;
    let file name = Filename.concat out name in
    let g = topology ~caida ~transit ~stubs ~seed in
    Export.topology ~path:(file "topology.as-rel2") g;
    Export.fig2 ~path:(file "fig2.csv")
      (Fig2_pod.run_both ~pool ~retries ?deadline ~trials:100 ~seed ());
    Export.diversity ~paths_csv:(file "fig3_paths.csv")
      ~dests_csv:(file "fig4_destinations.csv")
      (Diversity.analyze ~pool ~retries ?deadline ~sample_size:sample
         ~seed:(seed + 1) g);
    Export.pair_metric ~counts_csv:(file "fig5a_counts.csv")
      ~improvements_csv:(file "fig5b_reductions.csv")
      (Geodistance.run ~pool ~retries ?deadline ~sample_size:sample
         ~seed:(seed + 1) g);
    Export.pair_metric ~counts_csv:(file "fig6a_counts.csv")
      ~improvements_csv:(file "fig6b_increases.csv")
      (Bandwidth_exp.run ~pool ~retries ?deadline ~sample_size:sample
         ~seed:(seed + 1) g);
    Export.resilience ~path:(file "resilience.csv")
      (Resilience.run ~seed:(seed + 1) g);
    Export.chained ~path:(file "chained.csv")
      (Chained_exp.run ~sample_size:sample ~seed:(seed + 1) g);
    Export.adoption ~path:(file "adoption.csv")
      (Adoption.run ~sample_size:sample ~seed:(seed + 1) g);
    Export.te ~path:(file "te.csv") (Te_exp.run ~seed:(seed + 1) g);
    Export.fragility ~path:(file "fragility.csv")
      (Fragility_exp.run ~seed:(seed + 1) ());
    Format.fprintf fmt "wrote CSV series to %s/@." out
  in
  Cmd.v
    (Cmd.info "export"
       ~doc:"Run every experiment and write the raw series as CSV files.")
    Term.(
      const run $ caida_arg $ transit_arg $ stub_arg $ seed_arg $ run_term
      $ sample_arg $ out)

(* ------------------------------------------------------------------ *)
(* serve: resident path-query service (lib/service)                    *)

let serve_cmd =
  let open Pan_service in
  let stream_arg =
    let doc =
      "Drain the request/event stream from $(docv) instead of generating \
       one.  Format, one item per line: 'query AS1 AS2 ma-all', 'down \
       peer AS1 AS2', 'up transit AS1 AS2' (transit is provider then \
       customer); policies are grc, ma-all, ma-direct, ma-top:N; '#' \
       starts a comment."
    in
    Arg.(value & opt (some file) None & info [ "stream" ] ~doc ~docv:"FILE")
  in
  let requests_arg =
    let doc = "Length of the generated stream (queries plus events)." in
    Arg.(value & opt nonneg_int 200 & info [ "requests" ] ~doc ~docv:"N")
  in
  let churn_arg =
    let doc =
      "Probability that a generated stream item is a link up/down event \
       instead of a query."
    in
    Arg.(value & opt probability 0.05 & info [ "churn" ] ~doc ~docv:"P")
  in
  let oracle_arg =
    let doc =
      "After every event, re-freeze the pre-event core with the event \
       applied and fail loudly if the incremental core ever diverges \
       from it (frozen views are compared byte-for-byte); after every \
       query, recompute its answer bypassing the store and fail loudly \
       if the served answer differs."
    in
    Arg.(value & flag & info [ "oracle" ] ~doc)
  in
  let intent_arg =
    let doc =
      "Generate intent queries instead of policy queries: every query \
       item of the generated stream carries this intent spec (syntax as \
       in $(b,panagree paths --intent); e.g. 'metric=latency; k=4').  \
       Ignored when $(b,--stream) supplies the stream."
    in
    Arg.(
      value & opt (some intent_conv) None & info [ "intent" ] ~doc ~docv:"SPEC")
  in
  let run caida transit stubs seed ctx snapshot stream intent requests churn
      oracle =
    (* The drain runs no pool work: of the run flags, only the
       observability ones apply. *)
    with_obs ~metrics:ctx.metrics ~trace:ctx.trace @@ fun () ->
    let outcome =
      or_exit @@ fun () ->
      let topo = frozen_topology ~snapshot ~caida ~transit ~stubs ~seed in
      let items =
        match stream with
        | Some path ->
            let s = Stream.load path in
            Format.fprintf fmt "# stream %s: %d items@." path (List.length s);
            s
        | None ->
            let rng = Pan_numerics.Rng.create (seed + 2) in
            let s = Stream.generate ?intent ~rng ~topo ~requests ~churn () in
            Format.fprintf fmt "# generated stream (seed %d): %d items, \
                               churn %g@."
              (seed + 2) requests churn;
            s
      in
      Serve.run ~oracle ~topo items
    in
    Format.fprintf fmt "%s" outcome.Serve.transcript;
    let s = outcome.Serve.stats in
    Format.fprintf fmt
      "# served %d queries (%d store hits, %d misses), %d events, %d \
       invalidations@."
      s.Engine.queries s.Engine.store_hits s.Engine.store_misses
      s.Engine.events s.Engine.invalidated;
    Format.fprintf fmt "# transcript fingerprint %s@." outcome.Serve.fingerprint
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Resident path-query service: answer (src, dst, policy) queries \
          from a per-pair memoized store while draining link churn over \
          the incrementally-updated frozen core.")
    Term.(
      const run $ caida_arg $ transit_arg $ stub_arg $ seed_arg $ run_term
      $ snapshot_arg $ stream_arg $ intent_arg $ requests_arg $ churn_arg
      $ oracle_arg)

(* ------------------------------------------------------------------ *)
(* market: concurrent MA negotiation marketplace (lib/market)          *)

let market_cmd =
  let open Pan_market in
  let epochs_arg =
    let doc =
      "Marketplace epochs: each epoch enumerates MA candidates over the \
       current frozen core, negotiates them concurrently, and splices the \
       signed agreements back in, reshaping the next epoch's candidate \
       set.  Stops early when an epoch signs nothing."
    in
    Arg.(value & opt positive_int Market.default.Market.epochs
         & info [ "epochs" ] ~doc ~docv:"N")
  in
  let w_arg =
    let doc = "Choice-set cardinality W of each BOSCO negotiation." in
    Arg.(value & opt positive_int Market.default.Market.w
         & info [ "w" ] ~doc ~docv:"W")
  in
  let demands_arg =
    let doc = "Traffic demands per direction in each candidate scenario." in
    Arg.(value & opt positive_int Market.default.Market.max_demands
         & info [ "demands" ] ~doc ~docv:"N")
  in
  let min_gain_arg =
    let doc =
      "Minimum destinations each side must gain for a pair to be a \
       candidate."
    in
    Arg.(value & opt positive_int Market.default.Market.min_gain
         & info [ "min-gain" ] ~doc ~docv:"N")
  in
  let max_candidates_arg =
    let doc = "Candidate pairs negotiated per epoch (highest gain first)." in
    Arg.(value & opt positive_int Market.default.Market.max_candidates
         & info [ "max-candidates" ] ~doc ~docv:"N")
  in
  let chunk_arg =
    let doc =
      "Negotiations per scheduled chunk.  Results are chunk-deterministic: \
       identical for every chunk size and every --jobs value."
    in
    Arg.(value & opt positive_int Market.default.Market.chunk
         & info [ "chunk" ] ~doc ~docv:"N")
  in
  let mechanism_arg =
    let doc =
      "Qualification mechanism: $(b,bosco) negotiates every enumerated \
       candidate pair-by-pair (the default), $(b,nash-peering) first runs \
       the global-bargaining qualifier and negotiates only pairs offering \
       both endpoints a competitive share of their coalition value, \
       $(b,both) runs the two qualifiers on a shared epoch snapshot and \
       identical candidate streams, reporting a per-epoch welfare / \
       agreement-count / Price-of-Dishonesty comparison."
    in
    Arg.(
      value
      & opt
          (enum
             [
               ("bosco", Market.Bosco);
               ("nash-peering", Market.Nash_peering);
               ("both", Market.Both);
             ])
          Market.Bosco
      & info [ "mechanism" ] ~doc ~docv:"MECH")
  in
  let oracle_arg =
    let doc =
      "After every epoch, re-freeze the pre-epoch core with the epoch's \
       signings applied and compare it byte-for-byte with the \
       incrementally-spliced one."
    in
    Arg.(value & flag & info [ "oracle" ] ~doc)
  in
  let run caida transit stubs seed ctx snapshot epochs w demands min_gain
      max_candidates chunk mechanism oracle =
    with_run ctx @@ fun ~pool ~retries ~deadline ->
    let result =
      or_exit @@ fun () ->
      let topo = frozen_topology ~snapshot ~caida ~transit ~stubs ~seed in
      let config =
        {
          Market.epochs;
          w;
          max_demands = demands;
          min_gain;
          max_candidates;
          chunk;
          seed;
        }
      in
      Market.run_frozen ~pool ~retries ?deadline ~oracle ~mechanism config
        topo
    in
    Market.pp fmt result
  in
  Cmd.v
    (Cmd.info "market"
       ~doc:
         "MA negotiation marketplace: enumerate viable candidate pairs \
          over the frozen core, drive their BOSCO negotiations \
          concurrently (chunk-deterministic), splice signed agreements \
          back into the core, and repeat for --epochs rounds.")
    Term.(
      const run $ caida_arg $ transit_arg $ stub_arg $ seed_arg $ run_term
      $ snapshot_arg $ epochs_arg $ w_arg $ demands_arg $ min_gain_arg
      $ max_candidates_arg $ chunk_arg $ mechanism_arg $ oracle_arg)

(* ------------------------------------------------------------------ *)
(* paths                                                               *)

let paths_cmd =
  let open Pan_service in
  let src_arg =
    let doc = "Source AS number." in
    Arg.(required & pos 0 (some int) None & info [] ~doc ~docv:"SRC")
  in
  let dst_arg =
    let doc = "Destination AS number." in
    Arg.(required & pos 1 (some int) None & info [] ~doc ~docv:"DST")
  in
  let intent_arg =
    let doc =
      "Path intent: a ';'-separated list of clauses.  'metric=' takes \
       '+'-joined weighted components (latency, nlatency, bandwidth, \
       nbandwidth, hops; e.g. 'metric=2*nlatency+nbandwidth'); 'k=N' \
       bounds the candidate count (1 to 1024); optional clauses: \
       'max-hops=N', 'exclude-as=AS1,AS2', 'exclude-link=AS1-AS2', \
       'geo-fence=lat,lon,radius-km', 'require=encrypted,monitored'."
    in
    Arg.(
      value
      & opt intent_conv Pan_intent.Intent.default
      & info [ "intent" ] ~doc ~docv:"SPEC")
  in
  let probe_arg =
    let doc =
      "Probe the ranked candidates in order (failing over past links \
       downed by the active fault spec, if any) and report the selected \
       path."
    in
    Arg.(value & flag & info [ "probe" ] ~doc)
  in
  let run caida transit stubs seed metrics trace snapshot faults src dst
      intent probe =
    set_faults faults;
    with_obs ~metrics ~trace @@ fun () ->
    let topo, src, dst, results =
      or_exit @@ fun () ->
      let topo = frozen_topology ~snapshot ~caida ~transit ~stubs ~seed in
      let lookup label x =
        match Compact.index_of topo (Asn.of_int x) with
        | Some i -> i
        | None ->
            invalid_arg
              (Printf.sprintf "paths: %s AS%d is not in the topology" label x)
      in
      let src = lookup "source" src and dst = lookup "destination" dst in
      (* The engine's intent environment — the same scores [serve]
         renders for the same seed. *)
      let engine = Engine.create topo in
      (topo, src, dst, Engine.intent_query engine ~src ~dst intent)
    in
    Format.fprintf fmt "%s@."
      (Serve.render_intent_query topo ~src ~dst intent results);
    if probe then begin
      let open Pan_intent in
      let path_str p =
        String.concat " " (List.map (Format.asprintf "%a" Asn.pp) p)
      in
      let o = Probe.run ~topo (List.map (fun r -> r.Candidates.path) results) in
      List.iteri
        (fun i (a : Probe.attempt) ->
          match a.failed_link with
          | Some (x, y) ->
              Format.fprintf fmt "probe %d: %s failed (link %a-%a down)@."
                (i + 1) (path_str a.path) Asn.pp x Asn.pp y
          | None ->
              Format.fprintf fmt "probe %d: %s ok@." (i + 1) (path_str a.path))
        o.Probe.attempts;
      match o.Probe.selected with
      | Some path -> Format.fprintf fmt "selected: %s@." (path_str path)
      | None -> Format.fprintf fmt "selected: none (all candidates down)@."
    end
  in
  Cmd.v
    (Cmd.info "paths"
       ~doc:
         "Rank K-shortest-path candidates between two ASes under a path \
          intent (composite metric, hard constraints, candidate budget) \
          over the frozen compact core; optionally probe them with \
          failover.")
    Term.(
      const run $ caida_arg $ transit_arg $ stub_arg $ seed_arg $ metrics_arg
      $ trace_arg $ snapshot_arg $ faults_arg $ src_arg $ dst_arg $ intent_arg
      $ probe_arg)

(* ------------------------------------------------------------------ *)
(* validate-bench                                                      *)

let validate_bench_cmd =
  let files =
    let doc = "BENCH_<part>.json files to validate." in
    Arg.(non_empty & pos_all string [] & info [] ~doc ~docv:"FILE")
  in
  let run files =
    let ok =
      List.fold_left
        (fun ok file ->
          match Pan_obs.Bench_snap.read file with
          | Ok snap ->
              Format.fprintf fmt "%s: ok (part %s, fingerprint %s)@." file
                snap.Pan_obs.Bench_snap.part
                snap.Pan_obs.Bench_snap.fingerprint;
              ok
          | Error e ->
              Format.eprintf "%s: INVALID: %s@." file e;
              false)
        true files
    in
    if not ok then exit 1
  in
  Cmd.v
    (Cmd.info "validate-bench"
       ~doc:
         "Parse and schema-check machine-readable BENCH_<part>.json \
          snapshots emitted by the bench harness; exits non-zero on any \
          malformed file.")
    Term.(const run $ files)

(* ------------------------------------------------------------------ *)
(* all                                                                 *)

let all_cmd =
  let run seed ctx =
    with_run ctx @@ fun ~pool ~retries ~deadline ->
    Format.fprintf fmt "=== E7 gadgets ===@.";
    Gadget_exp.pp fmt (Gadget_exp.run ~seed ());
    Format.fprintf fmt "@.=== E8 methods ===@.";
    Methods_exp.pp fmt
      (Methods_exp.run ~pool ~retries ?deadline ~scenarios:50 ~seed ());
    Format.fprintf fmt "@.=== E1 fig2 (reduced) ===@.";
    List.iter
      (fun s -> Fig2_pod.pp_series fmt s)
      (Fig2_pod.run_both ~pool ~retries ?deadline ~ws:[ 2; 10; 50 ] ~trials:50
         ~seed ());
    Format.fprintf fmt "@.=== E2/E3/E6 diversity ===@.";
    let g = topology ~caida:None ~transit:200 ~stubs:1000 ~seed in
    Diversity.pp_result fmt
      (Diversity.analyze ~pool ~retries ?deadline ~sample_size:300 ~seed g);
    Format.fprintf fmt "@.=== E4 fig5 ===@.";
    Geodistance.pp fmt
      (Geodistance.run ~pool ~retries ?deadline ~sample_size:300 ~seed g);
    Format.fprintf fmt "@.=== E5 fig6 ===@.";
    Bandwidth_exp.pp fmt
      (Bandwidth_exp.run ~pool ~retries ?deadline ~sample_size:300 ~seed g);
    Format.fprintf fmt "@.=== E9 resilience (extension) ===@.";
    Resilience.pp fmt (Resilience.run ~pairs:60 ~seed g);
    Format.fprintf fmt "@.=== E10 chained agreements (extension) ===@.";
    Chained_exp.pp fmt (Chained_exp.run ~sample_size:150 ~seed g)
  in
  Cmd.v
    (Cmd.info "all" ~doc:"Run every experiment at reduced scale.")
    Term.(const run $ seed_arg $ run_term)

let () =
  let info =
    Cmd.info "panagree" ~version:"1.0.0"
      ~doc:
        "Reproduction of 'Enabling Novel Interconnection Agreements with \
         Path-Aware Networking Architectures' (DSN 2021)."
  in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            fig2_cmd;
            fig34_cmd;
            summary_cmd;
            fig5_cmd;
            fig6_cmd;
            gadgets_cmd;
            methods_cmd;
            resilience_cmd;
            chained_cmd;
            adoption_cmd;
            te_cmd;
            fragility_cmd;
            topology_cmd;
            serve_cmd;
            market_cmd;
            paths_cmd;
            validate_bench_cmd;
            export_cmd;
            all_cmd;
          ]))
