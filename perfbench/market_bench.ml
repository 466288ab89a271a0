(* The market workload: epochs of MA candidate enumeration, concurrent
   econ + BOSCO negotiation with the Nash-Peering comparison arm, and
   batch agreement splices. *)

open Pan_numerics
open Pan_topology
module Engine = Pan_service.Engine
module Market = Pan_market.Market
module Candidates = Pan_market.Candidates
module Negotiate = Pan_market.Negotiate
module Nash_peering = Pan_market.Nash_peering

type inputs = {
  topo : Compact.t;
  graph : Graph.t;
  configs : Market.config array;  (** one per market instance *)
}

(* One set-up: load the snapshot, thaw the mutable graph [Market.run]
   takes, and create an engine such as a client-side re-drive splices
   into. *)
type setup = { load : float; thaw : float; create : float }

let set_up dir =
  let topo, load =
    Timer.time (fun () -> Compact.Snapshot.load (Inputs.topo_file dir))
  in
  let graph, thaw = Timer.time (fun () -> Compact.thaw topo) in
  let (_ : Engine.t), create = Timer.time (fun () -> Engine.create topo) in
  let configs =
    Array.of_list
      (List.map (fun seed -> Inputs.market_config ~seed) (Inputs.load_seeds dir))
  in
  ({ topo; graph; configs }, { load; thaw; create })

let run ?pool inp config =
  Market.run ?pool ~mechanism:Market.Both config inp.graph

(* Pairs a run negotiates unless an epoch runs out of candidates. *)
let planned (c : Market.config) = c.epochs * c.max_candidates

(* [Market]'s epoch welfare: the equal-split post-transfer utilities of
   the signed agreements, summed in order. *)
let epoch_welfare signed =
  let n = List.length signed in
  let u_x = Array.of_list (List.map (fun o -> o.Negotiate.u_x) signed) in
  let u_y = Array.of_list (List.map (fun o -> o.Negotiate.u_y) signed) in
  let out_x = Array.make n 0.0 and out_y = Array.make n 0.0 in
  ignore (Pan_econ.Nash.after_transfer_into ~n ~u_x ~u_y ~out_x ~out_y : int);
  let total = ref 0.0 in
  for i = 0 to n - 1 do
    total := !total +. out_x.(i) +. out_y.(i)
  done;
  !total

(* Per-layer time of a client-side re-drive. *)
type split = {
  qualify : Timer.acc;
  splice : Timer.acc;
  new_paths : Timer.acc;
}

let split () =
  { qualify = Timer.acc (); splice = Timer.acc (); new_paths = Timer.acc () }

(* One client re-drives [Market.run]'s Both-mode epoch loop through the
   public layers — [Candidates.enumerate], one [Negotiate.negotiate_pair]
   at a time, [Nash_peering.qualify], [Engine.apply_batch] and the
   new-path queries — and checks that it reproduces [expected]'s
   agreements, welfare and epoch reports exactly.  The latency of every
   BOSCO negotiation (a viable pair's [negotiate_pair]) goes into [lat].
   Returns the live heap with the engine and graph still resident. *)
let redrive ~config:(c : Market.config) inp (expected : Market.result) sp lat
    ~check =
  let engine = Engine.create inp.topo in
  let graph = Compact.thaw inp.topo in
  let dist = Distribution.uniform (-1.0) 1.0 in
  let truthful =
    Pan_bosco.Efficiency.expected_nash_truthful
      {
        Pan_bosco.Game.dist_x = dist;
        dist_y = dist;
        claims_x = Pan_bosco.Claim.of_list [];
        claims_y = Pan_bosco.Claim.of_list [];
      }
  in
  let agreements = ref [] and welfare = ref 0.0 and pairs = ref 0 in
  let rec epoch e (reports : Market.epoch_report list) =
    if e <= c.Market.epochs then begin
      let topo = Engine.topology engine in
      let cands =
        Candidates.enumerate ~min_gain:c.Market.min_gain
          ~max_candidates:c.Market.max_candidates topo
      in
      let n = Array.length cands in
      let report = match reports with r :: _ -> Some r | [] -> None in
      check
        (Printf.sprintf "epoch %d candidates" e)
        (Option.map (fun (r : Market.epoch_report) -> r.candidates) report
        = Some n);
      if n > 0 then begin
        let outcomes =
          Array.map
            (fun cand ->
              let o, dt =
                Timer.time (fun () ->
                    Negotiate.negotiate_pair ~graph ~topo ~seed:c.Market.seed
                      ~epoch:e ~w:c.Market.w ~max_demands:c.Market.max_demands
                      ~truthful ~dist cand)
              in
              if o.Negotiate.viable then Timer.Samples.push lat dt;
              o)
            cands
        in
        pairs := !pairs + n;
        let verdicts =
          Timer.timed sp.qualify (fun () ->
              Nash_peering.qualify (Array.map Nash_peering.of_outcome outcomes))
        in
        let signed =
          List.filter (fun o -> o.Negotiate.signed) (Array.to_list outcomes)
        in
        welfare := !welfare +. epoch_welfare signed;
        let link o = (o.Negotiate.cand.Candidates.x, o.Negotiate.cand.Candidates.y) in
        let invalidated =
          Timer.timed sp.splice (fun () ->
              Engine.apply_batch engine
                (List.map
                   (fun o ->
                     let x, y = link o in
                     Engine.Link_up (Engine.Peer (x, y)))
                   signed))
        in
        List.iter
          (fun o ->
            let x, y = link o in
            let x = Compact.id topo x and y = Compact.id topo y in
            Graph.add_peering graph x y;
            agreements := (x, y) :: !agreements)
          signed;
        let new_paths =
          Timer.timed sp.new_paths (fun () ->
              List.fold_left
                (fun acc o ->
                  let src, dst = link o in
                  acc
                  + List.length
                      (Engine.query engine ~src ~dst ~policy:Path_enum.Ma_all))
                0 signed)
        in
        let got =
          (Nash_peering.count_qualified verdicts, List.length signed, new_paths,
           invalidated)
        in
        check
          (Printf.sprintf "epoch %d qualified/signed/paths/invalidated" e)
          (Option.map
             (fun (r : Market.epoch_report) ->
               (r.qualified, r.signed, r.new_paths, r.invalidated))
             report
          = Some got);
        if signed <> [] then
          epoch (e + 1) (match reports with _ :: rest -> rest | [] -> [])
      end
    end
  in
  epoch 1 expected.Market.reports;
  check "agreements" (List.rev !agreements = expected.Market.agreements);
  check "welfare"
    (Int64.equal
       (Int64.bits_of_float !welfare)
       (Int64.bits_of_float expected.Market.welfare));
  check "pairs" (!pairs = expected.Market.pairs);
  let live = Timer.live_mb () in
  ignore (Sys.opaque_identity (engine, graph));
  live

(* Untraced: cycle over the market instances, each a 1-domain
   [Market.run] (throughput) then a closed-loop client re-drive
   (negotiation latency, output check), until every instance has run,
   [seconds] have passed and at least ten latency samples lie beyond the
   p99.  Every pass is timed at reference speed
   ([Timer.at_reference_speed]).  Every instance then reruns at
   2 domains for the fingerprint check.  Throughput is the pairs of one
   run of every instance over the sum of their median run times, so
   that every instance weighs the same however many runs it got. *)
let measure ~dir ~seconds =
  let inp, med = Timer.set_up_many ~budget:1.5 (fun () -> set_up dir) in
  let tally = Report.tally () in
  let check what ok = Report.check tally ~what ok in
  let n_inst = Array.length inp.configs in
  let expected = Array.make n_inst None and times = Array.make n_inst [] in
  let heaps = ref [] and speeds = ref [] and runs = ref 0 in
  let pass = Timer.Samples.create () and pooled = Timer.Samples.create () in
  let t_end = Int64.add (Timer.now ()) (Int64.of_float (seconds *. 1e9)) in
  let k = ref 0 in
  while
    !k < 2 * n_inst || Timer.now () < t_end
    || Timer.Samples.length pooled < Timer.min_samples
  do
    let i = !k / 2 mod n_inst in
    let config = inp.configs.(i) in
    Gc.full_major ();
    (if !k mod 2 = 0 then
       match
         Report.guarded tally ~items:(planned config) (fun () ->
             Timer.at_reference_speed (fun () ->
                 Timer.time (fun () -> run inp config)))
       with
       | Some ((r, dt), speed) -> (
           times.(i) <- (dt *. speed) :: times.(i);
           speeds := speed :: !speeds;
           incr runs;
           match expected.(i) with
           | Some (e : Market.result) ->
               Report.check_fp tally ~what:"market rerun" e.fingerprint
                 r.fingerprint
           | None -> expected.(i) <- Some r)
       | None -> ()
     else
       match expected.(i) with
       | None -> ()
       | Some e -> (
           Timer.Samples.clear pass;
           match
             Report.guarded tally ~items:e.Market.pairs (fun () ->
                 Timer.at_reference_speed (fun () ->
                     redrive ~config inp e (split ()) pass ~check))
           with
           | Some (h, speed) ->
               heaps := h :: !heaps;
               speeds := speed :: !speeds;
               Array.iter (Timer.Samples.push pooled)
                 (Timer.Samples.to_array ~scale:speed pass)
           | None -> ()));
    incr k
  done;
  Array.iteri
    (fun i e ->
      let config = inp.configs.(i) in
      match
        ( e,
          Report.guarded tally ~items:(planned config) (fun () ->
              Timer.time_on_pool (fun pool -> run ~pool inp config)) )
      with
      | Some (e : Market.result), Some (r, _) ->
          Report.check_fp tally ~what:"2-domain market" e.fingerprint
            r.fingerprint
      | _ -> ())
    expected;
  let pairs =
    Array.fold_left
      (fun n e -> match e with Some (e : Market.result) -> n + e.pairs | None -> n)
      0 expected
  in
  let time = Array.fold_left (fun t ts -> t +. Timer.median_of ts) 0.0 times in
  let lat = Timer.Samples.to_array pooled in
  let us q = if lat = [||] then Float.nan else Timer.quantile lat q *. 1e6 in
  ( tally,
    [
      Report.m "setup_s" "s" (med (fun s -> s.load +. s.thaw +. s.create));
      Report.m "ops_per_s" "1/s" (float_of_int pairs /. time);
      Report.m "op_p50_us" "us" (us 0.5);
      Report.m "op_p99_us" "us" (us 0.99);
      Report.m "heap_live_mb" "MB" (Timer.median_of !heaps);
    ],
    [
      Report.m "info.op_p90_us" "us" (us 0.9);
      Report.m "info.host_speed" "ratio" (Timer.median_of !speeds);
      Report.count "info.market_runs" !runs;
      Report.count "info.pairs" pairs;
      Report.count "info.latency_samples" (Array.length lat);
    ] )

(* Traced, on the first market instance: alternate untraced and traced
   2-domain runs (the [Pan_obs] overhead, fingerprint equality and the
   library spans and counters), a traced 1-domain run (pool efficiency),
   then one client re-drive for the layers without a span. *)
let trace ~dir =
  let inp, med = Timer.set_up_many ~budget:1.5 (fun () -> set_up dir) in
  let tally = Report.tally () in
  let check what ok = Report.check tally ~what ok in
  let config = inp.configs.(0) in
  let items = planned config in
  match Report.guarded tally ~items (fun () -> run inp config) with
  | None -> (tally, [], [])
  | Some expected ->
      let fp what (r : Market.result) =
        Report.check_fp tally ~what expected.fingerprint r.fingerprint
      in
      let overhead, wall, metrics, spans =
        Layers.observe tally ~items
          ~check:(fun what r -> fp (what ^ " 2-domain market") r)
          (fun () -> Timer.time_on_pool (fun pool -> run ~pool inp config))
      in
      Gc.full_major ();
      let spans1 =
        match
          Report.guarded tally ~items (fun () ->
              Layers.traced (fun () -> run inp config))
        with
        | Some (r, _, spans) ->
            fp "traced 1-domain market" r;
            spans
        | None -> []
      in
      let sp = split () in
      Gc.full_major ();
      let gc0 = Gc.quick_stat () in
      ignore
        (Report.guarded tally ~items (fun () ->
             redrive ~config inp expected sp (Timer.Samples.create ()) ~check)
          : float option);
      let gc1 = Gc.quick_stat () in
      let base = Layers.of_obs metrics spans in
      let enum1, _ = Layers.span_total spans1 "market/enumerate" in
      let neg1, _ = Layers.span_total spans1 "market/negotiate" in
      let enum2 = fst base.Layers.enumerate in
      let l =
        {
          base with
          Layers.snapshot_load = med (fun s -> s.load);
          engine_create = med (fun s -> s.create);
          qualify = sp.qualify.s;
          splice = sp.splice.s;
          new_paths = sp.new_paths.s;
          residual =
            wall -. enum2 -. base.negotiate -. sp.qualify.s -. sp.splice.s
            -. sp.new_paths.s;
          efficiency_enumerate = Timer.ratio enum1 (2.0 *. enum2);
          efficiency_negotiate = Timer.ratio neg1 (2.0 *. base.negotiate);
          minor_mwords = (gc1.Gc.minor_words -. gc0.Gc.minor_words) /. 1e6;
          major_collections = gc1.Gc.major_collections - gc0.Gc.major_collections;
          overhead;
        }
      in
      (tally, Layers.to_metrics l, [ Report.count "info.pairs" expected.pairs ])
