(* Cross-stack property tests: invariants that must hold on arbitrary
   generated topologies, tying the substrates together the way the paper's
   argument does. *)

open Pan_topology
open Pan_numerics
open Pan_scion
open Pan_routing

let graph_of_seed seed =
  let params =
    {
      Gen.default_params with
      Gen.n_tier1 = 3 + (seed mod 3);
      n_transit = 15 + (seed mod 10);
      n_stub = 40 + (seed mod 20);
      route_server_hubs = 2;
    }
  in
  Gen.graph (Gen.generate ~params ~seed ())

(* 1. Beaconing only registers verifiable, GRC-authorized segments. *)
let qcheck_beacon_segments_sound =
  QCheck.Test.make ~count:10 ~name:"beacon segments verify and are GRC paths"
    QCheck.(int_range 1 500)
    (fun seed ->
      let g = graph_of_seed seed in
      let authz = Authz.create g in
      let b = Beacon.run authz in
      List.for_all
        (fun x ->
          List.for_all
            (fun seg ->
              Segment.verify seg
              && Path.is_valley_free g (Path.make_exn g (Segment.ases seg)))
            (Beacon.down_segments b x))
        (Graph.ases g))

(* 2. Combinator output: verified, loop-free, correct endpoints — with
   every MA concluded, i.e. including GRC-violating splices. *)
let qcheck_combinator_paths_wellformed =
  QCheck.Test.make ~count:6 ~name:"combinator paths well-formed under MAs"
    QCheck.(int_range 1 500)
    (fun seed ->
      let g = graph_of_seed seed in
      let mas = Graph.fold_peering_links (fun x y acc -> (x, y) :: acc) g [] in
      let authz = Authz.create ~mas g in
      let ps = Path_server.build authz (Beacon.run authz) in
      let rng = Rng.create seed in
      let ases = Array.of_list (Graph.ases g) in
      let ok = ref true in
      for _ = 1 to 10 do
        let src = Rng.choose rng ases and dst = Rng.choose rng ases in
        if not (Asn.equal src dst) then
          List.iter
            (fun seg ->
              let path = Segment.ases seg in
              let rec distinct = function
                | [] -> true
                | x :: rest ->
                    (not (List.exists (Asn.equal x) rest)) && distinct rest
              in
              if
                not
                  (Segment.verify seg && distinct path
                  && Asn.equal (Segment.source seg) src
                  && Asn.equal (Segment.destination seg) dst)
              then ok := false)
            (Combinator.end_to_end ~max_paths:20 ps ~src ~dst)
      done;
      !ok)

(* 3. GRC-derived SPP instances are certified safe and conform. *)
let qcheck_grc_instances_safe =
  QCheck.Test.make ~count:5 ~name:"GRC instances conform and are wheel-free"
    QCheck.(int_range 1 500)
    (fun seed ->
      (* a small random sub-hierarchy so route enumeration stays cheap *)
      let params =
        {
          Gen.default_params with
          Gen.n_tier1 = 2;
          n_transit = 4;
          n_stub = 6;
          transit_peering_degree = 2.0;
          stub_peering_prob = 0.3;
          route_server_hubs = 0;
        }
      in
      let g = Gen.graph (Gen.generate ~params ~seed ()) in
      let rng = Rng.create seed in
      let dests =
        Rng.sample_without_replacement rng 3 (Array.of_list (Graph.ases g))
      in
      Array.for_all
        (fun dest ->
          let i = Policy.grc_instance ~max_len:4 g ~dest in
          Grc_check.conforms g i
          && Dispute.certified_safe i
          &&
          match Bgp.run ~schedule:Bgp.Round_robin i with
          | Bgp.Converged _ -> true
          | _ -> false)
        dests)

(* 4. MA paths are exactly the GRC-violating peer-transit paths:
   disjointness plus the authorization view agree. *)
let qcheck_ma_paths_authorized_only_with_ma =
  QCheck.Test.make ~count:6
    ~name:"MA paths refused without the MA, authorized with it"
    QCheck.(int_range 1 500)
    (fun seed ->
      let g = graph_of_seed seed in
      (* core transit would authorize tier1-tier1-tier1 peer paths even
         without an MA; disable it to isolate the MA effect *)
      let no_ma = Authz.create ~core_transit:false g in
      let rng = Rng.create (seed + 1) in
      let ases = Array.of_list (Graph.ases g) in
      let c = Compact.freeze g in
      let ok = ref true in
      for _ = 1 to 5 do
        let x = Rng.choose rng ases in
        let sample_paths = ref [] in
        Path_enum_compact.iter_paths
          (fun ~mid ~dst ->
            if List.length !sample_paths < 5 then
              sample_paths :=
                (Compact.id c mid, Compact.id c dst) :: !sample_paths)
          (Path_enum_compact.ma_direct c (Compact.index_of_exn c x));
        List.iter
          (fun (mid, dst) ->
            let with_ma =
              Authz.create ~core_transit:false ~mas:[ (x, mid) ] g
            in
            (match Segment.make no_ma [ x; mid; dst ] with
            | Ok _ -> ok := false (* must be refused without the MA *)
            | Error _ -> ());
            match Segment.make with_ma [ x; mid; dst ] with
            | Ok _ -> ()
            | Error _ -> ok := false (* must be authorized with it *))
          !sample_paths
      done;
      !ok)

(* 5. Economic identities on random scenarios over generated graphs. *)
let qcheck_cash_settlement_identities =
  QCheck.Test.make ~count:15 ~name:"cash settlement identities (random graphs)"
    QCheck.(int_range 1 2000)
    (fun seed ->
      let g = graph_of_seed (1 + (seed mod 7)) in
      let rng = Rng.create seed in
      (* find a peering pair *)
      let pair =
        Graph.fold_peering_links
          (fun x y acc -> match acc with None -> Some (x, y) | s -> s)
          g None
      in
      match pair with
      | None -> true
      | Some (x, y) -> (
          match Pan_econ.Scenario_gen.random_scenario rng g ~x ~y with
          | exception Invalid_argument _ -> true
          | scenario ->
              let r = Pan_econ.Cash_opt.optimize scenario in
              if r.Pan_econ.Cash_opt.concluded then
                Float.abs
                  (r.Pan_econ.Cash_opt.u_x_after
                  -. r.Pan_econ.Cash_opt.u_y_after)
                < 1e-6
                && Float.abs
                     (r.Pan_econ.Cash_opt.u_x_after
                     +. r.Pan_econ.Cash_opt.u_y_after
                     -. (r.Pan_econ.Cash_opt.u_x +. r.Pan_econ.Cash_opt.u_y))
                   < 1e-6
              else
                r.Pan_econ.Cash_opt.u_x +. r.Pan_econ.Cash_opt.u_y < 0.0))

(* 6. Decomposition sums to utility on random scenarios. *)
let qcheck_decomposition_consistent =
  QCheck.Test.make ~count:15 ~name:"decomposition sums to utility"
    QCheck.(int_range 1 2000)
    (fun seed ->
      let g = Gen.fig1 () in
      let rng = Rng.create seed in
      let scenario =
        Pan_econ.Scenario_gen.random_scenario rng g
          ~x:(Gen.fig1_asn 'D') ~y:(Gen.fig1_asn 'E')
      in
      let choices = Pan_econ.Traffic_model.full_choice scenario in
      match Pan_econ.Decomposition.of_choices scenario choices with
      | Error _ -> false
      | Ok (dx, dy) ->
          let ux, uy =
            Pan_econ.Traffic_model.utilities_exn scenario choices
          in
          Float.abs (dx.Pan_econ.Decomposition.utility -. ux) < 1e-9
          && Float.abs (dy.Pan_econ.Decomposition.utility -. uy) < 1e-9)

(* 7. BOSCO theorems hold on random games end to end. *)
let qcheck_bosco_theorems =
  QCheck.Test.make ~count:8 ~name:"BOSCO theorems on random games"
    QCheck.(int_range 1 2000)
    (fun seed ->
      let open Pan_bosco in
      let rng = Rng.create seed in
      let lo = -1.0 -. Rng.float rng and hi = 0.5 +. Rng.float rng in
      let dist = Distribution.uniform lo hi in
      let report =
        Service.negotiate ~rng ~dist_x:dist ~dist_y:dist ~w:12 ()
      in
      let sx = report.Service.strategy_x and sy = report.Service.strategy_y in
      let game = report.Service.game in
      let check_rng = Rng.create (seed * 3) in
      Properties.individual_rationality ~samples:300 check_rng game sx sy
      && Properties.soundness ~samples:300 (Rng.create (seed * 5)) game sx sy
      && Properties.privacy sx && Properties.privacy sy
      && report.Service.pod >= -1e-6
      && report.Service.pod <= 1.0 +. 1e-6)

(* 8. Traffic conservation: link-load mass equals the placed volume
   weighted by path length. *)
let qcheck_traffic_conservation =
  QCheck.Test.make ~count:20 ~name:"traffic mass conservation"
    QCheck.(pair (int_range 1 100) (float_range 0.1 50.0))
    (fun (seed, volume) ->
      let g = Gen.fig1 () in
      let a = Gen.fig1_asn in
      let bw = Bandwidth.degree_gravity g in
      let paths =
        [ [ a 'H'; a 'D'; a 'A' ]; [ a 'H'; a 'D'; a 'E'; a 'I' ] ]
      in
      let k = 1 + (seed mod 2) in
      let t = Traffic.create g in
      Traffic.place t bw (Traffic.Split k) paths volume;
      let total_load =
        List.fold_left
          (fun acc (x, y) -> acc +. Traffic.link_load t x y)
          0.0
          [ (a 'H', a 'D'); (a 'D', a 'A'); (a 'D', a 'E'); (a 'E', a 'I') ]
      in
      let chosen = List.filteri (fun i _ -> i < k) paths in
      let expected =
        List.fold_left
          (fun acc p ->
            acc
            +. (volume /. float_of_int k *. float_of_int (List.length p - 1)))
          0.0 chosen
      in
      Float.abs (total_load -. expected) < 1e-6)

let suite =
  [
    QCheck_alcotest.to_alcotest qcheck_beacon_segments_sound;
    QCheck_alcotest.to_alcotest qcheck_combinator_paths_wellformed;
    QCheck_alcotest.to_alcotest qcheck_grc_instances_safe;
    QCheck_alcotest.to_alcotest qcheck_ma_paths_authorized_only_with_ma;
    QCheck_alcotest.to_alcotest qcheck_cash_settlement_identities;
    QCheck_alcotest.to_alcotest qcheck_decomposition_consistent;
    QCheck_alcotest.to_alcotest qcheck_bosco_theorems;
    QCheck_alcotest.to_alcotest qcheck_traffic_conservation;
  ]
