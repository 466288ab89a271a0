open Pan_topology
open Pan_numerics

let fig1_scenario ?(transit_price = 1.0) ?(stub_price = 2.0)
    ?(internal_rate = 0.1) () =
  let g = Gen.fig1 () in
  let asn c = Gen.fig1_asn c in
  let a = asn 'A'
  and b = asn 'B'
  and d = asn 'D'
  and e = asn 'E'
  and f = asn 'F'
  and h = asn 'H'
  and i = asn 'I' in
  let transit = Pricing.per_usage ~unit_price:transit_price in
  let stub = Pricing.per_usage ~unit_price:stub_price in
  let business_d =
    Business.create ~asn:d
      ~internal_cost:(Cost.linear ~rate:internal_rate)
      ~provider_prices:[ (a, transit) ]
      ~customer_prices:[ (h, transit); (Flows.stub d, stub) ]
      ()
  in
  let business_e =
    Business.create ~asn:e
      ~internal_cost:(Cost.linear ~rate:internal_rate)
      ~provider_prices:[ (b, transit) ]
      ~customer_prices:[ (i, transit); (Flows.stub e, stub) ]
      ()
  in
  let baseline_d =
    Flows.of_list
      [ (a, 20.0); (e, 6.0); (h, 16.0); (Flows.stub d, 10.0) ]
  in
  let baseline_e =
    Flows.of_list
      [ (b, 18.0); (d, 6.0); (i, 14.0); (Flows.stub e, 10.0) ]
  in
  let agreement = Agreement.paper_example g in
  let demands =
    Traffic_model.
      [
        (* D's traffic towards B, today via provider A, moves to D-E-B;
           the shorter path also attracts new end-host demand. *)
        {
          beneficiary = d;
          transit = e;
          dest = b;
          reroutable = 6.0;
          reroute_from = Some a;
          attracted_max = 4.0;
        };
        (* D gains access to E's peer F. *)
        {
          beneficiary = d;
          transit = e;
          dest = f;
          reroutable = 2.0;
          reroute_from = Some a;
          attracted_max = 2.0;
        };
        (* E's traffic towards A moves from provider B to E-D-A. *)
        {
          beneficiary = e;
          transit = d;
          dest = a;
          reroutable = 5.0;
          reroute_from = Some b;
          attracted_max = 3.0;
        };
      ]
  in
  let scenario =
    Traffic_model.make_scenario_exn ~agreement
      ~businesses:[ (d, business_d); (e, business_e) ]
      ~baseline:[ (d, baseline_d); (e, baseline_e) ]
      ~demands
  in
  (g, scenario)

let random_business rng g x =
  let price () = Pricing.per_usage ~unit_price:(Rng.uniform rng 0.5 2.0) in
  let provider_prices =
    Asn.Set.fold (fun y acc -> (y, price ()) :: acc) (Graph.providers g x) []
  in
  let customer_prices =
    (Flows.stub x, Pricing.per_usage ~unit_price:(Rng.uniform rng 1.0 3.0))
    :: Asn.Set.fold (fun y acc -> (y, price ()) :: acc) (Graph.customers g x) []
  in
  Business.create ~asn:x
    ~internal_cost:(Cost.linear ~rate:(Rng.uniform rng 0.01 0.4))
    ~provider_prices ~customer_prices ()

let random_baseline rng g x =
  let flow () = Rng.uniform rng 2.0 30.0 in
  let entries =
    Asn.Set.fold (fun y acc -> (y, flow ()) :: acc) (Graph.neighbors g x) []
  in
  Flows.of_list ((Flows.stub x, flow ()) :: entries)

let random_scenario ?(max_demands = 4) rng g ~x ~y =
  let agreement = Agreement.mutuality g x y in
  let demand_for beneficiary transit dest =
    let providers = Graph.providers g beneficiary in
    let reroute_from =
      if Asn.Set.is_empty providers then None
      else Some (Rng.choose rng (Array.of_list (Asn.Set.elements providers)))
    in
    Traffic_model.
      {
        beneficiary;
        transit;
        dest;
        reroutable = Rng.uniform rng 0.0 8.0;
        reroute_from;
        attracted_max = Rng.uniform rng 0.0 5.0;
      }
  in
  let pick_dests party =
    let granted =
      Asn.Set.elements (Agreement.accessible agreement ~to_:party)
    in
    match granted with
    | [] -> []
    | _ ->
        let arr = Array.of_list granted in
        let k = 1 + Rng.int rng (Stdlib.min max_demands (Array.length arr)) in
        Array.to_list (Rng.sample_without_replacement rng k arr)
  in
  (* A third of the scenarios are one-sided: only one party gains new
     segments while the other merely carries traffic — the asymmetric
     setting where flow-volume targets degenerate but cash compensation
     still concludes (§IV-C). *)
  let side = Rng.int rng 6 in
  let x_dests = if side = 0 then [] else pick_dests x in
  let y_dests = if side = 1 then [] else pick_dests y in
  let demands =
    List.map (demand_for x y) x_dests @ List.map (demand_for y x) y_dests
  in
  let demands =
    match demands with
    | [] -> List.map (demand_for x y) (pick_dests x)
    | _ -> demands
  in
  if demands = [] then
    invalid_arg "Scenario_gen.random_scenario: MA grants no destinations";
  Traffic_model.make_scenario_exn ~agreement
    ~businesses:[ (x, random_business rng g x); (y, random_business rng g y) ]
    ~baseline:[ (x, random_baseline rng g x); (y, random_baseline rng g y) ]
    ~demands

(* Deterministic per-AS business conditions: prices and internal-cost
   rates vary across ASes (drawn from a stream keyed by seed, AS and
   [key]), which is what makes some agreements viable and others not. *)
let business_of ~key ~seed v x =
  let rng = Rng.create (Hashtbl.hash (seed, Asn.to_int x, key)) in
  let transit = Pricing.per_usage ~unit_price:(Rng.uniform rng 0.7 1.3) in
  (* a sizable share of ASes bills end-hosts flat-rate: for them newly
     attracted traffic generates no extra revenue — the paper's §III-B1
     reason why even classic peering can be unattractive *)
  let stub =
    if Rng.float rng < 0.4 then Pricing.flat_rate ~fee:20.0
    else Pricing.per_usage ~unit_price:(Rng.uniform rng 1.2 2.5)
  in
  let internal = Cost.linear ~rate:(Rng.uniform rng 0.05 0.7) in
  Business.of_graph ~default_transit:transit ~default_internal:internal
    ~stub_price:stub v x

(* Baseline link volumes follow a gravity-ish rule so large ASes carry
   more traffic; the stub (end-host) volume scales with customer count. *)
let baseline_of (v : Graph.view) x =
  let neighbors =
    Asn.Set.union (v.providers x) (Asn.Set.union (v.peers x) (v.customers x))
  in
  let entries =
    Asn.Set.fold
      (fun y acc ->
        let vol = 2.0 *. sqrt (float_of_int (v.degree x * v.degree y)) in
        (y, vol) :: acc)
      neighbors []
  in
  let stub_volume = 4.0 +. float_of_int (v.degree x) in
  Flows.of_list ((Flows.stub x, stub_volume) :: entries)

(* Forecast demands for one side of the MA.  The partner's providers come
   first — access to providers is the headline MA case and the one that
   costs the transit party money — followed by the partner's peers in
   degree order. *)
let demands_for ~rng ~max_demands (v : Graph.view) ~beneficiary ~transit
    ~granted =
  let transit_providers = v.providers transit in
  let providers, peers =
    Asn.Set.partition (fun z -> Asn.Set.mem z transit_providers) granted
  in
  let by_degree set =
    Asn.Set.elements set
    |> List.map (fun z -> (v.degree z, z))
    |> List.sort (fun (d1, z1) (d2, z2) ->
           match compare d2 d1 with 0 -> Asn.compare z1 z2 | c -> c)
    |> List.map snd
  in
  let dests =
    by_degree providers @ by_degree peers
    |> List.filteri (fun i _ -> i < max_demands)
  in
  let providers = v.providers beneficiary in
  let reroute_from =
    if Asn.Set.is_empty providers then None
    else Some (Asn.Set.min_elt providers)
  in
  let provider_traffic = 4.0 *. sqrt (float_of_int (v.degree beneficiary)) in
  List.map
    (fun z ->
      let share = Rng.uniform rng 0.05 0.3 in
      let reroutable =
        if reroute_from = None then 0.0 else provider_traffic *. share
      in
      Traffic_model.
        {
          beneficiary;
          transit;
          dest = z;
          reroutable;
          reroute_from;
          attracted_max = reroutable *. Rng.uniform rng 0.2 0.8;
        })
    dests

let ma_scenario ~key ~seed ~rng ~max_demands v agreement =
  let x, y = Agreement.parties agreement in
  (* The compiler evaluates [@]'s operands right to left, so [y]'s side
     draws from [rng] first; the pinned results depend on that order. *)
  let demands =
    demands_for ~rng ~max_demands v ~beneficiary:x ~transit:y
      ~granted:(Agreement.accessible agreement ~to_:x)
    @ demands_for ~rng ~max_demands v ~beneficiary:y ~transit:x
        ~granted:(Agreement.accessible agreement ~to_:y)
  in
  Traffic_model.make_scenario_exn ~agreement
    ~businesses:
      [ (x, business_of ~key ~seed v x); (y, business_of ~key ~seed v y) ]
    ~baseline:[ (x, baseline_of v x); (y, baseline_of v y) ]
    ~demands

let fig1_peering_scenario ?(transit_price = 1.0) ?(stub_price = 2.0)
    ?(internal_rate = 0.1) () =
  let g = Gen.fig1 () in
  let asn c = Gen.fig1_asn c in
  let a = asn 'A'
  and b = asn 'B'
  and d = asn 'D'
  and e = asn 'E'
  and h = asn 'H'
  and i = asn 'I' in
  let transit = Pricing.per_usage ~unit_price:transit_price in
  let stub = Pricing.per_usage ~unit_price:stub_price in
  let business_d =
    Business.create ~asn:d
      ~internal_cost:(Cost.linear ~rate:internal_rate)
      ~provider_prices:[ (a, transit) ]
      ~customer_prices:[ (h, transit); (Flows.stub d, stub) ]
      ()
  in
  let business_e =
    Business.create ~asn:e
      ~internal_cost:(Cost.linear ~rate:internal_rate)
      ~provider_prices:[ (b, transit) ]
      ~customer_prices:[ (i, transit); (Flows.stub e, stub) ]
      ()
  in
  let baseline_d =
    Flows.of_list [ (a, 20.0); (e, 0.0); (h, 16.0); (Flows.stub d, 10.0) ]
  in
  let baseline_e =
    Flows.of_list [ (b, 18.0); (d, 0.0); (i, 14.0); (Flows.stub e, 10.0) ]
  in
  let agreement = Agreement.classic_peering g d e in
  let demands =
    Traffic_model.
      [
        (* D's traffic towards E's customer I moves off provider A onto
           the peering link (the f_DABE flows of Eq. 5). *)
        {
          beneficiary = d;
          transit = e;
          dest = i;
          reroutable = 5.0;
          reroute_from = Some a;
          attracted_max = 2.0;
        };
        (* and symmetrically for E towards D's customer H *)
        {
          beneficiary = e;
          transit = d;
          dest = h;
          reroutable = 4.0;
          reroute_from = Some b;
          attracted_max = 2.0;
        };
      ]
  in
  let scenario =
    Traffic_model.make_scenario_exn ~agreement
      ~businesses:[ (d, business_d); (e, business_e) ]
      ~baseline:[ (d, baseline_d); (e, baseline_e) ]
      ~demands
  in
  (g, scenario)
