open Pan_topology

type t = {
  asn : Asn.t;
  internal_cost : Cost.t;
  provider_prices : Pricing.t Asn.Map.t;
  customer_prices : Pricing.t Asn.Map.t;
}

let to_map name l =
  List.fold_left
    (fun acc (y, p) ->
      if Asn.Map.mem y acc then
        invalid_arg (Printf.sprintf "Business.create: duplicate %s" name);
      Asn.Map.add y p acc)
    Asn.Map.empty l

let create ~asn ?(internal_cost = Cost.zero) ?(provider_prices = [])
    ?(customer_prices = []) () =
  let providers = to_map "provider" provider_prices in
  let customers = to_map "customer" customer_prices in
  Asn.Map.iter
    (fun y _ ->
      if Asn.Map.mem y customers then
        invalid_arg "Business.create: AS is both provider and customer")
    providers;
  { asn; internal_cost; provider_prices = providers; customer_prices = customers }

let asn t = t.asn

let with_customer t y p =
  { t with customer_prices = Asn.Map.add y p t.customer_prices }

let with_provider t y p =
  { t with provider_prices = Asn.Map.add y p t.provider_prices }

let with_internal_cost t c = { t with internal_cost = c }

let revenue t flows =
  Asn.Map.fold
    (fun y pricing acc -> acc +. Pricing.charge pricing (Flows.flow_to flows y))
    t.customer_prices 0.0

let cost t flows =
  let provider_charges =
    Asn.Map.fold
      (fun y pricing acc ->
        acc +. Pricing.charge pricing (Flows.flow_to flows y))
      t.provider_prices 0.0
  in
  Cost.eval t.internal_cost (Flows.total flows) +. provider_charges

let utility t flows = revenue t flows -. cost t flows

let providers t = List.map fst (Asn.Map.bindings t.provider_prices)
let customers t = List.map fst (Asn.Map.bindings t.customer_prices)

let internal_cost t = t.internal_cost
let provider_pricing t = Asn.Map.bindings t.provider_prices
let customer_pricing t = Asn.Map.bindings t.customer_prices

let of_graph ?default_transit ?default_internal ?stub_price (v : Graph.view)
    x =
  let transit =
    match default_transit with
    | Some p -> p
    | None -> Pricing.per_usage ~unit_price:1.0
  in
  let internal =
    match default_internal with Some c -> c | None -> Cost.linear ~rate:0.1
  in
  let stub = match stub_price with Some p -> p | None -> transit in
  let provider_prices =
    Asn.Set.fold (fun y acc -> (y, transit) :: acc) (v.providers x) []
  in
  let customer_prices =
    Asn.Set.fold (fun y acc -> (y, transit) :: acc) (v.customers x) []
  in
  let customer_prices = (Flows.stub x, stub) :: customer_prices in
  create ~asn:x ~internal_cost:internal ~provider_prices ~customer_prices ()

let internal_cost_at t flows = Cost.eval t.internal_cost (Flows.total flows)

let provider_charges t flows =
  Asn.Map.fold
    (fun y pricing acc -> acc +. Pricing.charge pricing (Flows.flow_to flows y))
    t.provider_prices 0.0
