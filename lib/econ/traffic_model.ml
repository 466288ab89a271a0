open Pan_topology

type segment_demand = {
  beneficiary : Asn.t;
  transit : Asn.t;
  dest : Asn.t;
  reroutable : float;
  reroute_from : Asn.t option;
  attracted_max : float;
}

type scenario = {
  agreement : Agreement.t;
  businesses : Business.t Asn.Map.t;
  baseline : Flows.t Asn.Map.t;
  demands : segment_demand list;
}

let validate_demand agreement d =
  let x, y = Agreement.parties agreement in
  let party_pair_ok =
    (Asn.equal d.beneficiary x && Asn.equal d.transit y)
    || (Asn.equal d.beneficiary y && Asn.equal d.transit x)
  in
  if not party_pair_ok then
    Error "demand beneficiary/transit must be the agreement parties"
  else if d.reroutable < 0.0 || d.attracted_max < 0.0 then
    Error "negative demand volume"
  else if
    not (Asn.Set.mem d.dest (Agreement.accessible agreement ~to_:d.beneficiary))
  then
    Error
      (Printf.sprintf "AS%d is not granted access to AS%d"
         (Asn.to_int d.beneficiary) (Asn.to_int d.dest))
  else Ok ()

let pair_map name agreement l =
  let x, y = Agreement.parties agreement in
  let m =
    List.fold_left (fun acc (p, v) -> Asn.Map.add p v acc) Asn.Map.empty l
  in
  if
    Asn.Map.cardinal m = 2 && Asn.Map.mem x m && Asn.Map.mem y m
    && List.length l = 2
  then Ok m
  else Error (Printf.sprintf "%s must be given for exactly both parties" name)

let make_scenario ~agreement ~businesses ~baseline ~demands =
  match
    ( pair_map "businesses" agreement businesses,
      pair_map "baseline" agreement baseline )
  with
  | Error e, _ | _, Error e -> Error e
  | Ok businesses, Ok baseline -> (
      let rec check = function
        | [] -> Ok { agreement; businesses; baseline; demands }
        | d :: rest -> (
            match validate_demand agreement d with
            | Error e -> Error e
            | Ok () -> check rest)
      in
      check demands)

let make_scenario_exn ~agreement ~businesses ~baseline ~demands =
  match make_scenario ~agreement ~businesses ~baseline ~demands with
  | Ok s -> s
  | Error e -> invalid_arg ("Traffic_model.make_scenario_exn: " ^ e)

let agreement s = s.agreement
let demands s = s.demands

let baseline_flows s p =
  match Asn.Map.find_opt p s.baseline with
  | Some f -> f
  | None -> invalid_arg "Traffic_model.baseline_flows: not a party"

let business s p =
  match Asn.Map.find_opt p s.businesses with
  | Some b -> b
  | None -> invalid_arg "Traffic_model.business: not a party"

type choice = { reroute : float; attracted : float }

let full_choice s =
  List.map
    (fun d -> { reroute = d.reroutable; attracted = d.attracted_max })
    s.demands

let zero_choice s =
  List.map (fun _ -> { reroute = 0.0; attracted = 0.0 }) s.demands

let allowance c = c.reroute +. c.attracted

let apply_segment flows d c =
  let volume = allowance c in
  let update party f =
    if Asn.equal party d.beneficiary then
      let f = Flows.add f d.transit volume in
      let f = Flows.add f (Flows.stub d.beneficiary) c.attracted in
      match d.reroute_from with
      | Some provider -> Flows.add f provider (-.c.reroute)
      | None -> f
    else if Asn.equal party d.transit then
      let f = Flows.add f d.beneficiary volume in
      Flows.add f d.dest volume
    else f
  in
  Asn.Map.mapi update flows

let apply s choices =
  if List.length choices <> List.length s.demands then
    Error "choice list length mismatch"
  else
    let rec check ds cs =
      match (ds, cs) with
      | [], [] -> Ok ()
      | d :: ds, c :: cs ->
          if c.reroute < -1e-9 || c.attracted < -1e-9 then
            Error "negative choice volume"
          else if c.reroute > d.reroutable +. 1e-9 then
            Error "reroute exceeds reroutable volume"
          else if c.attracted > d.attracted_max +. 1e-9 then
            Error "attracted exceeds demand ceiling"
          else check ds cs
      | _ -> assert false
    in
    match check s.demands choices with
    | Error e -> Error e
    | Ok () ->
        let final =
          List.fold_left2 apply_segment s.baseline s.demands choices
        in
        let x, y = Agreement.parties s.agreement in
        Ok (Asn.Map.find x final, Asn.Map.find y final)

let utilities s choices =
  match apply s choices with
  | Error e -> Error e
  | Ok (fx, fy) ->
      let x, y = Agreement.parties s.agreement in
      let bx = business s x and by = business s y in
      let ux =
        Business.utility bx fx -. Business.utility bx (baseline_flows s x)
      in
      let uy =
        Business.utility by fy -. Business.utility by (baseline_flows s y)
      in
      Ok (ux, uy)

let utilities_exn s choices =
  match utilities s choices with
  | Ok r -> r
  | Error e -> invalid_arg ("Traffic_model.utilities_exn: " ^ e)
