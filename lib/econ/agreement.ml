open Pan_topology

type grant = {
  providers : Asn.Set.t;
  peers : Asn.Set.t;
  customers : Asn.Set.t;
}

let empty_grant =
  { providers = Asn.Set.empty; peers = Asn.Set.empty; customers = Asn.Set.empty }

let grant_all g = Asn.Set.union g.providers (Asn.Set.union g.peers g.customers)

type t = { x : Asn.t; y : Asn.t; x_grant : grant; y_grant : grant }

let check_grant (v : Graph.view) party grant =
  let sub name offered actual =
    if not (Asn.Set.subset offered actual) then
      Error
        (Printf.sprintf "AS%d offers %s it does not have" (Asn.to_int party)
           name)
    else Ok ()
  in
  match sub "providers" grant.providers (v.providers party) with
  | Error _ as e -> e
  | Ok () -> (
      match sub "peers" grant.peers (v.peers party) with
      | Error _ as e -> e
      | Ok () -> sub "customers" grant.customers (v.customers party))

let make v ~x ~y ~x_grant ~y_grant =
  if Asn.equal x y then Error "agreement parties must differ"
  else
    match (check_grant v x x_grant, check_grant v y y_grant) with
    | Error e, _ | _, Error e -> Error e
    | Ok (), Ok () -> Ok { x; y; x_grant; y_grant }

let make_exn v ~x ~y ~x_grant ~y_grant =
  match make v ~x ~y ~x_grant ~y_grant with
  | Ok t -> t
  | Error msg -> invalid_arg ("Agreement.make_exn: " ^ msg)

let ma_grant (v : Graph.view) p ~other =
  let excluded = Asn.Set.add other (v.customers other) in
  {
    empty_grant with
    providers = Asn.Set.diff (v.providers p) excluded;
    peers = Asn.Set.diff (v.peers p) excluded;
  }

let parties t = (t.x, t.y)

let counterparty t p =
  if Asn.equal p t.x then t.y
  else if Asn.equal p t.y then t.x
  else invalid_arg "Agreement.counterparty: not a party"

let grant_of t p =
  if Asn.equal p t.x then t.x_grant
  else if Asn.equal p t.y then t.y_grant
  else invalid_arg "Agreement.grant_of: not a party"

let accessible t ~to_ = grant_all (grant_of t (counterparty t to_))

let violates_grc t =
  let nonempty g =
    not (Asn.Set.is_empty g.providers && Asn.Set.is_empty g.peers)
  in
  nonempty t.x_grant || nonempty t.y_grant

let classic_peering g x y =
  let grant_for p =
    { empty_grant with customers = Graph.customers g p }
  in
  make_exn (Graph.view g) ~x ~y ~x_grant:(grant_for x) ~y_grant:(grant_for y)

let mutuality g x y =
  (match Graph.relationship g x y with
  | Some Graph.Peer -> ()
  | _ -> invalid_arg "Agreement.mutuality: parties are not peers");
  let v = Graph.view g in
  make_exn v ~x ~y ~x_grant:(ma_grant v x ~other:y)
    ~y_grant:(ma_grant v y ~other:x)

let paper_example g =
  let a c = Gen.fig1_asn c in
  make_exn (Graph.view g) ~x:(a 'D') ~y:(a 'E')
    ~x_grant:{ empty_grant with providers = Asn.Set.singleton (a 'A') }
    ~y_grant:
      {
        empty_grant with
        providers = Asn.Set.singleton (a 'B');
        peers = Asn.Set.singleton (a 'F');
      }

let pp fmt t =
  let pp_set fmt s =
    Format.pp_print_list
      ~pp_sep:(fun fmt () -> Format.pp_print_string fmt ",")
      Asn.pp fmt (Asn.Set.elements s)
  in
  let pp_side fmt (p, g) =
    Format.fprintf fmt "%a(↑{%a}, →{%a}, ↓{%a})" Asn.pp p pp_set g.providers
      pp_set g.peers pp_set g.customers
  in
  Format.fprintf fmt "[%a; %a]" pp_side (t.x, t.x_grant) pp_side
    (t.y, t.y_grant)
