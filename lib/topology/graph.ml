type relationship = Provider | Peer | Customer

type t = {
  providers : (Asn.t, Asn.Set.t) Hashtbl.t;
  peers : (Asn.t, Asn.Set.t) Hashtbl.t;
  customers : (Asn.t, Asn.Set.t) Hashtbl.t;
  mutable known : Asn.Set.t;
  mutable n_p2c : int;
  mutable n_p2p : int;
}

let create () =
  {
    providers = Hashtbl.create 1024;
    peers = Hashtbl.create 1024;
    customers = Hashtbl.create 1024;
    known = Asn.Set.empty;
    n_p2c = 0;
    n_p2p = 0;
  }

let get tbl x =
  match Hashtbl.find_opt tbl x with Some s -> s | None -> Asn.Set.empty

let add_to tbl x y = Hashtbl.replace tbl x (Asn.Set.add y (get tbl x))

let add_as g x = g.known <- Asn.Set.add x g.known

let mem g x = Asn.Set.mem x g.known

let relationship g x y =
  if Asn.Set.mem y (get g.providers x) then Some Provider
  else if Asn.Set.mem y (get g.peers x) then Some Peer
  else if Asn.Set.mem y (get g.customers x) then Some Customer
  else None

let connected g x y = relationship g x y <> None

let check_link name g x y expected =
  if Asn.equal x y then
    invalid_arg (Printf.sprintf "Graph.%s: self-link on AS%d" name
                   (Asn.to_int x));
  match relationship g x y with
  | None -> `Absent
  | Some r when r = expected -> `Already
  | Some _ ->
      invalid_arg
        (Printf.sprintf "Graph.%s: AS%d and AS%d already related differently"
           name (Asn.to_int x) (Asn.to_int y))

let add_provider_customer g ~provider ~customer =
  match check_link "add_provider_customer" g customer provider Provider with
  | `Already -> ()
  | `Absent ->
      add_as g provider;
      add_as g customer;
      add_to g.providers customer provider;
      add_to g.customers provider customer;
      g.n_p2c <- g.n_p2c + 1

let add_peering g x y =
  match check_link "add_peering" g x y Peer with
  | `Already -> ()
  | `Absent ->
      add_as g x;
      add_as g y;
      add_to g.peers x y;
      add_to g.peers y x;
      g.n_p2p <- g.n_p2p + 1

let remove_from tbl x y =
  let s = Asn.Set.remove y (get tbl x) in
  if Asn.Set.is_empty s then Hashtbl.remove tbl x else Hashtbl.replace tbl x s

let remove_peering g x y =
  match relationship g x y with
  | Some Peer ->
      remove_from g.peers x y;
      remove_from g.peers y x;
      g.n_p2p <- g.n_p2p - 1
  | _ ->
      invalid_arg
        (Printf.sprintf "Graph.remove_peering: AS%d and AS%d are not peers"
           (Asn.to_int x) (Asn.to_int y))

let remove_provider_customer g ~provider ~customer =
  match relationship g customer provider with
  | Some Provider ->
      remove_from g.providers customer provider;
      remove_from g.customers provider customer;
      g.n_p2c <- g.n_p2c - 1
  | _ ->
      invalid_arg
        (Printf.sprintf
           "Graph.remove_provider_customer: AS%d is not a provider of AS%d"
           (Asn.to_int provider) (Asn.to_int customer))

let num_ases g = Asn.Set.cardinal g.known
let num_provider_customer_links g = g.n_p2c
let num_peering_links g = g.n_p2p
let ases g = Asn.Set.elements g.known
let providers g x = get g.providers x
let peers g x = get g.peers x
let customers g x = get g.customers x

let neighbors g x =
  Asn.Set.union (get g.providers x)
    (Asn.Set.union (get g.peers x) (get g.customers x))

let degree g x =
  Asn.Set.cardinal (get g.providers x)
  + Asn.Set.cardinal (get g.peers x)
  + Asn.Set.cardinal (get g.customers x)

(* Both folds iterate the known-AS set, not the hash tables: Hashtbl.fold
   visits bindings in an unspecified order, which leaked into everything
   downstream that threads an RNG through a fold (e.g. Geo link jitter).
   Folding the sorted AS set makes the order a stable part of the
   contract: ASes ascending, then neighbors ascending. *)
let fold_peering_links f g init =
  Asn.Set.fold
    (fun x acc ->
      Asn.Set.fold
        (fun y acc -> if Asn.compare x y < 0 then f x y acc else acc)
        (get g.peers x) acc)
    g.known init

let fold_provider_customer_links f g init =
  Asn.Set.fold
    (fun provider acc ->
      Asn.Set.fold
        (fun customer acc -> f ~provider ~customer acc)
        (get g.customers provider)
        acc)
    g.known init

type view = {
  providers : Asn.t -> Asn.Set.t;
  peers : Asn.t -> Asn.Set.t;
  customers : Asn.t -> Asn.Set.t;
  degree : Asn.t -> int;
}

let view g =
  {
    providers = providers g;
    peers = peers g;
    customers = customers g;
    degree = degree g;
  }

let pp_stats fmt g =
  Format.fprintf fmt "%d ASes, %d provider-customer links, %d peering links"
    (num_ases g) g.n_p2c g.n_p2p
