open Pan_numerics
open Pan_topology
module Intent = Pan_intent.Intent

type link =
  | Peer of Asn.t * Asn.t
  | Transit of { provider : Asn.t; customer : Asn.t }

type query = { src : Asn.t; dst : Asn.t; policy : Path_enum.scenario }

type item =
  | Query of query
  | Intent_query of { src : Asn.t; dst : Asn.t; intent : Intent.t }
  | Up of link
  | Down of link

type t = item list

let policy_label = function
  | Path_enum.Grc -> "grc"
  | Path_enum.Ma_all -> "ma-all"
  | Path_enum.Ma_direct_only -> "ma-direct"
  | Path_enum.Ma_top n -> Printf.sprintf "ma-top:%d" n

let policy_of_label = function
  | "grc" -> Some Path_enum.Grc
  | "ma-all" -> Some Path_enum.Ma_all
  | "ma-direct" -> Some Path_enum.Ma_direct_only
  | s -> (
      match String.index_opt s ':' with
      | Some i when String.sub s 0 i = "ma-top" ->
          Decimal.nat_of_string_opt
            (String.sub s (i + 1) (String.length s - i - 1))
          |> Option.map (fun n -> Path_enum.Ma_top n)
      | _ -> None)

let pp_asn x = Printf.sprintf "AS%d" (Asn.to_int x)

let link_to_string = function
  | Peer (a, b) -> Printf.sprintf "peer %s %s" (pp_asn a) (pp_asn b)
  | Transit { provider; customer } ->
      Printf.sprintf "transit %s %s" (pp_asn provider) (pp_asn customer)

let item_to_string = function
  | Query { src; dst; policy } ->
      Printf.sprintf "query %s %s %s" (pp_asn src) (pp_asn dst)
        (policy_label policy)
  | Intent_query { src; dst; intent } ->
      Printf.sprintf "intent %s %s %s" (pp_asn src) (pp_asn dst)
        (Intent.to_string intent)
  | Up l -> "up " ^ link_to_string l
  | Down l -> "down " ^ link_to_string l

let to_string items =
  String.concat "" (List.map (fun i -> item_to_string i ^ "\n") items)

(* ------------------------------------------------------------------ *)
(* Parsing                                                             *)

let err line fmt =
  Printf.ksprintf
    (fun msg -> invalid_arg (Printf.sprintf "Stream.parse: line %d: %s" line msg))
    fmt

let parse_asn line tok =
  let fail () = err line "expected an AS number like AS42, got %S" tok in
  if String.length tok < 3 || not (String.sub tok 0 2 = "AS") then fail ();
  match
    Decimal.nat_of_string_opt (String.sub tok 2 (String.length tok - 2))
  with
  | Some n -> Asn.of_int n
  | None -> fail ()

(* A link or an intent names two distinct ASes; a query from an AS to
   itself is valid and answers "no paths". *)
let parse_pair line what a b =
  let a = parse_asn line a in
  let b = parse_asn line b in
  if Asn.equal a b then err line "%s from %s to itself" what (pp_asn a);
  (a, b)

let parse_link line = function
  | [ "peer"; a; b ] ->
      let a, b = parse_pair line "peering link" a b in
      Peer (a, b)
  | [ "transit"; p; c ] ->
      let provider, customer = parse_pair line "transit link" p c in
      Transit { provider; customer }
  | kind :: _ when kind <> "peer" && kind <> "transit" ->
      err line "unknown link kind %S (expected peer or transit)" kind
  | toks -> err line "expected <kind> <AS> <AS>, got %d token(s)" (List.length toks)

(* The intent verb keeps the raw line: its spec tail is free-form (it
   contains spaces and [;]), and parse errors from [Intent.parse_located]
   are re-anchored to 1-based columns of the stream line itself. *)
let parse_intent lineno l =
  let n = String.length l in
  let is_ws c = c = ' ' || c = '\t' || c = '\r' in
  let skip_ws i =
    let i = ref i in
    while !i < n && is_ws l.[!i] do
      incr i
    done;
    !i
  in
  let token i =
    let j = ref i in
    while !j < n && not (is_ws l.[!j]) do
      incr j
    done;
    (String.sub l i (!j - i), !j)
  in
  let i = skip_ws 0 in
  let verb, i = token i in
  assert (verb = "intent");
  let i = skip_ws i in
  let src, i = token i in
  let i = skip_ws i in
  let dst, i = token i in
  let spec_start = skip_ws i in
  let spec_stop =
    let j = ref n in
    while !j > spec_start && is_ws l.[!j - 1] do
      decr j
    done;
    !j
  in
  if src = "" || dst = "" || spec_stop = spec_start then
    err lineno "intent takes <src> <dst> <intent-spec>";
  let spec = String.sub l spec_start (spec_stop - spec_start) in
  match Intent.parse_located spec with
  | Ok intent ->
      let src, dst = parse_pair lineno "intent" src dst in
      Intent_query { src; dst; intent }
  | Error (_, col, msg) ->
      err lineno "intent spec (col %d): %s" (spec_start + col) msg

let parse_line lineno l =
  let l =
    match String.index_opt l '#' with
    | Some i -> String.sub l 0 i
    | None -> l
  in
  match
    String.split_on_char ' ' (String.trim l)
    |> List.filter (fun s -> s <> "")
  with
  | [] -> None
  | [ "query"; src; dst; policy ] -> (
      match policy_of_label policy with
      | Some p ->
          Some
            (Query
               { src = parse_asn lineno src; dst = parse_asn lineno dst; policy = p })
      | None ->
          err lineno
            "unknown policy %S (expected grc, ma-all, ma-direct or ma-top:N)"
            policy)
  | "query" :: toks ->
      err lineno "query takes <src> <dst> <policy>, got %d token(s)"
        (List.length toks)
  | "intent" :: _ -> Some (parse_intent lineno l)
  | "up" :: rest -> Some (Up (parse_link lineno rest))
  | "down" :: rest -> Some (Down (parse_link lineno rest))
  | verb :: _ ->
      err lineno "unknown item %S (expected query, intent, up or down)" verb

let parse s =
  String.split_on_char '\n' s
  |> List.mapi (fun i l -> parse_line (i + 1) l)
  |> List.filter_map Fun.id

let load file = parse (In_channel.with_open_text file In_channel.input_all)

(* ------------------------------------------------------------------ *)
(* Generation                                                          *)

(* Indexed link with live up/down state.  Picking an up link uses
   rejection sampling over the full link array — at realistic churn the
   downed fraction stays tiny, so the expected number of draws is ~1. *)
let generate ?intent ~rng ~topo ~requests ~churn () =
  if requests < 0 then invalid_arg "Stream.generate: requests < 0";
  let churn = Float.max 0.0 (Float.min 1.0 churn) in
  let n = Compact.num_ases topo in
  if n < 2 then
    invalid_arg "Stream.generate: topology needs at least 2 ASes";
  let links = ref [] in
  Compact.iter_peering_links topo (fun i j ->
      links := Peer (Compact.id topo i, Compact.id topo j) :: !links);
  Compact.iter_provider_customer_links topo (fun ~provider ~customer ->
      links :=
        Transit
          { provider = Compact.id topo provider;
            customer = Compact.id topo customer }
        :: !links);
  let links = Array.of_list (List.rev !links) in
  let n_links = Array.length links in
  if churn > 0.0 && n_links = 0 then
    invalid_arg "Stream.generate: topology has no links to churn";
  let up = Array.make n_links true in
  (* downed link indices, swap-removed on re-up *)
  let down = Array.make n_links 0 in
  let n_down = ref 0 in
  let pick_up () =
    let k = ref (Rng.int rng n_links) in
    while not up.(!k) do
      k := Rng.int rng n_links
    done;
    !k
  in
  let policies =
    [| Path_enum.Grc; Path_enum.Ma_all; Path_enum.Ma_direct_only;
       Path_enum.Ma_top 3 |]
  in
  let item _ =
    if churn > 0.0 && Rng.float rng < churn then
      if !n_down > 0 && (!n_down = n_links || Rng.bool rng) then (
        (* re-up a random downed link *)
        let slot = Rng.int rng !n_down in
        let k = down.(slot) in
        decr n_down;
        down.(slot) <- down.(!n_down);
        up.(k) <- true;
        Up links.(k))
      else
        let k = pick_up () in
        up.(k) <- false;
        down.(!n_down) <- k;
        incr n_down;
        Down links.(k)
    else
      let src = Rng.int rng n in
      let dst = (src + 1 + Rng.int rng (n - 1)) mod n in
      let src = Compact.id topo src and dst = Compact.id topo dst in
      match intent with
      | None -> Query { src; dst; policy = Rng.choose rng policies }
      | Some intent -> Intent_query { src; dst; intent }
  in
  (* explicit recursion: List.init's evaluation order is unspecified,
     and item advances the rng *)
  let rec build k acc =
    if k = requests then List.rev acc else build (k + 1) (item k :: acc)
  in
  build 0 []
