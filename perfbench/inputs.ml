(* Workload definitions and their input generator.  Inputs are a pure
   function of (workload, seed) and are written to files; the measuring
   process reads only those files. *)

open Pan_numerics
open Pan_topology
module Stream = Pan_service.Stream
module Market = Pan_market.Market

type workload = Serve_zipf | Serve_intent | Market

let workloads =
  [ ("serve-zipf", Serve_zipf); ("serve-intent", Serve_intent); ("market", Market) ]

(* Transit and stub AS counts; the generator adds 12 tier-1 ASes, so the
   totals are 10k, 3.2k and 1k. *)
let size = function
  | Serve_zipf -> (500, 9488)
  | Serve_intent -> (200, 2988)
  | Market -> (60, 928)

(* Stream shape of a serve workload: [requests] items in [phases] equal
   phases.  Every [1/churn]-th item is a churn event; the others query
   one of the phase's own [population] fixed endpoint pairs, drawn
   Zipf([zipf_s]) by rank.  The few hottest pairs of a population decide
   the median hit latency (their hash buckets, their path sets) and much
   of the miss cost, so a stream draws several populations rather than
   one.  serve-zipf, whose drains are short, draws eight. *)
type shape = { requests : int; phases : int; churn : float; population : int }

let zipf_s = 1.0

let shape = function
  | Serve_zipf ->
      Some { requests = 32000; phases = 8; churn = 0.005; population = 1000 }
  | Serve_intent ->
      Some { requests = 1200; phases = 4; churn = 0.02; population = 40 }
  | Market -> None

let intent = Pan_intent.Intent.parse_exn "metric=nlatency+nbandwidth; k=8"

(* A market run negotiates [market_instances] independent markets, one
   per market seed drawn from the run's seed: the per-AS business draws
   decide which candidates are viable (from 30% to 57% of them between
   single seeds), and BOSCO negotiates only the viable ones. *)
let market_instances = 8

let market_config ~seed =
  { Market.default with Market.epochs = 3; w = 24; max_candidates = 256; seed }

let topo_file dir = Filename.concat dir "topo.snap"
let stream_file dir = Filename.concat dir "stream.txt"
let seed_file dir = Filename.concat dir "seeds"

let rng ~seed label = Rng.create (Hashtbl.hash (seed, label))

(* Each workload runs on one fixed synthetic graph, and a serve workload
   on one fixed pair population; the seed draws the traffic on them (the
   query sequence and the churned links) and the market's negotiation
   randomness.  Drawing the graph too would make every metric a lottery
   over hub placement: on serve-zipf the peak heap spread by 39%
   (IQR/median) over five graph seeds.  Drawing the population made the
   live heap of serve-zipf spread by 17% over five seeds, against 0 for
   five runs of one seed. *)
let fixed_seed = 42

(* Cumulative Zipf weights over ranks 1..n. *)
let zipf_cdf n s =
  let w = Array.init n (fun r -> 1.0 /. (float_of_int (r + 1) ** s)) in
  let total = Array.fold_left ( +. ) 0.0 w in
  let acc = ref 0.0 in
  Array.map
    (fun x ->
      acc := !acc +. (x /. total);
      !acc)
    w

let zipf_draw cdf rng =
  let u = Rng.float rng in
  let lo = ref 0 and hi = ref (Array.length cdf - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if cdf.(mid) < u then lo := mid + 1 else hi := mid
  done;
  !lo

(* The [shared_links] links that the intent paths of most of a phase's
   [hot_pairs] hottest pairs use, as indices into [links]: with the
   graph as generated, these are the paths the intent store caches for
   them, so a link-down of one drops several entries. *)
let hot_pairs = 10
let shared_links = 8

let hot_links topo intent link_index pairs =
  let mask = Pan_intent.Candidates.mask_of_intent topo intent in
  let uses = Hashtbl.create 64 in
  Array.iter
    (fun (src, dst, _) ->
      let src = Compact.index_of_exn topo src
      and dst = Compact.index_of_exn topo dst in
      let used = Hashtbl.create 16 in
      let rec hops = function
        | a :: (b :: _ as rest) ->
            Option.iter
              (fun k -> Hashtbl.replace used k ())
              (Hashtbl.find_opt link_index (min a b, max a b));
            hops rest
        | _ -> ()
      in
      List.iter hops
        (Pan_intent.Candidates.k_shortest topo ~mask
           ?max_hops:intent.Pan_intent.Intent.max_hops ~src ~dst
           ~k:intent.Pan_intent.Intent.k ());
      Hashtbl.iter
        (fun k () ->
          Hashtbl.replace uses k
            (1 + Option.value ~default:0 (Hashtbl.find_opt uses k)))
        used)
    pairs;
  Hashtbl.fold (fun k n l -> (-n, k) :: l) uses []
  |> List.sort compare
  |> List.filteri (fun i _ -> i < shared_links)
  |> List.map snd |> Array.of_list

(* Churn runs at a fixed cadence: every [1/churn]-th item is an event,
   alternately the link-down of an up link and the link-up of a random
   downed one, so every seed sees the same number of events of each kind
   and every event is applicable in sequence.  A link-down picks a random
   link; on an intent stream every other one picks one of the current
   phase's [hot_links] while one is up, so that link-downs invalidate
   cached intent answers.  The other items are queries for
   the current phase's pair population. *)
let serve_stream ~seed ~intent topo sh =
  let n = Compact.num_ases topo in
  let prng = rng ~seed:fixed_seed "population" in
  let policies =
    [| Path_enum.Grc; Path_enum.Ma_all; Path_enum.Ma_direct_only;
       Path_enum.Ma_top 3 |]
  in
  let population =
    Array.init (sh.phases * sh.population) (fun _ ->
        let src = Rng.int prng n in
        let dst = (src + 1 + Rng.int prng (n - 1)) mod n in
        (Compact.id topo src, Compact.id topo dst, Rng.choose prng policies))
  in
  let cdf = zipf_cdf sh.population zipf_s in
  let links = ref [] in
  Compact.iter_peering_links topo (fun i j ->
      links := ((i, j), Stream.Peer (Compact.id topo i, Compact.id topo j)) :: !links);
  Compact.iter_provider_customer_links topo (fun ~provider ~customer ->
      links :=
        ( (provider, customer),
          Stream.Transit
            { provider = Compact.id topo provider; customer = Compact.id topo customer } )
        :: !links);
  let ends, links = Array.split (Array.of_list (List.rev !links)) in
  let hot =
    match intent with
    | None -> Array.make sh.phases [||]
    | Some intent ->
        let link_index = Hashtbl.create (Array.length ends) in
        Array.iteri (fun k (a, b) -> Hashtbl.replace link_index (min a b, max a b) k) ends;
        Array.init sh.phases (fun p ->
            hot_links topo intent link_index
              (Array.sub population (p * sh.population) hot_pairs))
  in
  let is_up = Array.make (Array.length links) true in
  let downed = ref [] in
  let every = int_of_float (Float.round (1.0 /. sh.churn)) in
  let qrng = rng ~seed "queries" and crng = rng ~seed "churn" in
  let item i =
    let phase = i * sh.phases / sh.requests in
    let event = (i + 1) / every in
    if (i + 1) mod every <> 0 then
      let src, dst, policy =
        population.((phase * sh.population) + zipf_draw cdf qrng)
      in
      match intent with
      | None -> Stream.Query { src; dst; policy }
      | Some intent -> Stream.Intent_query { src; dst; intent }
    else if event mod 2 = 1 then begin
      let up_hot = List.filter (fun k -> is_up.(k)) (Array.to_list hot.(phase)) in
      let k =
        if event / 2 mod 2 = 0 && up_hot <> [] then
          List.nth up_hot (Rng.int crng (List.length up_hot))
        else begin
          let k = ref (Rng.int crng (Array.length links)) in
          while not is_up.(!k) do
            k := Rng.int crng (Array.length links)
          done;
          !k
        end
      in
      is_up.(k) <- false;
      downed := k :: !downed;
      Stream.Down links.(k)
    end
    else begin
      let pick = Rng.int crng (List.length !downed) in
      let k = List.nth !downed pick in
      downed := List.filteri (fun i _ -> i <> pick) !downed;
      is_up.(k) <- true;
      Stream.Up links.(k)
    end
  in
  let rec build i acc =
    if i = sh.requests then List.rev acc else build (i + 1) (item i :: acc)
  in
  build 0 []


(* The market graph has no route-server hubs: with the generator's six,
   one hub AS sits in nearly every top-gain candidate pair, and its
   business draw alone made 37 to 463 of 512 candidates viable. *)
let params w =
  let n_transit, n_stub = size w in
  let p = { Gen.default_params with Gen.n_transit; n_stub } in
  if w = Market then { p with Gen.route_server_hubs = 0 } else p

let generate w ~seed ~dir =
  let topo =
    Compact.freeze
      (Gen.graph (Gen.generate ~params:(params w) ~seed:fixed_seed ()))
  in
  Compact.Snapshot.save (topo_file dir) topo;
  match shape w with
  | None ->
      Out_channel.with_open_text (seed_file dir) (fun oc ->
          for i = 0 to market_instances - 1 do
            Printf.fprintf oc "%d\n" ((market_instances * seed) + i)
          done)
  | Some sh ->
      let intent = if w = Serve_intent then Some intent else None in
      let stream = serve_stream ~seed ~intent topo sh in
      Out_channel.with_open_text (stream_file dir) (fun oc ->
          output_string oc (Stream.to_string stream))

let load_seeds dir =
  In_channel.with_open_text (seed_file dir) In_channel.input_all
  |> String.split_on_char '\n'
  |> List.filter_map (fun l -> int_of_string_opt (String.trim l))
