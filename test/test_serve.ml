(* Churn-equivalence suite for the resident path-query service
   (lib/service) and the incremental freeze (Compact.Delta).

   The headline properties: after ANY random sequence of link up/down
   events, (1) the incrementally-updated frozen core is byte-identical
   to a from-scratch Compact.freeze of the equivalently-mutated Graph —
   checked after every single event, not just at the end — and (2) the
   memoized per-pair path store answers every query identically to an
   unmemoized recompute, interleaved with churn.  Together they are the
   license for a resident service to never re-freeze and never recompute
   a warm pair. *)

open Pan_numerics
open Pan_topology
open Pan_service

let asn = Asn.of_int

let gen_graph ?(n_transit = 8) ?(n_stub = 30) seed =
  let params = { Gen.default_params with Gen.n_transit; Gen.n_stub } in
  Gen.graph (Gen.generate ~params ~seed ())

let frozen_equal a b =
  String.equal (Compact.Snapshot.to_string a) (Compact.Snapshot.to_string b)

let policies =
  [ Path_enum.Grc; Path_enum.Ma_all; Path_enum.Ma_direct_only;
    Path_enum.Ma_top 2 ]

(* Apply a stream churn item to a mutable Graph — the independent
   mutation path the incremental core is checked against. *)
let apply_to_graph g = function
  | Stream.Up (Stream.Peer (a, b)) -> Graph.add_peering g a b
  | Stream.Down (Stream.Peer (a, b)) -> Graph.remove_peering g a b
  | Stream.Up (Stream.Transit { provider; customer }) ->
      Graph.add_provider_customer g ~provider ~customer
  | Stream.Down (Stream.Transit { provider; customer }) ->
      Graph.remove_provider_customer g ~provider ~customer
  | Stream.Query _ | Stream.Intent_query _ ->
      invalid_arg "apply_to_graph: query"

(* The whole-source enumeration filtered to one destination: the
   reference every per-pair answer is checked against. *)
let scenario_answer topo ~src ~dst ~policy =
  let acc = ref [] in
  Path_enum_compact.iter_sets
    (fun mid dsts -> if Bitset.mem dsts dst then acc := mid :: !acc)
    (Path_enum_compact.scenario_paths topo policy src);
  List.rev !acc

(* An all-events stream is exactly what churn probability 1 generates,
   and the generator guarantees each event is applicable in order. *)
let gen_events ~seed ~topo n =
  Stream.generate ~rng:(Rng.create seed) ~topo ~requests:n ~churn:1.0 ()

(* ------------------------------------------------------------------ *)
(* Headline 1: incremental freeze = full re-freeze, after every event   *)

let qcheck_churn_equivalence =
  QCheck.Test.make ~count:12
    ~name:"churn: incremental core = refreeze engine = freeze of mutated graph"
    QCheck.(pair (int_range 1 10_000) (int_range 1 40))
    (fun (seed, n_events) ->
      let g = gen_graph seed in
      let topo = Compact.freeze g in
      let events = gen_events ~seed:(seed + 1) ~topo n_events in
      let inc = Engine.create ~mode:Engine.Incremental topo in
      let orc = Engine.create ~mode:Engine.Refreeze topo in
      let mirror = Compact.thaw topo in
      let n = Compact.num_ases topo in
      (* Pairs asked after every event, so later answers come from a
         store the earlier events invalidated. *)
      let watched =
        let rng = Rng.create (seed + 3) in
        List.init 6 (fun _ ->
            let src = Rng.int rng n in
            (src, (src + 1 + Rng.int rng (n - 1)) mod n))
      in
      let matches_reference e ~src ~dst ~policy =
        Engine.query e ~src ~dst ~policy
        = scenario_answer (Engine.topology e) ~src ~dst ~policy
      in
      List.for_all
        (fun item ->
          let ev = Serve.event_of_item topo item in
          ignore (Engine.apply inc ev : int);
          ignore (Engine.apply orc ev : int);
          apply_to_graph mirror item;
          frozen_equal (Engine.topology inc) (Engine.topology orc)
          && frozen_equal (Engine.topology inc) (Compact.freeze mirror)
          && List.for_all
               (fun policy ->
                 List.for_all
                   (fun (src, dst) -> matches_reference inc ~src ~dst ~policy)
                   watched)
               policies)
        events
      &&
      (* ... and the churned engine answers every sampled query exactly
         like a cold engine built on the mutated graph, and like the
         whole-source enumeration on it. *)
      let cold = Engine.create (Compact.freeze mirror) in
      let rng = Rng.create (seed + 2) in
      List.for_all
        (fun policy ->
          List.for_all
            (fun _ ->
              let src = Rng.int rng n in
              let dst = (src + 1 + Rng.int rng (n - 1)) mod n in
              Engine.query inc ~src ~dst ~policy
              = Engine.query cold ~src ~dst ~policy
              && matches_reference cold ~src ~dst ~policy)
            [ (); (); (); (); (); (); (); () ])
        policies)

(* ------------------------------------------------------------------ *)
(* Headline 2: memoized store = unmemoized recompute, under churn       *)

let qcheck_store_equivalence =
  QCheck.Test.make ~count:12
    ~name:"store: memoized = unmemoized, interleaved with churn"
    QCheck.(int_range 1 10_000)
    (fun seed ->
      let topo = Compact.freeze (gen_graph seed) in
      let stream =
        Stream.generate ~rng:(Rng.create (seed + 1)) ~topo ~requests:80
          ~churn:0.3 ()
      in
      let e = Engine.create topo in
      List.for_all
        (fun item ->
          match item with
          | Stream.Query { src; dst; policy } ->
              let src = Compact.index_of_exn topo src in
              let dst = Compact.index_of_exn topo dst in
              let first = Engine.query e ~src ~dst ~policy in
              let fresh = Engine.query_uncached e ~src ~dst ~policy in
              (* second hit must come from the store and still agree *)
              let again = Engine.query e ~src ~dst ~policy in
              first = fresh && again = fresh
          | ev ->
              ignore (Engine.apply e (Serve.event_of_item topo ev) : int);
              true)
        stream
      &&
      (* hits + misses account for every query made above *)
      let s = Engine.stats e in
      s.Engine.queries = s.Engine.store_hits + s.Engine.store_misses)

(* ------------------------------------------------------------------ *)
(* Delta round-trips and thaw                                          *)

(* One edit, spliced as a batch of one; an inapplicable edit fails. *)
let splice topo edit =
  match Compact.Delta.apply_batch topo [ edit ] with
  | Ok c -> c
  | Error reason -> failwith reason

let qcheck_delta_roundtrip =
  QCheck.Test.make ~count:20
    ~name:"Delta: remove;add (and add;remove) round-trip byte-identically"
    QCheck.(int_range 1 10_000)
    (fun seed ->
      let open Compact.Delta in
      let topo = Compact.freeze (gen_graph seed) in
      let peers = ref [] and transits = ref [] in
      Compact.iter_peering_links topo (fun i j -> peers := (i, j) :: !peers);
      Compact.iter_provider_customer_links topo (fun ~provider ~customer ->
          transits := (provider, customer) :: !transits);
      let rng = Rng.create (seed + 1) in
      let peer_rt =
        match !peers with
        | [] -> true
        | l ->
            let i, j = Rng.choose rng (Array.of_list l) in
            frozen_equal topo
              (splice
                 (splice topo (Link_down (Peer (i, j))))
                 (Link_up (Peer (i, j))))
        in
      let transit_rt =
        match !transits with
        | [] -> true
        | l ->
            let provider, customer = Rng.choose rng (Array.of_list l) in
            frozen_equal topo
              (splice
                 (splice topo (Link_down (Transit { provider; customer })))
                 (Link_up (Transit { provider; customer })))
      in
      (* add a fresh link, then remove it again *)
      let n = Compact.num_ases topo in
      let rec fresh_pair tries =
        if tries = 0 then None
        else
          let i = Rng.int rng n in
          let j = (i + 1 + Rng.int rng (n - 1)) mod n in
          if Compact.connected topo i j then fresh_pair (tries - 1)
          else Some (i, j)
      in
      let add_rt =
        match fresh_pair 50 with
        | None -> true
        | Some (i, j) ->
            frozen_equal topo
              (splice
                 (splice topo (Link_up (Peer (i, j))))
                 (Link_down (Peer (i, j))))
            && frozen_equal topo
                 (splice
                    (splice topo
                       (Link_up (Transit { provider = i; customer = j })))
                    (Link_down (Transit { provider = i; customer = j })))
      in
      peer_rt && transit_rt && add_rt)

let qcheck_freeze_thaw =
  QCheck.Test.make ~count:20 ~name:"freeze (thaw c) = c"
    QCheck.(int_range 1 10_000)
    (fun seed ->
      let c = Compact.freeze (gen_graph seed) in
      frozen_equal c (Compact.freeze (Compact.thaw c)))

(* ------------------------------------------------------------------ *)
(* Batch application = sequential fold                                  *)

(* A fixed batch aimed at the places where a splice could be off by
   one: row 0 and row n-1 (the first row of the first block and the last
   row of the last), an empty row filled, an up-down-up chain on one
   pair, several edits on the highest-degree row, and a row emptied.  Each edit is chosen on
   [g], the thawed graph, which it then edits, so the batch applies in
   sequence and [g] ends as its sequential reference. *)
let boundary_batch topo g =
  let n = Compact.num_ases topo in
  let id = Compact.id topo in
  let items = ref [] in
  let push item =
    apply_to_graph g item;
    items := item :: !items
  in
  let linked i j = Graph.connected g (id i) (id j) in
  let unlinked_to i =
    List.filter (fun j -> j <> i && not (linked i j)) (List.init n Fun.id)
  in
  let up_peer i j = push (Stream.Up (Stream.Peer (id i, id j))) in
  let up_transit i j =
    push (Stream.Up (Stream.Transit { provider = id i; customer = id j }))
  in
  let down i j =
    push
      (Stream.Down
         (match Graph.relationship g (id i) (id j) with
         | Some Graph.Peer -> Stream.Peer (id i, id j)
         | Some Graph.Customer ->
             Stream.Transit { provider = id i; customer = id j }
         | Some Graph.Provider ->
             Stream.Transit { provider = id j; customer = id i }
         | None -> invalid_arg "boundary_batch: not linked"))
  in
  let neighbors i =
    Asn.Set.elements (Graph.neighbors g (id i))
    |> List.map (Compact.index_of_exn topo)
  in
  let hub =
    let degree = Compact.degree topo in
    List.fold_left
      (fun h i -> if degree i > degree h then i else h)
      0 (List.init n Fun.id)
  in
  (* row 0 and row n-1, in the peer class and both transit classes *)
  if linked 0 (n - 1) then down 0 (n - 1) else up_peer 0 (n - 1);
  (match unlinked_to 0 with j :: _ -> up_transit j 0 | [] -> ());
  (match List.rev (unlinked_to (n - 1)) with
  | j :: _ -> up_transit (n - 1) j
  | [] -> ());
  (* an empty customer row filled with two entries *)
  let spare i = i <> 0 && i <> n - 1 && i <> hub in
  (match
     List.find_opt
       (fun s -> spare s && Compact.customers_count topo s = 0)
       (List.init n Fun.id)
   with
  | Some s -> (
      match unlinked_to s with
      | a :: b :: _ ->
          up_transit s a;
          up_transit s b
      | _ -> ())
  | None -> ());
  (* up -> down -> up on one pair *)
  (match unlinked_to (n / 2) with
  | q :: _ ->
      up_peer (n / 2) q;
      down (n / 2) q;
      up_transit (n / 2) q
  | [] -> ());
  (* the hub row: its first and last neighbours go, two new links come *)
  (match neighbors hub with
  | first :: (_ :: _ as rest) ->
      down hub first;
      down hub (List.nth rest (List.length rest - 1))
  | _ -> ());
  (match unlinked_to hub with
  | a :: (_ :: _ as rest) ->
      up_peer hub a;
      up_transit hub (List.nth rest (List.length rest - 1))
  | _ -> ());
  (* last, so nothing refills it: the smallest non-empty spare row *)
  (match
     List.filter (fun i -> spare i && neighbors i <> []) (List.init n Fun.id)
     |> List.map (fun i -> (List.length (neighbors i), i))
     |> List.sort compare
   with
  | (_, r) :: _ -> List.iter (down r) (neighbors r)
  | [] -> ());
  List.rev !items

(* The reference is independent of Delta: the thawed graph edited in
   order, frozen from scratch.  Versions share blocks and rows, so a
   splice that wrote into a row it did not copy would change the core it
   started from — the pre-event core [Serve.run ~oracle] re-freezes.  So
   each batch is spliced twice into the same core, the second half of the
   events is spliced into the first half's result, and [topo] must keep
   its bytes throughout.  The graphs hold 80 to 260 ASes: two to five
   64-row blocks, the last one partial. *)
let qcheck_batch_equals_sequential =
  QCheck.Test.make ~count:20
    ~name:"Delta.apply_batch = sequential edits of the thawed graph, re-frozen"
    QCheck.(triple (int_range 1 10_000) (int_range 60 240) (int_range 0 40))
    (fun (seed, n_stub, n_events) ->
      let topo = Compact.freeze (gen_graph ~n_stub seed) in
      let original = Compact.Snapshot.to_string topo in
      (* [items] spliced into [c] twice; both must equal the reference *)
      let splice c items =
        let sequential = Compact.thaw c in
        List.iter (apply_to_graph sequential) items;
        let reference = Compact.freeze sequential in
        let once () =
          Compact.Delta.apply_batch c (List.map (Serve.event_of_item c) items)
        in
        match (once (), once ()) with
        | Ok a, Ok b when frozen_equal reference a && frozen_equal reference b
          ->
            Some a
        | _ -> None
      in
      let items = gen_events ~seed:(seed + 1) ~topo n_events in
      let first = List.filteri (fun k _ -> k < n_events / 2) items
      and second = List.filteri (fun k _ -> k >= n_events / 2) items in
      splice topo items <> None
      && splice topo (boundary_batch topo (Compact.thaw topo)) <> None
      && Option.bind (splice topo first) (fun c -> splice c second) <> None
      && String.equal original (Compact.Snapshot.to_string topo)
      (* add-then-remove chains on the same pair collapse correctly *)
      &&
      match List.map (Serve.event_of_item topo) items with
      | Engine.Link_up (Engine.Peer _ as l) :: _ ->
          Compact.Delta.apply_batch topo
            [ Engine.Link_up l; Engine.Link_down l ]
          |> Result.fold ~ok:(frozen_equal topo) ~error:(fun _ -> false)
      | _ -> true)

let qcheck_engine_batch_equals_fold =
  QCheck.Test.make ~count:15
    ~name:"Engine.apply_batch = folded Engine.apply (topology, store, counts)"
    QCheck.(pair (int_range 1 10_000) (int_range 1 30))
    (fun (seed, n_events) ->
      let topo = Compact.freeze (gen_graph seed) in
      let evs =
        gen_events ~seed:(seed + 1) ~topo n_events
        |> List.map (Serve.event_of_item topo)
      in
      let e_fold = Engine.create topo and e_batch = Engine.create topo in
      (* warm both stores identically so the splice has entries to drop *)
      let n = Compact.num_ases topo in
      let rng = Rng.create (seed + 2) in
      let pairs =
        List.init 25 (fun _ ->
            let src = Rng.int rng n in
            let dst = (src + 1 + Rng.int rng (n - 1)) mod n in
            (src, dst))
      in
      List.iter
        (fun (src, dst) ->
          List.iter
            (fun policy ->
              ignore (Engine.query e_fold ~src ~dst ~policy : int list);
              ignore (Engine.query e_batch ~src ~dst ~policy : int list))
            policies)
        pairs;
      let d_fold =
        List.fold_left (fun acc ev -> acc + Engine.apply e_fold ev) 0 evs
      in
      let d_batch = Engine.apply_batch e_batch evs in
      d_fold = d_batch
      && frozen_equal (Engine.topology e_fold) (Engine.topology e_batch)
      && (Engine.stats e_fold).Engine.events
         = (Engine.stats e_batch).Engine.events
      && List.for_all
           (fun (src, dst) ->
             List.for_all
               (fun policy ->
                 Engine.query e_fold ~src ~dst ~policy
                 = Engine.query e_batch ~src ~dst ~policy
                 && Engine.query e_batch ~src ~dst ~policy
                    = Engine.query_uncached e_batch ~src ~dst ~policy)
               policies)
           pairs)

(* A 5-AS topology small enough to check answers by hand:
     AS1 provider of AS2 and AS3;  AS2 -- AS3 peering;
     AS2 provider of AS4;  AS3 provider of AS5.
   Dense indices are ASN - 1. *)
let hand_graph () =
  let g = Graph.create () in
  Graph.add_provider_customer g ~provider:(asn 1) ~customer:(asn 2);
  Graph.add_provider_customer g ~provider:(asn 1) ~customer:(asn 3);
  Graph.add_peering g (asn 2) (asn 3);
  Graph.add_provider_customer g ~provider:(asn 2) ~customer:(asn 4);
  Graph.add_provider_customer g ~provider:(asn 3) ~customer:(asn 5);
  g

let hand_engine () = Engine.create (Compact.freeze (hand_graph ()))

let test_delta_validation () =
  let open Compact.Delta in
  let c = Compact.freeze (hand_graph ()) in
  let expect name reason edit =
    Alcotest.(check (result reject string))
      name (Error reason)
      (apply_batch c [ edit ])
  in
  expect "add existing link" "AS1 and AS2 are already linked"
    (Link_up (Peer (0, 1)));
  expect "add existing link (transit over peering)"
    "AS2 and AS3 are already linked"
    (Link_up (Transit { provider = 1; customer = 2 }));
  expect "remove non-peering" "AS1 and AS3 are not peers"
    (Link_down (Peer (0, 2)));
  expect "remove absent transit" "AS4 is not a provider of AS5"
    (Link_down (Transit { provider = 3; customer = 4 }));
  expect "self link" "self-link on AS2" (Link_up (Peer (1, 1)));
  expect "index out of range" "index 9 outside [0, 5)"
    (Link_up (Peer (0, 9)))

let test_engine_apply_validation () =
  let e = hand_engine () in
  let expect name msg f =
    Alcotest.check_raises name (Invalid_argument msg) (fun () -> ignore (f ()))
  in
  expect "up on linked pair" "Engine.apply: AS2 and AS3 are already linked"
    (fun () -> Engine.apply e (Engine.Link_up (Engine.Peer (1, 2))));
  expect "down on non-peers" "Engine.apply: AS1 and AS2 are not peers"
    (fun () -> Engine.apply e (Engine.Link_down (Engine.Peer (0, 1))));
  expect "down absent transit" "Engine.apply: AS4 is not a provider of AS5"
    (fun () ->
      Engine.apply e
        (Engine.Link_down (Engine.Transit { provider = 3; customer = 4 })));
  expect "self link" "Engine.apply: self-link on AS1" (fun () ->
      Engine.apply e (Engine.Link_up (Engine.Peer (0, 0))));
  expect "out of range" "Engine.apply: index 7 outside [0, 5)" (fun () ->
      Engine.apply e (Engine.Link_up (Engine.Peer (0, 7))))

(* Every query entry point names itself when it rejects an index. *)
let test_engine_query_validation () =
  let e = hand_engine () in
  let intent = Pan_intent.Intent.parse_exn "metric=hops; k=1" in
  let expect msg f =
    Alcotest.check_raises msg (Invalid_argument msg) (fun () -> ignore (f ()))
  in
  expect "Engine.query: index 9 outside [0, 5)" (fun () ->
      Engine.query e ~src:0 ~dst:9 ~policy:Path_enum.Grc);
  expect "Engine.query_uncached: index -1 outside [0, 5)" (fun () ->
      Engine.query_uncached e ~src:(-1) ~dst:0 ~policy:Path_enum.Grc);
  expect "Engine.intent_query: index 5 outside [0, 5)" (fun () ->
      Engine.intent_query e ~src:5 ~dst:0 intent);
  expect "Engine.intent_query_uncached: index 7 outside [0, 5)" (fun () ->
      Engine.intent_query_uncached e ~src:0 ~dst:7 intent);
  expect "Engine.intent_query_uncached: src = dst (index 2)" (fun () ->
      Engine.intent_query_uncached e ~src:2 ~dst:2 intent)

let test_engine_batch_validates_before_mutation () =
  let e = hand_engine () in
  let before = Compact.Snapshot.to_string (Engine.topology e) in
  (* second event invalid against the state left by the first *)
  (try
     ignore
       (Engine.apply_batch e
          [
            Engine.Link_up (Engine.Peer (0, 3));
            Engine.Link_up (Engine.Peer (0, 3));
          ]
        : int);
     Alcotest.fail "duplicate up accepted"
   with Invalid_argument msg ->
     Alcotest.(check string) "sequential-semantics message"
       "Engine.apply: AS1 and AS4 are already linked" msg);
  Alcotest.(check string) "engine unchanged on batch failure" before
    (Compact.Snapshot.to_string (Engine.topology e));
  Alcotest.(check int) "no events recorded" 0 (Engine.stats e).Engine.events;
  (* down-then-up of the same pair is valid within one batch *)
  let dropped =
    Engine.apply_batch e
      [
        Engine.Link_down (Engine.Peer (1, 2));
        Engine.Link_up (Engine.Peer (1, 2));
      ]
  in
  Alcotest.(check bool) "round-trip batch applies" true (dropped >= 0);
  Alcotest.(check string) "round-trip leaves topology identical" before
    (Compact.Snapshot.to_string (Engine.topology e))

(* ------------------------------------------------------------------ *)
(* Invalidation soundness: warm every pair, churn, re-check every pair  *)

let test_invalidation_soundness () =
  let topo = Compact.freeze (gen_graph ~n_transit:5 ~n_stub:12 7) in
  let n = Compact.num_ases topo in
  let e = Engine.create topo in
  let sweep_equal () =
    for src = 0 to n - 1 do
      for dst = 0 to n - 1 do
        if src <> dst then
          List.iter
            (fun policy ->
              let memo = Engine.query e ~src ~dst ~policy in
              let fresh = Engine.query_uncached e ~src ~dst ~policy in
              if memo <> fresh then
                Alcotest.failf "stale answer for (%d, %d) after churn" src dst)
            policies
      done
    done
  in
  sweep_equal ();
  let warm = Engine.stats e in
  Alcotest.(check int) "cold sweep misses everywhere" warm.Engine.queries
    warm.Engine.store_misses;
  List.iteri
    (fun k item ->
      let dropped = Engine.apply e (Serve.event_of_item topo item) in
      if dropped < 0 then Alcotest.failf "negative drop count at event %d" k;
      (* every pair must still answer as if computed cold *)
      sweep_equal ())
    (gen_events ~seed:8 ~topo 6);
  let s = Engine.stats e in
  Alcotest.(check int) "events counted" 6 s.Engine.events;
  if s.Engine.store_hits = 0 then
    Alcotest.fail "memo never hit: invalidation is dropping everything"

(* ------------------------------------------------------------------ *)
(* Hand-checked answers and transcript rendering                       *)

let test_hand_answers () =
  let topo = Compact.freeze (hand_graph ()) in
  let e = Engine.create topo in
  (* GRC from AS4: 4 - 2 - z with z in {1, 3} (AS2 is AS4's provider) *)
  Alcotest.(check (list int)) "AS4->AS3 grc via AS2" [ 1 ]
    (Engine.query e ~src:3 ~dst:2 ~policy:Path_enum.Grc);
  Alcotest.(check (list int)) "AS4->AS1 grc via AS2" [ 1 ]
    (Engine.query e ~src:3 ~dst:0 ~policy:Path_enum.Grc);
  Alcotest.(check (list int)) "AS4->AS5 grc: none" []
    (Engine.query e ~src:3 ~dst:4 ~policy:Path_enum.Grc);
  (* GRC from AS5 mirrors it: 5 - 3 - z with z in {1, 2} *)
  Alcotest.(check (list int)) "AS5->AS2 grc via AS3" [ 2 ]
    (Engine.query e ~src:4 ~dst:1 ~policy:Path_enum.Grc)

let test_transcript_rendering () =
  let topo = Compact.freeze (hand_graph ()) in
  let stream =
    Stream.parse
      "# warm, churn, re-ask, heal, re-ask\n\
       query AS4 AS3 grc\n\
       down peer AS2 AS3\n\
       query AS4 AS3 grc\n\
       up peer AS2 AS3\n\
       query AS4 AS3 grc\n"
  in
  let out = Serve.run ~oracle:true ~topo stream in
  Alcotest.(check string) "transcript"
    "AS4 -> AS3 [grc]: 1 path via AS2\n\
     link down peer AS2 -- AS3: invalidated 1 store entry\n\
     AS4 -> AS3 [grc]: no paths\n\
     link up peer AS2 -- AS3: invalidated 1 store entry\n\
     AS4 -> AS3 [grc]: 1 path via AS2\n"
    out.Serve.transcript;
  let s = out.Serve.stats in
  Alcotest.(check int) "queries" 3 s.Engine.queries;
  Alcotest.(check int) "misses" 3 s.Engine.store_misses;
  Alcotest.(check int) "events" 2 s.Engine.events;
  Alcotest.(check int) "invalidated" 2 s.Engine.invalidated

(* A link-down drops exactly the intent entries whose cached paths
   traverse the link: an entry re-cached on other paths after an earlier
   drop survives the loss of a link only its first answer used. *)
let test_intent_drop_exact () =
  let g = Graph.create () in
  List.iter
    (fun (a, b) -> Graph.add_peering g (asn a) (asn b))
    [ (1, 2); (2, 4); (1, 3); (3, 4) ];
  let e = Engine.create (Compact.freeze g) in
  let i x = Compact.index_of_exn (Engine.topology e) (asn x) in
  let intent = Pan_intent.Intent.parse_exn "metric=hops; k=1" in
  let ask () =
    List.map
      (fun r -> List.map Asn.to_int r.Pan_intent.Candidates.path)
      (Engine.intent_query e ~src:(i 1) ~dst:(i 4) intent)
  in
  let down a b = Engine.apply e (Engine.Link_down (Engine.Peer (i a, i b))) in
  let paths = Alcotest.(list (list int)) in
  Alcotest.check paths "first answer" [ [ 1; 2; 4 ] ] (ask ());
  Alcotest.(check int) "down 1-2 drops it" 1 (down 1 2);
  Alcotest.check paths "re-cached answer" [ [ 1; 3; 4 ] ] (ask ());
  Alcotest.(check int) "down 2-4 keeps it" 0 (down 2 4);
  Alcotest.check paths "still cached" [ [ 1; 3; 4 ] ] (ask ());
  Alcotest.(check int) "served from the store" 1
    (Engine.stats e).Engine.store_hits;
  Alcotest.(check int) "down 3-4 drops it" 1 (down 3 4)

(* A link-up drops only the intent entries a path through the new link
   could enter.  AS1 reaches AS4 directly and through AS2 or AS3; a
   tail AS4 - AS5 - AS6 - AS7 hangs off AS4. *)
let test_intent_up_keeps_far () =
  let g = Graph.create () in
  List.iter
    (fun (a, b) -> Graph.add_peering g (asn a) (asn b))
    [ (1, 2); (2, 4); (1, 3); (3, 4); (1, 4); (4, 5); (5, 6); (6, 7) ];
  let e = Engine.create (Compact.freeze g) in
  let i x = Compact.index_of_exn (Engine.topology e) (asn x) in
  let ask spec =
    List.map
      (fun r -> List.map Asn.to_int r.Pan_intent.Candidates.path)
      (Engine.intent_query e ~src:(i 1) ~dst:(i 4)
         (Pan_intent.Intent.parse_exn spec))
  in
  let apply ev a b = Engine.apply e (ev (Engine.Peer (i a, i b))) in
  let up = apply (fun l -> Engine.Link_up l)
  and down = apply (fun l -> Engine.Link_down l) in
  let paths = Alcotest.(list (list int)) in
  let k2 = "metric=hops; k=2" in
  Alcotest.check paths "first answer" [ [ 1; 4 ]; [ 1; 2; 4 ] ] (ask k2);
  Alcotest.(check int) "down 1-4 drops it" 1 (down 1 4);
  Alcotest.check paths "re-cached on 3 ASes" [ [ 1; 2; 4 ]; [ 1; 3; 4 ] ]
    (ask k2);
  (* a path through 5-7 has at least d(1,5) + d(7,4) + 2 = 6 ASes *)
  Alcotest.(check int) "up 5-7 is too far to beat 3 ASes" 0 (up 5 7);
  Alcotest.check paths "still cached" [ [ 1; 2; 4 ]; [ 1; 3; 4 ] ] (ask k2);
  Alcotest.(check int) "served from the store" 1
    (Engine.stats e).Engine.store_hits;
  Alcotest.(check int) "restoring 1-4 drops it" 1 (up 1 4);
  Alcotest.check paths "direct path back" [ [ 1; 4 ]; [ 1; 2; 4 ] ] (ask k2);
  (* Short of K, an answer holds every admitted path: it stands only
     if a new path would break max-hops.  AS1 and AS4 have three paths,
     so k=5 is short. *)
  let capped = "metric=hops; k=5; max-hops=3" and open_ = "metric=hops; k=5" in
  Alcotest.(check int) "capped: three paths" 3 (List.length (ask capped));
  Alcotest.(check int) "uncapped: three paths" 3 (List.length (ask open_));
  Alcotest.(check int) "up 2-3 (4 ASes) drops only the uncapped one" 1
    (up 2 3);
  Alcotest.(check int) "the uncapped one gains the paths via 2-3" 5
    (List.length (ask open_))

(* Every link-up rule against recomputation: random small graphs (0-2
   route-server hubs), an intent stream under 0.35 churn with k in 1..6
   and max-hops in {none, 3, 4} drawn per query, its events applied in
   random mixed batches.  After every batch every (pair, intent) asked
   so far must answer from the store exactly as it would uncached. *)
let qcheck_intent_batches_equal_uncached =
  QCheck.Test.make ~count:150
    ~name:"intent store = uncached under mixed up/down batches"
    QCheck.(int_range 1 10_000)
    (fun seed ->
      let rng = Rng.create seed in
      let params =
        {
          Gen.default_params with
          Gen.n_tier1 = 3;
          n_transit = 4 + Rng.int rng 6;
          n_stub = 10 + Rng.int rng 20;
          route_server_hubs = Rng.int rng 3;
        }
      in
      let topo = Compact.freeze (Gen.graph (Gen.generate ~params ~seed ())) in
      let random_intent () =
        Pan_intent.Intent.make
          ~metric:
            [
              { weight = 1.0; component = Pan_intent.Intent.Nlatency };
              { weight = 1.0; component = Pan_intent.Intent.Nbandwidth };
            ]
          ~k:(1 + Rng.int rng 6)
          ?max_hops:(Rng.choose rng [| None; Some 3; Some 4 |])
          ()
      in
      let stream =
        Stream.generate ~intent:(random_intent ()) ~rng ~topo ~requests:80
          ~churn:0.35 ()
      in
      let e = Engine.create topo in
      let asked = ref [] and pending = ref [] in
      let check () =
        List.iter
          (fun (src, dst, intent) ->
            if
              Engine.intent_query e ~src ~dst intent
              <> Engine.intent_query_uncached e ~src ~dst intent
            then
              QCheck.Test.fail_reportf "stale answer for (%d, %d) [%s]" src
                dst (Pan_intent.Intent.to_string intent))
          !asked
      in
      let apply_pending () =
        if !pending <> [] then (
          ignore (Engine.apply_batch e (List.rev !pending) : int);
          pending := [];
          check ())
      in
      List.iter
        (function
          | (Stream.Up _ | Stream.Down _) as item ->
              pending := Serve.event_of_item topo item :: !pending;
              if Rng.bool rng then apply_pending ()
          | Stream.Intent_query { src; dst; _ } ->
              let src = Compact.index_of_exn topo src
              and dst = Compact.index_of_exn topo dst in
              let intent = random_intent () in
              if not (List.mem (src, dst, intent) !asked) then
                asked := (src, dst, intent) :: !asked;
              ignore
                (Engine.intent_query e ~src ~dst intent
                  : Pan_intent.Candidates.result list)
          | Stream.Query _ -> ())
        stream;
      apply_pending ();
      true)

(* Bench part 12's smoke drain, whose fingerprint BENCH_intent.json
   records: an all-intent K = 8 stream under 2% churn on the 1k-AS
   graph. *)
let test_intent_drain_golden () =
  let topo =
    Compact.freeze (gen_graph ~n_transit:60 ~n_stub:928 42)
  in
  let k8 =
    Pan_intent.Intent.(
      make
        ~metric:
          [
            { weight = 1.0; component = Nlatency };
            { weight = 1.0; component = Nbandwidth };
          ]
        ~k:8 ())
  in
  let stream =
    Stream.generate ~intent:k8 ~rng:(Rng.create 44) ~topo ~requests:1500
      ~churn:0.02 ()
  in
  let out = Serve.run ~topo stream in
  (* The answers alone, without the [link] lines whose invalidation
     counts an invalidation rule sets. *)
  let answers =
    String.split_on_char '\n' out.Serve.transcript
    |> List.filter (fun l -> not (String.starts_with ~prefix:"link " l))
    |> String.concat "\n"
  in
  Alcotest.(check string) "answer lines" "4429816aca38f5f2cce5dd69dfdea0d8"
    (Digest.to_hex (Digest.string answers));
  Alcotest.(check string) "fingerprint" "7d18050f54db75eaa95e0d7dbd6b0294"
    out.Serve.fingerprint

(* Bench part 11's smoke drain, whose fingerprint BENCH_serve.json
   records: a policy-query stream under 2% churn on the 1k-AS graph. *)
let test_serve_drain_golden () =
  let topo = Compact.freeze (gen_graph ~n_transit:60 ~n_stub:928 42) in
  let stream =
    Stream.generate ~rng:(Rng.create 44) ~topo ~requests:3000 ~churn:0.02 ()
  in
  let out = Serve.run ~topo stream in
  Alcotest.(check string) "fingerprint" "4fc3101bc524f6d411b9570b5ac603da"
    out.Serve.fingerprint

(* ------------------------------------------------------------------ *)
(* Serve.run determinism: pool sizes and injected faults               *)

let serve_fixture () =
  let topo = Compact.freeze (gen_graph 11) in
  let stream =
    Stream.generate ~rng:(Rng.create 12) ~topo ~requests:120 ~churn:0.15 ()
  in
  (topo, stream)

let stats_equal a b =
  a.Engine.queries = b.Engine.queries
  && a.Engine.store_hits = b.Engine.store_hits
  && a.Engine.store_misses = b.Engine.store_misses
  && a.Engine.events = b.Engine.events
  && a.Engine.invalidated = b.Engine.invalidated

let test_serve_jobs_equal () =
  let topo, stream = serve_fixture () in
  let base = Serve.run ~topo stream in
  let par =
    Pan_runner.Pool.with_pool ~domains:4 (fun pool ->
        Serve.run ~pool ~topo stream)
  in
  Alcotest.(check string) "-j1 = -j4 transcript" base.Serve.transcript
    par.Serve.transcript;
  Alcotest.(check bool) "stats equal" true
    (stats_equal base.Serve.stats par.Serve.stats)

let test_serve_faults_equal () =
  let topo, stream = serve_fixture () in
  let base = Serve.run ~topo stream in
  let faulty =
    Pan_runner.Fault.set
      (Some
         { Pan_runner.Fault.seed = 3; rate = 0.3; delay = 0.0;
           delay_rate = 0.0 });
    Fun.protect
      ~finally:(fun () -> Pan_runner.Fault.set None)
      (fun () ->
        Pan_runner.Pool.with_pool ~domains:4 (fun pool ->
            Serve.run ~pool ~topo stream))
  in
  Alcotest.(check string) "fault-injected run is byte-identical"
    base.Serve.transcript faulty.Serve.transcript;
  Alcotest.(check string) "fingerprint too" base.Serve.fingerprint
    faulty.Serve.fingerprint

let test_serve_mode_equal () =
  let topo, stream = serve_fixture () in
  let inc = Serve.run ~topo stream in
  let refr = Serve.run ~mode:Engine.Refreeze ~topo stream in
  Alcotest.(check string) "incremental = refreeze transcript"
    inc.Serve.transcript refr.Serve.transcript

(* ------------------------------------------------------------------ *)
(* Stream format                                                       *)

(* Each stream is drawn twice: with policy queries, and with intent
   queries whose weights print with an exponent. *)
let qcheck_stream_roundtrip =
  let intent =
    Pan_intent.Intent.parse_exn "metric=1e12*latency+1e-12*hops; k=3"
  in
  QCheck.Test.make ~count:25 ~name:"Stream: parse (to_string s) = s"
    QCheck.(pair (int_range 1 10_000) (int_range 0 60))
    (fun (seed, requests) ->
      let topo = Compact.freeze (gen_graph seed) in
      List.for_all
        (fun intent ->
          let s =
            Stream.generate ?intent ~rng:(Rng.create (seed + 1)) ~topo
              ~requests ~churn:0.4 ()
          in
          Stream.parse (Stream.to_string s) = s)
        [ None; Some intent ])

let test_stream_parse_errors () =
  let expect name msg input =
    Alcotest.check_raises name (Invalid_argument msg) (fun () ->
        ignore (Stream.parse input))
  in
  expect "unknown policy"
    "Stream.parse: line 1: unknown policy \"bogus\" (expected grc, ma-all, \
     ma-direct or ma-top:N)"
    "query AS1 AS2 bogus";
  expect "negative ma-top count"
    "Stream.parse: line 1: unknown policy \"ma-top:-3\" (expected grc, \
     ma-all, ma-direct or ma-top:N)"
    "query AS1 AS2 ma-top:-3";
  expect "unknown verb, right line number"
    "Stream.parse: line 3: unknown item \"nonsense\" (expected query, \
     intent, up or down)"
    "# comment\nquery AS1 AS2 grc\nnonsense\n";
  expect "bad ASN"
    "Stream.parse: line 1: expected an AS number like AS42, got \"ASx\""
    "query AS1 ASx grc";
  expect "short link"
    "Stream.parse: line 1: expected <kind> <AS> <AS>, got 2 token(s)"
    "up peer AS1";
  expect "bad link kind"
    "Stream.parse: line 1: unknown link kind \"cable\" (expected peer or \
     transit)"
    "down cable AS1 AS2";
  expect "self-link (transit), right line number"
    "Stream.parse: line 2: transit link from AS3 to itself"
    "query AS1 AS2 grc\nup transit AS3 AS3\n";
  expect "self-link (peer)"
    "Stream.parse: line 1: peering link from AS4 to itself"
    "down peer AS4 AS4";
  expect "intent to itself" "Stream.parse: line 1: intent from AS8 to itself"
    "intent AS8 AS8 metric=latency; k=2";
  expect "intent k above the bound"
    "Stream.parse: line 2: intent spec (col 34): k must be <= 1024, got \
     5000"
    "query AS1 AS2 grc\nintent AS1 AS2 metric=latency; k=5000\n";
  (* integer tokens are plain decimal digits, not OCaml literals *)
  List.iter
    (fun tok ->
      expect tok
        (Printf.sprintf
           "Stream.parse: line 1: expected an AS number like AS42, got %S" tok)
        ("query " ^ tok ^ " AS12 grc"))
    [ "AS0x8"; "AS1_2"; "AS+8"; "AS-0"; "AS0b1" ];
  List.iter
    (fun p ->
      expect p
        (Printf.sprintf
           "Stream.parse: line 1: unknown policy %S (expected grc, ma-all, \
            ma-direct or ma-top:N)"
           p)
        ("query AS8 AS12 " ^ p))
    [ "ma-top:0x3"; "ma-top:+3"; "ma-top:1_0"; "ma-top:4611686018427387904" ];
  expect "intent source in octal"
    "Stream.parse: line 1: expected an AS number like AS42, got \"AS0o10\""
    "intent AS0o10 AS12 metric=latency; k=2";
  expect "intent k in hex"
    "Stream.parse: line 1: intent spec (col 35): expected an integer k, got \
     \"0x2\""
    "intent AS8 AS12 metric=latency; k=0x2";
  Alcotest.(check int) "a query to itself stays valid" 1
    (List.length (Stream.parse "query AS8 AS8 ma-all"));
  Alcotest.(check int) "leading zeros are decimal" 1
    (List.length (Stream.parse "query AS008 AS12 grc"))

let test_policy_labels () =
  List.iter
    (fun p ->
      Alcotest.(check bool)
        (Printf.sprintf "round-trip %s" (Stream.policy_label p))
        true
        (Stream.policy_of_label (Stream.policy_label p) = Some p))
    (Path_enum.Ma_top 7 :: policies);
  Alcotest.(check bool) "ma-top:5" true
    (Stream.policy_of_label "ma-top:5" = Some (Path_enum.Ma_top 5));
  Alcotest.(check bool) "ma-top:0" true
    (Stream.policy_of_label "ma-top:0" = Some (Path_enum.Ma_top 0));
  Alcotest.(check bool) "ma-top:max_int" true
    (Stream.policy_of_label "ma-top:4611686018427387903"
    = Some (Path_enum.Ma_top max_int));
  Alcotest.(check bool) "negative ma-top rejected" true
    (Stream.policy_of_label "ma-top:-1" = None);
  Alcotest.(check bool) "ma-top junk rejected" true
    (Stream.policy_of_label "ma-top:x" = None);
  Alcotest.(check bool) "empty rejected" true
    (Stream.policy_of_label "" = None)

let test_generated_events_applicable () =
  (* 200 pure-churn events on a small graph stay applicable throughout —
     the down/up state tracking never desyncs. *)
  let topo = Compact.freeze (gen_graph ~n_transit:4 ~n_stub:8 21) in
  let e = Engine.create topo in
  List.iter
    (fun item -> ignore (Engine.apply e (Serve.event_of_item topo item) : int))
    (gen_events ~seed:22 ~topo 200);
  Alcotest.check_raises "negative length rejected"
    (Invalid_argument "Stream.generate: requests < 0") (fun () ->
      ignore (gen_events ~seed:22 ~topo (-5)))

let suite =
  [
    QCheck_alcotest.to_alcotest qcheck_churn_equivalence;
    QCheck_alcotest.to_alcotest qcheck_store_equivalence;
    QCheck_alcotest.to_alcotest qcheck_delta_roundtrip;
    QCheck_alcotest.to_alcotest qcheck_freeze_thaw;
    QCheck_alcotest.to_alcotest qcheck_batch_equals_sequential;
    QCheck_alcotest.to_alcotest qcheck_engine_batch_equals_fold;
    Alcotest.test_case "Engine.apply_batch validates before mutating" `Quick
      test_engine_batch_validates_before_mutation;
    Alcotest.test_case "Delta validation errors" `Quick test_delta_validation;
    Alcotest.test_case "Engine.apply validation errors" `Quick
      test_engine_apply_validation;
    Alcotest.test_case "Engine query errors name the entry point" `Quick
      test_engine_query_validation;
    Alcotest.test_case "invalidation soundness (exhaustive sweeps)" `Quick
      test_invalidation_soundness;
    Alcotest.test_case "hand-checked answers (5-AS topology)" `Quick
      test_hand_answers;
    Alcotest.test_case "transcript rendering + oracle" `Quick
      test_transcript_rendering;
    Alcotest.test_case "intent link-down drops exactly" `Quick
      test_intent_drop_exact;
    Alcotest.test_case "intent link-up keeps entries it cannot beat" `Quick
      test_intent_up_keeps_far;
    QCheck_alcotest.to_alcotest qcheck_intent_batches_equal_uncached;
    Alcotest.test_case "intent drain = BENCH_intent.json" `Quick
      test_intent_drain_golden;
    Alcotest.test_case "serve drain = BENCH_serve.json" `Quick
      test_serve_drain_golden;
    Alcotest.test_case "Serve.run -j1 = -j4" `Quick test_serve_jobs_equal;
    Alcotest.test_case "Serve.run faults+retries byte-identical" `Quick
      test_serve_faults_equal;
    Alcotest.test_case "Serve.run incremental = refreeze" `Quick
      test_serve_mode_equal;
    QCheck_alcotest.to_alcotest qcheck_stream_roundtrip;
    Alcotest.test_case "stream parse errors" `Quick test_stream_parse_errors;
    Alcotest.test_case "policy labels round-trip" `Quick test_policy_labels;
    Alcotest.test_case "generated churn always applicable" `Quick
      test_generated_events_applicable;
  ]
