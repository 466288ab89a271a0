(* Tests for the compact frozen-topology core: Bitset laws against an
   Int-set reference model, Compact.freeze structural agreement with the
   Graph builder, and qcheck equivalence of the compact path algebra with
   the ASN-set enumerator of the oracle library on random generated
   topologies — the property that lets every experiment driver run on
   the frozen core without changing a single figure. *)

open Pan_topology
module Legacy = Pan_oracle.Path_enum_legacy

let asn = Asn.of_int

module IS = Set.Make (Int)

(* ------------------------------------------------------------------ *)
(* Bitset vs reference model                                           *)

(* (width, elements) with elements < width *)
let bitset_input =
  QCheck.(
    make
      ~print:(fun (w, l) ->
        Printf.sprintf "width=%d [%s]" w
          (String.concat ";" (List.map string_of_int l)))
      Gen.(
        int_range 1 200 >>= fun w ->
        list_size (int_range 0 80) (int_range 0 (w - 1)) >|= fun l -> (w, l)))

let qcheck_bitset_roundtrip =
  QCheck.Test.make ~count:200 ~name:"Bitset.of_list/to_list = sorted dedup"
    bitset_input (fun (w, l) ->
      Bitset.to_list (Bitset.of_list ~width:w l)
      = IS.elements (IS.of_list l))

let qcheck_bitset_ops =
  QCheck.Test.make ~count:200
    ~name:"Bitset union/inter/diff/cardinal = model"
    QCheck.(pair bitset_input (list_of_size (QCheck.Gen.int_range 0 80) (int_range 0 199)))
    (fun ((w, l1), l2) ->
      let l2 = List.filter (fun x -> x < w) l2 in
      let b1 = Bitset.of_list ~width:w l1
      and b2 = Bitset.of_list ~width:w l2 in
      let m1 = IS.of_list l1 and m2 = IS.of_list l2 in
      let agrees op mop =
        Bitset.to_list (op b1 b2) = IS.elements (mop m1 m2)
      in
      agrees Bitset.union IS.union
      && agrees Bitset.inter IS.inter
      && agrees Bitset.diff IS.diff
      && Bitset.cardinal b1 = IS.cardinal m1
      && Bitset.is_empty b1 = IS.is_empty m1
      && List.for_all (fun x -> Bitset.mem b1 x = IS.mem x m1)
           (List.init w Fun.id))

let qcheck_bitset_into =
  QCheck.Test.make ~count:200 ~name:"Bitset union_into/diff_into = pure ops"
    QCheck.(pair bitset_input (list_of_size (QCheck.Gen.int_range 0 80) (int_range 0 199)))
    (fun ((w, l1), l2) ->
      let l2 = List.filter (fun x -> x < w) l2 in
      let b1 () = Bitset.of_list ~width:w l1 in
      let b2 = Bitset.of_list ~width:w l2 in
      let u = b1 () in
      Bitset.union_into ~into:u b2;
      let d = b1 () in
      Bitset.diff_into ~into:d b2;
      Bitset.equal u (Bitset.union (b1 ()) b2)
      && Bitset.equal d (Bitset.diff (b1 ()) b2))

let test_bitset_mutation () =
  let b = Bitset.create ~width:130 in
  Alcotest.(check bool) "empty" true (Bitset.is_empty b);
  Bitset.add b 0;
  Bitset.add b 63;
  Bitset.add b 64;
  Bitset.add b 129;
  Bitset.add b 129;
  Alcotest.(check (list int)) "word-boundary elements" [ 0; 63; 64; 129 ]
    (Bitset.to_list b);
  Alcotest.(check int) "cardinal" 4 (Bitset.cardinal b);
  Bitset.remove b 63;
  Alcotest.(check bool) "removed" false (Bitset.mem b 63);
  Alcotest.(check bool) "out of range mem is false" false (Bitset.mem b 500);
  Alcotest.check_raises "add out of range"
    (Invalid_argument "Bitset.add: index 130 outside [0, 130)") (fun () ->
      Bitset.add b 130);
  let acc = ref [] in
  Bitset.iter (fun i -> acc := i :: !acc) b;
  Alcotest.(check (list int)) "iter ascending" [ 0; 64; 129 ]
    (List.rev !acc);
  Alcotest.(check int) "fold" (0 + 64 + 129)
    (Bitset.fold (fun i a -> i + a) b 0)

(* ------------------------------------------------------------------ *)
(* Compact.freeze vs the Graph builder                                 *)

let gen_graph ?(n_transit = 25) ?(n_stub = 80) seed =
  let params = { Gen.default_params with Gen.n_transit; Gen.n_stub } in
  Gen.graph (Gen.generate ~params ~seed ())

let test_index_roundtrip () =
  let g = gen_graph 42 in
  let c = Compact.freeze g in
  Alcotest.(check int) "num_ases" (Graph.num_ases g) (Compact.num_ases c);
  for i = 0 to Compact.num_ases c - 1 do
    Alcotest.(check (option int))
      (Printf.sprintf "index_of (id %d)" i)
      (Some i)
      (Compact.index_of c (Compact.id c i));
    Alcotest.(check int) "index_of_exn" i
      (Compact.index_of_exn c (Compact.id c i))
  done;
  Alcotest.(check (option int)) "unknown AS" None
    (Compact.index_of c (asn 999_999));
  Alcotest.check_raises "index_of_exn unknown"
    (Invalid_argument "Compact.index_of_exn: unknown AS999999") (fun () ->
      ignore (Compact.index_of_exn c (asn 999_999)));
  Alcotest.(check (list int)) "asns = Graph.ases"
    (List.map Asn.to_int (Graph.ases g))
    (Array.to_list (Array.map Asn.to_int (Compact.asns c)))

let test_degrees_and_neighbors () =
  let g = gen_graph 7 in
  let c = Compact.freeze g in
  for i = 0 to Compact.num_ases c - 1 do
    let x = Compact.id c i in
    Alcotest.(check int)
      (Printf.sprintf "degree of AS%d" (Asn.to_int x))
      (Graph.degree g x) (Compact.degree c i);
    let collect iter =
      let acc = ref [] in
      iter c i (fun j -> acc := Compact.id c j :: !acc);
      List.rev !acc
    in
    Alcotest.(check (list int)) "providers row"
      (List.map Asn.to_int (Asn.Set.elements (Graph.providers g x)))
      (List.map Asn.to_int (collect Compact.iter_providers));
    Alcotest.(check (list int)) "peers row"
      (List.map Asn.to_int (Asn.Set.elements (Graph.peers g x)))
      (List.map Asn.to_int (collect Compact.iter_peers));
    Alcotest.(check (list int)) "customers row"
      (List.map Asn.to_int (Asn.Set.elements (Graph.customers g x)))
      (List.map Asn.to_int (collect Compact.iter_customers));
    Alcotest.(check int) "neighbors count (allocation-free iter)"
      (Asn.Set.cardinal (Graph.neighbors g x))
      (let n = ref 0 in
       Compact.iter_neighbors c i (fun _ -> incr n);
       !n)
  done

let test_membership_and_links () =
  let g = gen_graph 11 in
  let c = Compact.freeze g in
  let n = Compact.num_ases c in
  (* spot-check relationship membership on a grid of pairs *)
  let step = Stdlib.max 1 (n / 17) in
  let i = ref 0 in
  while !i < n do
    let j = ref 0 in
    while !j < n do
      let x = Compact.id c !i and y = Compact.id c !j in
      Alcotest.(check bool) "mem_provider"
        (Asn.Set.mem y (Graph.providers g x))
        (Compact.mem_provider c !i !j);
      Alcotest.(check bool) "mem_peer"
        (Asn.Set.mem y (Graph.peers g x))
        (Compact.mem_peer c !i !j);
      Alcotest.(check bool) "mem_customer"
        (Asn.Set.mem y (Graph.customers g x))
        (Compact.mem_customer c !i !j);
      Alcotest.(check bool) "connected" (Graph.connected g x y)
        (Compact.connected c !i !j);
      j := !j + step
    done;
    i := !i + step
  done;
  (* link iteration must reproduce the (sorted) Graph folds exactly *)
  let fold_peering =
    List.rev
      (Graph.fold_peering_links
         (fun x y acc -> (Asn.to_int x, Asn.to_int y) :: acc)
         g [])
  in
  let compact_peering =
    let acc = ref [] in
    Compact.iter_peering_links c (fun i j ->
        acc :=
          (Asn.to_int (Compact.id c i), Asn.to_int (Compact.id c j)) :: !acc);
    List.rev !acc
  in
  Alcotest.(check (list (pair int int))) "peering links order" fold_peering
    compact_peering;
  let fold_p2c =
    List.rev
      (Graph.fold_provider_customer_links
         (fun ~provider ~customer acc ->
           (Asn.to_int provider, Asn.to_int customer) :: acc)
         g [])
  in
  let compact_p2c =
    let acc = ref [] in
    Compact.iter_provider_customer_links c (fun ~provider ~customer ->
        acc :=
          ( Asn.to_int (Compact.id c provider),
            Asn.to_int (Compact.id c customer) )
          :: !acc);
    List.rev !acc
  in
  Alcotest.(check (list (pair int int))) "p2c links order" fold_p2c compact_p2c;
  Alcotest.(check int) "p2p count" (Graph.num_peering_links g)
    (Compact.num_peering_links c);
  Alcotest.(check int) "p2c count" (Graph.num_provider_customer_links g)
    (Compact.num_provider_customer_links c)

let test_freeze_is_snapshot () =
  let g = gen_graph 3 in
  let c = Compact.freeze g in
  let before = Compact.num_peering_links c in
  Graph.add_peering g (asn 888_888) (asn 888_889);
  Alcotest.(check int) "later mutation invisible" before
    (Compact.num_peering_links c);
  Alcotest.(check (option int)) "new AS unknown to the frozen view" None
    (Compact.index_of c (asn 888_888))

(* ------------------------------------------------------------------ *)
(* Path algebra equivalence: compact = legacy                          *)

let mid_sets_equal = Asn.Map.equal Asn.Set.equal

let check_equiv name legacy compact_back =
  if not (mid_sets_equal legacy compact_back) then
    Alcotest.failf "%s: compact and legacy mid-sets differ" name

let qcheck_scenario_equivalence =
  QCheck.Test.make ~count:12
    ~name:"Path_enum_compact.scenario_paths = Path_enum.scenario_paths"
    QCheck.(int_range 1 1000)
    (fun seed ->
      let g = gen_graph ~n_transit:15 ~n_stub:50 seed in
      let c = Compact.freeze g in
      let scenarios =
        Legacy.[ Grc; Ma_all; Ma_direct_only; Ma_top 1; Ma_top 3 ]
      in
      List.for_all
        (fun x ->
          let i = Compact.index_of_exn c x in
          List.for_all
            (fun s ->
              mid_sets_equal
                (Legacy.scenario_paths g s x)
                (Legacy.to_mid_sets c
                   (Path_enum_compact.scenario_paths c s i)))
            scenarios)
        (Graph.ases g))

let qcheck_primitive_equivalence =
  QCheck.Test.make ~count:12
    ~name:"compact grc/ma_direct/ma_indirect = legacy"
    QCheck.(int_range 1 1000)
    (fun seed ->
      let g = gen_graph ~n_transit:15 ~n_stub:50 seed in
      let c = Compact.freeze g in
      List.for_all
        (fun x ->
          let i = Compact.index_of_exn c x in
          mid_sets_equal (Legacy.grc g x)
            (Legacy.to_mid_sets c (Path_enum_compact.grc c i))
          && mid_sets_equal
               (Legacy.ma_direct g x)
               (Legacy.to_mid_sets c
                  (Path_enum_compact.ma_direct c i))
          && mid_sets_equal
               (Legacy.ma_indirect g x)
               (Legacy.to_mid_sets c
                  (Path_enum_compact.ma_indirect c i)))
        (Graph.ases g))

let qcheck_concluded_equivalence =
  QCheck.Test.make ~count:12
    ~name:"ma_indirect ?concluded and ma_direct ?partners = legacy"
    QCheck.(int_range 1 1000)
    (fun seed ->
      let g = gen_graph ~n_transit:15 ~n_stub:50 seed in
      let c = Compact.freeze g in
      (* an arbitrary but deterministic MA subset *)
      let concluded_asn y z = (Asn.to_int y + Asn.to_int z) mod 3 = 0 in
      let concluded_idx y z = concluded_asn (Compact.id c y) (Compact.id c z) in
      List.for_all
        (fun x ->
          let i = Compact.index_of_exn c x in
          let partners_legacy =
            Asn.Set.filter
              (fun y -> concluded_asn x y)
              (Graph.peers g x)
          in
          let partners_compact =
            let b = Bitset.create ~width:(Compact.num_ases c) in
            Compact.iter_peers c i (fun y ->
                if concluded_idx i y then Bitset.add b y);
            b
          in
          mid_sets_equal
            (Legacy.ma_indirect ~concluded:concluded_asn g x)
            (Legacy.to_mid_sets c
               (Path_enum_compact.ma_indirect ~concluded:concluded_idx c i))
          && mid_sets_equal
               (Legacy.ma_direct ~partners:partners_legacy g x)
               (Legacy.to_mid_sets c
                  (Path_enum_compact.ma_direct ~partners:partners_compact c i))
          && mid_sets_equal
               (Legacy.economic_paths ~concluded:concluded_asn g x)
               (Legacy.to_mid_sets c
                  (Path_enum_compact.economic_paths ~concluded:concluded_idx c
                     i)))
        (Graph.ases g))

let qcheck_top_partners_equivalence =
  QCheck.Test.make ~count:12 ~name:"compact top_partners = legacy"
    QCheck.(pair (int_range 1 1000) (int_range 0 6))
    (fun (seed, n) ->
      let g = gen_graph ~n_transit:15 ~n_stub:50 seed in
      let c = Compact.freeze g in
      List.for_all
        (fun x ->
          let i = Compact.index_of_exn c x in
          List.map Asn.to_int (Legacy.top_partners g ~n x)
          = List.map
              (fun j -> Asn.to_int (Compact.id c j))
              (Path_enum_compact.top_partners c ~n i))
        (Graph.ases g))

let top_partner_ns = [ 0; 1; 2; 3; 5; max_int ]

let pp_idx l = String.concat "," (List.map string_of_int l)

(* The bound-pruned scan against the full sort of the oracle library,
   from every source.  Route-server hubs give some ASes thousands of
   peers, so the bound prunes most of a hub's row; n runs from none to
   every peer. *)
let qcheck_top_partners_reference =
  let gen =
    QCheck.Gen.(
      quad (int_range 2 200) (int_range 20 1_800) (int_range 1 10)
        (int_range 1 10_000))
  in
  QCheck.Test.make ~count:8 ~name:"top_partners: bound-pruned scan = full sort"
    (QCheck.make gen ~print:(fun (t, s, hubs, seed) ->
         Printf.sprintf "transit=%d stubs=%d hubs=%d seed=%d" t s hubs seed))
    (fun (n_transit, n_stub, route_server_hubs, seed) ->
      let params =
        { Gen.default_params with Gen.n_transit; n_stub; route_server_hubs }
      in
      let c = Compact.freeze (Gen.graph (Gen.generate ~params ~seed ())) in
      List.for_all
        (fun n ->
          List.for_all
            (fun x ->
              let got = Path_enum_compact.top_partners c ~n x in
              let want = Pan_oracle.Top_partners_reference.top_partners c ~n x in
              got = want
              || QCheck.Test.fail_reportf "source %d, n = %d:@.got  %s@.want %s"
                   x n (pp_idx got) (pp_idx want))
            (List.init (Compact.num_ases c) Fun.id))
        top_partner_ns)

(* Every peer of AS100 has the same bound, 6, and AS10i gains i: it
   peers with AS100, with the first 6 − i of AS100's customers
   AS201..206 and with i fillers of its own.  So gains rise with the
   index and the best partners come last, the scan's worst order: no
   bound prunes and each peer displaces the worst held one.  The peers
   of AS300 and AS500 all tie at gain 2, so the lowest indices win.
   AS30i peers with AS401 and AS402 only, so its bound is 2 too and,
   once n are held, every later peer is pruned at the tie.  AS50i also
   peers with AS500's customer AS599, so its bound is 3: every peer is
   counted, and an equal gain must not displace a held one. *)
let test_top_partners_worst_order () =
  let g = Graph.create () in
  let m = 6 in
  Graph.add_provider_customer g ~provider:(asn 500) ~customer:(asn 599);
  for i = 1 to m do
    let p = asn (100 + i) in
    Graph.add_provider_customer g ~provider:(asn 100) ~customer:(asn (200 + i));
    Graph.add_peering g (asn 100) p;
    for j = 1 to m - i do
      Graph.add_peering g p (asn (200 + j))
    done;
    for j = 1 to i do
      Graph.add_peering g p (asn (1000 + (10 * i) + j))
    done;
    List.iter
      (fun (x, far) ->
        let q = asn (x + i) in
        Graph.add_peering g (asn x) q;
        List.iter (fun z -> Graph.add_peering g q (asn z)) far)
      [ (300, [ 401; 402 ]); (500, [ 401; 402; 599 ]) ]
  done;
  let c = Compact.freeze g in
  let top n x =
    Path_enum_compact.top_partners c ~n (Compact.index_of_exn c (asn x))
    |> List.map (fun y -> Asn.to_int (Compact.id c y))
  in
  let first n l = List.filteri (fun i _ -> i < n) l in
  List.iter
    (fun n ->
      List.iter
        (fun (x, ranked) ->
          Alcotest.(check (list int))
            (Printf.sprintf "AS%d, n = %d" x n)
            (first n ranked) (top n x))
        [
          (100, [ 106; 105; 104; 103; 102; 101 ]);
          (300, [ 301; 302; 303; 304; 305; 306 ]);
          (500, [ 501; 502; 503; 504; 505; 506 ]);
        ])
    top_partner_ns;
  for x = 0 to Compact.num_ases c - 1 do
    List.iter
      (fun n ->
        Alcotest.(check (list int))
          (Printf.sprintf "index %d, n = %d = full sort" x n)
          (Pan_oracle.Top_partners_reference.top_partners c ~n x)
          (Path_enum_compact.top_partners c ~n x))
      top_partner_ns
  done

(* The per-pair answer against both whole-source enumerations: the
   compact mids whose destination set holds dst, and the ASN-set
   oracle's.  Every (src, dst) pair, src = dst included, on default-shape
   graphs (route-server hubs make some rows long, so both walk
   directions of [pair_paths] run), under every scenario shape: [Ma_top]
   choosing none, one, a few and all peers. *)
let qcheck_pair_paths_equivalence =
  QCheck.Test.make ~count:8 ~name:"pair_paths = scenario_paths ∩ dst = legacy"
    QCheck.(int_range 1 1000)
    (fun seed ->
      let g = gen_graph ~n_transit:15 ~n_stub:50 seed in
      let c = Compact.freeze g in
      let n = Compact.num_ases c in
      let scenarios =
        Legacy.
          [ Grc; Ma_all; Ma_direct_only; Ma_top 0; Ma_top 1; Ma_top 3;
            Ma_top 1000 ]
      in
      List.for_all
        (fun s ->
          List.for_all
            (fun src ->
              let whole = Path_enum_compact.scenario_paths c s src in
              let legacy = Legacy.scenario_paths g s (Compact.id c src) in
              List.for_all
                (fun dst ->
                  let pair = Path_enum_compact.pair_paths c s ~src ~dst in
                  let compact = ref [] in
                  Path_enum_compact.iter_sets
                    (fun mid zs ->
                      if Bitset.mem zs dst then compact := mid :: !compact)
                    whole;
                  let compact = List.rev !compact in
                  let z = Compact.id c dst in
                  let oracle =
                    Asn.Map.fold
                      (fun mid zs acc ->
                        if Asn.Set.mem z zs then Asn.to_int mid :: acc else acc)
                      legacy []
                    |> List.rev
                  in
                  pair = compact
                  && List.map (fun y -> Asn.to_int (Compact.id c y)) pair
                     = oracle)
                (List.init n Fun.id))
            (List.init n Fun.id))
        scenarios)

(* Every ordered (side, via) pair, linked or not and side = via included,
   so the count walks customers(side) on some pairs and up(via) on
   others. *)
let qcheck_ma_gain_count =
  QCheck.Test.make ~count:12 ~name:"ma_gain_count = |ma_gain|"
    QCheck.(int_range 1 1000)
    (fun seed ->
      let c = Compact.freeze (gen_graph ~n_transit:15 ~n_stub:50 seed) in
      let n = Compact.num_ases c in
      List.for_all
        (fun side ->
          List.for_all
            (fun via ->
              Path_enum_compact.ma_gain_count c ~side ~via
              = Bitset.cardinal (Path_enum_compact.ma_gain c side via))
            (List.init n Fun.id))
        (List.init n Fun.id))

let test_counts_on_fig1 () =
  let g = Gen.fig1 () in
  let c = Compact.freeze g in
  let d = Compact.index_of_exn c (Gen.fig1_asn 'D') in
  let m = Path_enum_compact.grc c d in
  Alcotest.(check int) "total_count" 4 (Path_enum_compact.total_count m);
  Alcotest.(check int) "dest_set" 4
    (Bitset.cardinal (Path_enum_compact.dest_set m));
  check_equiv "fig1 D grc"
    (Legacy.grc g (Gen.fig1_asn 'D'))
    (Legacy.to_mid_sets c m)

(* ------------------------------------------------------------------ *)
(* Versioned binary snapshots                                          *)

(* The neighbor view the econ builders read answers the same from the
   builder and from its frozen core, for every AS and for one the
   topology does not know (empty sets, degree 0). *)
let qcheck_view_equivalence =
  QCheck.Test.make ~count:30 ~name:"Compact.view = Graph.view"
    QCheck.(triple (int_range 1 10_000) (int_range 20 300) (int_range 0 6))
    (fun (seed, size, hubs) ->
      let n_transit = Int.max 1 ((size - 12) / 5) in
      let params =
        {
          Gen.default_params with
          Gen.n_tier1 = 12;
          n_transit;
          n_stub = size - 12 - n_transit;
          route_server_hubs = hubs;
        }
      in
      let g = Gen.graph (Gen.generate ~params ~seed ()) in
      let gv = Graph.view g and cv = Compact.view (Compact.freeze g) in
      let ases = Graph.ases g in
      let unknown =
        Asn.of_int
          (1 + List.fold_left (fun m x -> Int.max m (Asn.to_int x)) 0 ases)
      in
      let same x =
        Asn.Set.equal (gv.Graph.providers x) (cv.Graph.providers x)
        && Asn.Set.equal (gv.Graph.peers x) (cv.Graph.peers x)
        && Asn.Set.equal (gv.Graph.customers x) (cv.Graph.customers x)
        && gv.Graph.degree x = cv.Graph.degree x
      in
      List.for_all same (unknown :: ases)
      && cv.Graph.degree unknown = 0
      && Asn.Set.is_empty (cv.Graph.providers unknown)
      && Asn.Set.is_empty (cv.Graph.peers unknown)
      && Asn.Set.is_empty (cv.Graph.customers unknown))

(* Serialized equality is the strongest practical equality for the
   frozen view: identical interning tables, CSR arrays and counts. *)
let frozen_equal a b =
  String.equal (Compact.Snapshot.to_string a) (Compact.Snapshot.to_string b)

let qcheck_snapshot_roundtrip =
  QCheck.Test.make ~count:20 ~name:"Snapshot.of_string (to_string c) = c"
    QCheck.(int_range 1 10_000)
    (fun seed ->
      let c = Compact.freeze (gen_graph ~n_transit:10 ~n_stub:40 seed) in
      let image = Compact.Snapshot.to_string c in
      let c' = Compact.Snapshot.of_string image in
      frozen_equal c c' && String.equal image (Compact.Snapshot.to_string c'))

let caida_sample = "# comment line\n1|2|-1|bgp\n2|3|0|mlp\n\n1|4|-1|bgp\n"

let test_snapshot_caida_roundtrip () =
  let c = Compact.freeze (Caida.of_string caida_sample) in
  let file = Filename.temp_file "panagree_test" ".snap" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove file with Sys_error _ -> ())
    (fun () ->
      Compact.Snapshot.save file c;
      let c' = Compact.Snapshot.load file in
      Alcotest.(check bool) "caida round-trip" true (frozen_equal c c');
      Alcotest.(check int) "ases" 4 (Compact.num_ases c');
      Alcotest.(check int) "p2c" 2
        (Compact.num_provider_customer_links c');
      Alcotest.(check int) "p2p" 1 (Compact.num_peering_links c'))

let test_snapshot_rejects_corruption () =
  let c = Compact.freeze (Caida.of_string caida_sample) in
  let image = Compact.Snapshot.to_string c in
  let expect_invalid name bytes msg =
    Alcotest.check_raises name (Invalid_argument msg) (fun () ->
        ignore (Compact.Snapshot.of_string bytes))
  in
  let flip pos byte =
    let b = Bytes.of_string image in
    Bytes.set b pos byte;
    Bytes.to_string b
  in
  expect_invalid "bad magic"
    ("NOTASNAP" ^ String.sub image 8 (String.length image - 8))
    "Compact.Snapshot.load: bad magic \"NOTASNAP\" (not a panagree snapshot)";
  expect_invalid "flipped version byte"
    (flip 8 '\255')
    "Compact.Snapshot.load: unsupported format version 255 (this build \
     reads version 2)";
  let declared = String.length image - 36 in
  expect_invalid "truncated payload"
    (String.sub image 0 50)
    (Printf.sprintf
       "Compact.Snapshot.load: truncated payload (header declares %d \
        bytes, file ends at byte offset 50)"
       declared);
  (* corrupt one payload byte: the checksum rejects it before any
     decoding happens *)
  expect_invalid "corrupted payload" (flip 60 '\255')
    (Printf.sprintf
       "Compact.Snapshot.load: checksum mismatch (corrupt snapshot \
        payload in bytes 36..%d)"
       (String.length image - 1));
  expect_invalid "truncated header" (String.sub image 0 10)
    "Compact.Snapshot.load: truncated header (file ends at byte offset \
     10, need at least 36)"

(* An image around a hand-built payload: the header's length and digest
   match it, so the header checks pass and the error must come from the
   core decoder and name where decoding stopped. *)
let make_image payload =
  let out = Buffer.create 64 in
  Buffer.add_string out "PANSNAPS";
  Buffer.add_int32_le out (Int32.of_int Compact.Snapshot.format_version);
  Buffer.add_int64_le out (Int64.of_int (String.length payload));
  Buffer.add_string out (Digest.string payload);
  Buffer.add_string out payload;
  Buffer.contents out

let test_snapshot_corruption_offsets () =
  let expect_invalid name bytes msg =
    Alcotest.check_raises name (Invalid_argument msg) (fun () ->
        ignore (Compact.Snapshot.of_string bytes))
  in
  let u64 n =
    let b = Buffer.create 8 in
    Buffer.add_int64_le b (Int64.of_int n);
    Buffer.contents b
  in
  (* a core whose ASN-table count points past the payload's end *)
  expect_invalid "ASN table overruns payload"
    (make_image (u64 1000))
    "Compact.Snapshot.load: truncated payload (ASN table of 1000 entries \
     at byte offset 44)";
  (* lengths whose byte size [8 * n] overflows to a negative int; one
     more word follows, so a decoder that passes the bound check reads
     the first element and then fails to allocate *)
  List.iter
    (fun n ->
      expect_invalid
        (Printf.sprintf "ASN table of %d entries" n)
        (make_image (u64 n ^ u64 0))
        (Printf.sprintf
           "Compact.Snapshot.load: truncated payload (ASN table of %d \
            entries at byte offset 44)"
           n))
    [ (1 lsl 59) + 1; 1 lsl 60 ];
  expect_invalid "offset array of 2^60 words"
    (make_image (u64 0 ^ u64 (1 lsl 60) ^ u64 0))
    (Printf.sprintf
       "Compact.Snapshot.load: truncated payload (array of %d words at \
        byte offset 52)"
       (1 lsl 60));
  let c = Compact.freeze (Caida.of_string caida_sample) in
  let image = Compact.Snapshot.to_string c in
  let payload = String.sub image 36 (String.length image - 36) in
  (* the payload length (bytes 12-19) is outside the checksum: a
     negative one used to name a negative trailing-byte offset *)
  let with_length v =
    let b = Bytes.of_string image in
    Bytes.set_int64_le b 12 (Int64.of_int v);
    Bytes.to_string b
  in
  expect_invalid "negative payload length"
    (with_length (-(1 lsl 61)))
    "Compact.Snapshot.load: negative length field at byte offset 12";
  expect_invalid "payload length one short"
    (with_length (String.length payload - 1))
    (Printf.sprintf
       "Compact.Snapshot.load: payload has 1 trailing bytes at byte offset \
        %d"
       (String.length image - 1));
  expect_invalid "trailing bytes after the core"
    (make_image (payload ^ "x"))
    (Printf.sprintf
       "Compact.Snapshot.load: core section has 1 trailing bytes at byte \
        offset %d"
       (String.length image))

(* Rows are checked at load: each image below changes one word of the
   CAIDA sample's core and reseals the digest, so only the row checks
   stand between it and a core that indexes out of bounds (the
   out-of-range entry used to load, then fail on first use).  The sample
   interns AS1..AS4 as 0..3; its core starts at byte 36: n at 36, the
   ASN table at 44, then per class (provider, peer, customer) an offsets
   array (length word + 5 words) and an adjacency array (length word + 2
   words), 72 bytes each, and the p2c/p2p link counts at 292 and 300.
   Provider offsets are [0;0;1;1;2] from byte 84 behind their length
   word at 76, provider entries [0;0] from 132; customer entries [1;3]
   from 276.  A negative entry used to fail as a "negative length
   field". *)
let test_snapshot_row_checks () =
  let c = Compact.freeze (Caida.of_string caida_sample) in
  let image = Compact.Snapshot.to_string c in
  Alcotest.(check int) "image layout" 308 (String.length image);
  let payload = String.sub image 36 (String.length image - 36) in
  let patched pos v =
    let b = Bytes.of_string payload in
    Bytes.set_int64_le b (pos - 36) (Int64.of_int v);
    make_image (Bytes.to_string b)
  in
  let expect name pos v msg =
    Alcotest.check_raises name
      (Invalid_argument ("Compact.Snapshot.load: " ^ msg))
      (fun () -> ignore (Compact.Snapshot.of_string (patched pos v)))
  in
  expect "entry >= n" 132 (4 + 5)
    "provider row 1: entry 9 out of range [0, 4) at byte offset 132";
  expect "negative entry" 132 (-1)
    "provider row 1: entry -1 out of range [0, 4) at byte offset 132";
  expect "entry is the row's own index" 276 0
    "customer row 0: entry 0 is the row's own index at byte offset 276";
  expect "row not strictly ascending" 284 1
    "customer row 0: entry 1 breaks strictly ascending order at byte \
     offset 284";
  expect "offsets decrease" 108 0
    "provider offsets decrease after row 2 at byte offset 108";
  (* four offsets: the fifth is read as the adjacency length *)
  expect "offsets count" 76 4
    "provider offsets: expected 5 entries, found 4 at byte offset 76";
  expect "first offset not 0" 84 1
    "provider offsets do not cover the adjacency array: offset 0 is 1, not \
     0, at byte offset 84";
  expect "last offset short of the adjacency length" 116 1
    "provider offsets do not cover the adjacency array: offset 4 is 1, not \
     2, at byte offset 116";
  expect "p2c count mismatch" 292 3
    "provider-customer link count 3 does not match the provider (2) and \
     customer (2) adjacency lengths at byte offset 292";
  expect "p2p count mismatch" 300 2
    "peering link count 2 does not match the peer adjacency length 2 at \
     byte offset 300";
  (* the ASN table (AS1..AS4 from byte 44) must ascend strictly *)
  expect "ASN table not ascending" 52 5
    "ASN table entry 3 at byte offset 60 does not exceed the previous \
     entry 5";
  expect "negative ASN" 44 (-1)
    "ASN table entry -1 at byte offset 44 is negative";
  (* the classes must mirror each other: AS2's peer AS3 -> AS4, and
     AS4's provider AS1 -> AS3, each leave a one-sided entry *)
  expect "peer class not symmetric" 204 3
    "peer row 1: entry 3 has no mirror in peer row 3 at byte offset 204";
  expect "provider class does not mirror customer class" 140 2
    "provider row 3: entry 2 has no mirror in customer row 2 at byte \
     offset 140";
  (* the unpatched payload, resealed the same way, still loads *)
  Alcotest.(check bool) "resealed original loads" true
    (frozen_equal c (Compact.Snapshot.of_string (make_image payload)))

(* A u64 field whose value does not fit in an OCaml int is rejected
   where it is read: [Int64.to_int] drops bit 63, so an image with the
   bit set used to load as the image without it.  The CAIDA sample's p2p
   count (1) sits at byte 300, its top byte at 307; the header's payload
   length at byte 12, outside the digest. *)
let test_snapshot_wide_words () =
  let c = Compact.freeze (Caida.of_string caida_sample) in
  let image = Compact.Snapshot.to_string c in
  let payload = String.sub image 36 (String.length image - 36) in
  let expect name bytes msg =
    Alcotest.check_raises name (Invalid_argument msg) (fun () ->
        ignore (Compact.Snapshot.of_string bytes))
  in
  let with_byte s pos byte =
    let b = Bytes.of_string s in
    Bytes.set b pos byte;
    Bytes.to_string b
  in
  expect "p2p count with bit 63 set"
    (make_image (with_byte payload (307 - 36) '\x80'))
    "Compact.Snapshot.load: word 0x8000000000000001 at byte offset 300 does \
     not fit in a 63-bit int";
  expect "payload length with bit 63 set"
    (with_byte image 19 '\x80')
    "Compact.Snapshot.load: word 0x8000000000000110 at byte offset 12 does \
     not fit in a 63-bit int"

(* Every "byte offset N" that [msg] names. *)
let byte_offsets msg =
  let key = "byte offset " in
  let n = String.length msg and k = String.length key in
  let rec go i acc =
    if i + k > n then List.rev acc
    else if String.sub msg i k <> key then go (i + 1) acc
    else begin
      let j = ref (i + k) in
      if !j < n && msg.[!j] = '-' then incr j;
      while !j < n && msg.[!j] >= '0' && msg.[!j] <= '9' do
        incr j
      done;
      go !j (int_of_string (String.sub msg (i + k) (!j - i - k)) :: acc)
    end
  in
  go 0 []

(* Decoder fuzz: one byte, or one 8-byte word, of a core image's payload
   is overwritten and the digest resealed, so every mutation reaches the
   decoder; or the header's payload length, which the digest does not
   cover, is overwritten.  The cores hold 80 ASes, two 64-row blocks.
   Payload words land on the core's word grid from byte 36, one in five
   on the ASN count at 36, and words take values at the edges of the
   checks they meet.
   Decoding either fails with the decoder's own error, naming at least
   one byte offset and every one inside the image, or returns a core
   that re-encodes to the mutated image: no other exception, and no two
   images decode alike. *)
let qcheck_snapshot_fuzz =
  let gen =
    QCheck.Gen.(
      int_range 1 10_000 >>= fun seed ->
      let c = Compact.freeze (gen_graph ~n_transit:8 ~n_stub:60 seed) in
      let image = Compact.Snapshot.to_string c in
      let len = String.length image and n = Compact.num_ases c in
      let word edges =
        map
          (fun v ->
            let b = Bytes.create 8 in
            Bytes.set_int64_le b 0 v;
            Bytes.to_string b)
          (oneof [ map Int64.of_int (oneofl edges); int64 ])
      in
      let byte_patch =
        pair (int_range 36 (len - 1))
          (map (fun v -> String.make 1 (Char.chr v)) (int_range 0 255))
      in
      let word_patch =
        pair
          (frequency
             [
               (4, map (fun k -> 36 + (8 * k)) (int_range 0 (((len - 36) / 8) - 1)));
               (1, return 36);
             ])
          (word [ -1; 0; 1; n - 1; n; n + 1; max_int; min_int; 1 lsl 59 ])
      in
      let length_patch =
        let p = len - 36 in
        pair (return 12)
          (word
             [ -1; 0; 1; p - 1; p; p + 1; max_int; min_int; -(1 lsl 61) ])
      in
      map
        (fun (pos, patch) ->
          let b = Bytes.of_string image in
          Bytes.blit_string patch 0 b pos (String.length patch);
          Bytes.blit_string (Digest.subbytes b 36 (len - 36)) 0 b 20 16;
          (seed, pos, patch, Bytes.to_string b))
        (frequency [ (3, byte_patch); (3, word_patch); (1, length_patch) ]))
  in
  let print (seed, pos, patch, _) =
    Printf.sprintf "seed %d: bytes %S at byte offset %d" seed patch pos
  in
  QCheck.Test.make ~count:1000
    ~name:"snapshot: resealed mutations fail located or round-trip"
    (QCheck.make gen ~print)
    (fun (_, _, _, image) ->
      match Compact.Snapshot.of_string image with
      | c -> String.equal image (Compact.Snapshot.to_string c)
      | exception Invalid_argument msg -> (
          String.starts_with ~prefix:"Compact.Snapshot.load: " msg
          &&
          match byte_offsets msg with
          | [] -> false
          | offsets ->
              List.for_all (fun o -> 0 <= o && o <= String.length image) offsets))

let suite =
  [
    QCheck_alcotest.to_alcotest qcheck_bitset_roundtrip;
    QCheck_alcotest.to_alcotest qcheck_bitset_ops;
    QCheck_alcotest.to_alcotest qcheck_bitset_into;
    Alcotest.test_case "bitset mutation / word boundaries" `Quick
      test_bitset_mutation;
    Alcotest.test_case "index round trip" `Quick test_index_roundtrip;
    Alcotest.test_case "degrees and adjacency rows" `Quick
      test_degrees_and_neighbors;
    Alcotest.test_case "membership and link iteration" `Quick
      test_membership_and_links;
    Alcotest.test_case "freeze is a snapshot" `Quick test_freeze_is_snapshot;
    QCheck_alcotest.to_alcotest qcheck_view_equivalence;
    QCheck_alcotest.to_alcotest qcheck_scenario_equivalence;
    QCheck_alcotest.to_alcotest qcheck_primitive_equivalence;
    QCheck_alcotest.to_alcotest qcheck_concluded_equivalence;
    QCheck_alcotest.to_alcotest qcheck_top_partners_equivalence;
    QCheck_alcotest.to_alcotest qcheck_top_partners_reference;
    Alcotest.test_case "top_partners: worst scan order and gain ties" `Quick
      test_top_partners_worst_order;
    QCheck_alcotest.to_alcotest qcheck_pair_paths_equivalence;
    QCheck_alcotest.to_alcotest qcheck_ma_gain_count;
    Alcotest.test_case "fig1 counts (hand-checked)" `Quick test_counts_on_fig1;
    QCheck_alcotest.to_alcotest qcheck_snapshot_roundtrip;
    Alcotest.test_case "snapshot: CAIDA sample round-trip" `Quick
      test_snapshot_caida_roundtrip;
    Alcotest.test_case "snapshot: corruption rejected loudly" `Quick
      test_snapshot_rejects_corruption;
    Alcotest.test_case "snapshot: errors name the byte offset" `Quick
      test_snapshot_corruption_offsets;
    Alcotest.test_case "snapshot: rows checked at load" `Quick
      test_snapshot_row_checks;
    Alcotest.test_case "snapshot: words past 63 bits rejected" `Quick
      test_snapshot_wide_words;
    QCheck_alcotest.to_alcotest qcheck_snapshot_fuzz;
  ]
