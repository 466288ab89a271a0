(* Path diversity from mutuality-based agreements (§VI).

   Generates a synthetic Internet-like topology, picks an AS, and shows
   the length-3 paths and destinations it gains under different degrees
   of MA conclusion — the per-AS view behind Figs. 3 and 4.  Run with:

     dune exec examples/path_diversity.exe
*)

open Pan_topology

let printf = Format.printf

let () =
  let gen =
    Gen.generate
      ~params:{ Gen.default_params with Gen.n_transit = 200; n_stub = 800 }
      ~seed:42 ()
  in
  let g = Gen.graph gen in
  printf "Synthetic topology: %a@.@." Graph.pp_stats g;

  (* Pick the stub AS with the most peers: a typical IXP member. *)
  let x =
    List.fold_left
      (fun best candidate ->
        if
          Asn.Set.cardinal (Graph.peers g candidate)
          > Asn.Set.cardinal (Graph.peers g best)
        then candidate
        else best)
      (List.hd (Gen.stubs gen))
      (Gen.stubs gen)
  in
  printf "Analyzed AS: %a (%d providers, %d peers, %d customers)@.@." Asn.pp x
    (Asn.Set.cardinal (Graph.providers g x))
    (Asn.Set.cardinal (Graph.peers g x))
    (Asn.Set.cardinal (Graph.customers g x));

  (* Enumerate over the frozen core: AS indices instead of ASNs. *)
  let c = Compact.freeze g in
  let xi = Compact.index_of_exn c x in
  let asn i = Compact.id c i in
  let only y = Bitset.of_list ~width:(Compact.num_ases c) [ y ] in

  let scenarios =
    Path_enum.
      [ Grc; Ma_top 1; Ma_top 2; Ma_top 5; Ma_direct_only; Ma_all ]
  in
  printf "%-14s %-12s %s@." "scenario" "paths" "destinations";
  List.iter
    (fun s ->
      let paths = Path_enum_compact.scenario_paths c s xi in
      printf "%-14s %-12d %d@."
        (Path_enum.scenario_label s)
        (Path_enum_compact.total_count paths)
        (Bitset.cardinal (Path_enum_compact.dest_set paths)))
    scenarios;

  (* Which MAs should this AS negotiate first? *)
  printf "@.Most attractive MA partners (by directly gained paths):@.";
  List.iter
    (fun y ->
      let gain = Path_enum_compact.ma_direct ~partners:(only y) c xi in
      printf "  %a: %d new length-3 paths@." Asn.pp (asn y)
        (Path_enum_compact.total_count gain))
    (Path_enum_compact.top_partners c ~n:5 xi);

  (* A few of the concrete new paths from the best agreement. *)
  match Path_enum_compact.top_partners c ~n:1 xi with
  | [] -> printf "@.This AS has no peers, hence no MA opportunities.@."
  | best :: _ ->
      let gained = Path_enum_compact.ma_direct ~partners:(only best) c xi in
      printf "@.Example paths gained from the MA with %a:@." Asn.pp (asn best);
      let shown = ref 0 in
      Path_enum_compact.iter_paths
        (fun ~mid ~dst ->
          if !shown < 5 then begin
            incr shown;
            printf "  %a - %a - %a@." Asn.pp x Asn.pp (asn mid) Asn.pp
              (asn dst)
          end)
        gained
