(* Tests for the extension experiments (resilience, chained diversity)
   and the CSV exporter. *)

open Pan_topology
open Pan_experiments

let small_graph =
  lazy
    (Gen.graph
       (Gen.generate
          ~params:{ Gen.default_params with Gen.n_transit = 60; n_stub = 240 }
          ~seed:42 ()))

let test_resilience_shape () =
  let r = Resilience.run ~pairs:60 ~seed:5 (Lazy.force small_graph) in
  Alcotest.(check bool) "pairs measured" true (r.Resilience.pairs > 0);
  let b = r.Resilience.baseline_connectivity in
  Alcotest.(check (float 1e-9)) "baseline GRC = 1 (pairs had primaries)" 1.0
    b.Resilience.grc;
  let f = r.Resilience.first_link_failed in
  (* MAs can only help *)
  Alcotest.(check bool) "MA >= GRC under failure" true
    (f.Resilience.ma >= f.Resilience.grc);
  Alcotest.(check bool) "failure hurts GRC" true
    (f.Resilience.grc <= b.Resilience.grc);
  let m = r.Resilience.middle_link_failed in
  Alcotest.(check bool) "middle-link MA >= GRC" true
    (m.Resilience.ma >= m.Resilience.grc);
  Alcotest.(check bool) "attempts >= 1" true
    (r.Resilience.mean_attempts_ma >= 1.0)

let test_chained_shape () =
  let r = Chained_exp.run ~sample_size:80 ~seed:5 (Lazy.force small_graph) in
  Alcotest.(check bool) "sampled" true (r.Chained_exp.sampled <> []);
  List.iter
    (fun (pa : Chained_exp.per_as) ->
      Alcotest.(check bool) "non-negative counts" true
        (pa.Chained_exp.ma3_paths >= 0
        && pa.Chained_exp.chained4_paths >= 0
        && pa.Chained_exp.ma3_new_dests >= 0
        && pa.Chained_exp.chained4_extra_dests >= 0))
    r.Chained_exp.sampled;
  (* chaining multiplies the supply of paths on a peered topology *)
  Alcotest.(check bool) "ratio positive" true (Chained_exp.mean_ratio r > 0.0)

let test_chained_matches_extension_stats () =
  let g = Lazy.force small_graph in
  let r = Chained_exp.run ~sample_size:20 ~seed:5 g in
  List.iter
    (fun (pa : Chained_exp.per_as) ->
      let count, _ = Pan_econ.Extension.chained_stats g pa.Chained_exp.asn in
      Alcotest.(check int) "consistent with Extension.chained_stats" count
        pa.Chained_exp.chained4_paths)
    r.Chained_exp.sampled

(* Golden per-AS records: every sampled AS's counts in sample order, as
   an MD5 of their rendering. *)
let test_chained_golden () =
  let r = Chained_exp.run ~sample_size:80 ~seed:5 (Lazy.force small_graph) in
  let records =
    String.concat ";"
      (List.map
         (fun (pa : Chained_exp.per_as) ->
           Printf.sprintf "%d:%d,%d,%d,%d" (Asn.to_int pa.Chained_exp.asn)
             pa.Chained_exp.ma3_paths pa.Chained_exp.chained4_paths
             pa.Chained_exp.ma3_new_dests pa.Chained_exp.chained4_extra_dests)
         r.Chained_exp.sampled)
  in
  Alcotest.(check int) "sampled" 80 (List.length r.Chained_exp.sampled);
  Alcotest.(check string) "per-AS records"
    "a3b01004549f3cafd9db7b3ba97fc807"
    (Digest.to_hex (Digest.string records))

let with_temp_dir f =
  let dir = Filename.temp_file "panagree" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () ->
      Array.iter (fun f -> Sys.remove (Filename.concat dir f))
        (Sys.readdir dir);
      Sys.rmdir dir)
    (fun () -> f dir)

let read_lines path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> In_channel.input_lines ic)

let test_export_csv_escaping () =
  with_temp_dir (fun dir ->
      let path = Filename.concat dir "t.csv" in
      Export.write_csv ~path ~header:[ "a"; "b" ]
        [ [ "plain"; "with,comma" ]; [ "with\"quote"; "x" ] ];
      match read_lines path with
      | [ h; r1; r2 ] ->
          Alcotest.(check string) "header" "a,b" h;
          Alcotest.(check string) "comma escaped" "plain,\"with,comma\"" r1;
          Alcotest.(check string) "quote escaped" "\"with\"\"quote\",x" r2
      | _ -> Alcotest.fail "unexpected line count")

let test_export_fig2 () =
  with_temp_dir (fun dir ->
      let path = Filename.concat dir "fig2.csv" in
      let series =
        Fig2_pod.run ~ws:[ 2; 5 ] ~trials:5 ~seed:3 ~label:"U(1)" Fig2_pod.u1
      in
      Export.fig2 ~path [ series ];
      let lines = read_lines path in
      Alcotest.(check int) "header + 2 points" 3 (List.length lines))

let test_export_pair_metric () =
  with_temp_dir (fun dir ->
      let g = Lazy.force small_graph in
      let r = Geodistance.run ~sample_size:20 ~seed:5 g in
      let counts = Filename.concat dir "c.csv" in
      let improvements = Filename.concat dir "i.csv" in
      Export.pair_metric ~counts_csv:counts ~improvements_csv:improvements r;
      Alcotest.(check int) "one row per pair"
        (List.length r.Pair_analysis.pairs + 1)
        (List.length (read_lines counts));
      Alcotest.(check int) "one row per improvement"
        (List.length r.Pair_analysis.improvements + 1)
        (List.length (read_lines improvements)))

let test_export_resilience_and_chained () =
  with_temp_dir (fun dir ->
      let g = Lazy.force small_graph in
      let res = Resilience.run ~pairs:20 ~seed:5 g in
      let p1 = Filename.concat dir "r.csv" in
      Export.resilience ~path:p1 res;
      Alcotest.(check int) "resilience rows" 4 (List.length (read_lines p1));
      let ch = Chained_exp.run ~sample_size:10 ~seed:5 g in
      let p2 = Filename.concat dir "c.csv" in
      Export.chained ~path:p2 ch;
      Alcotest.(check int) "chained rows"
        (List.length ch.Chained_exp.sampled + 1)
        (List.length (read_lines p2)))

let test_export_topology_round_trip () =
  with_temp_dir (fun dir ->
      let g = Lazy.force small_graph in
      let path = Filename.concat dir "topo.as-rel2" in
      Export.topology ~path g;
      let g' = Caida.load path in
      Alcotest.(check int) "ases preserved" (Graph.num_ases g)
        (Graph.num_ases g'))

let suite =
  [
    Alcotest.test_case "resilience shape" `Quick test_resilience_shape;
    Alcotest.test_case "chained shape" `Quick test_chained_shape;
    Alcotest.test_case "chained golden: per-AS records" `Quick
      test_chained_golden;
    Alcotest.test_case "chained matches Extension" `Quick
      test_chained_matches_extension_stats;
    Alcotest.test_case "csv escaping" `Quick test_export_csv_escaping;
    Alcotest.test_case "export fig2" `Quick test_export_fig2;
    Alcotest.test_case "export pair metric" `Quick test_export_pair_metric;
    Alcotest.test_case "export resilience + chained" `Quick
      test_export_resilience_and_chained;
    Alcotest.test_case "export topology round trip" `Quick
      test_export_topology_round_trip;
  ]
