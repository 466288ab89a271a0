(* The fast (unboxed, SoA) econ kernels against the map-based
   Traffic_model evaluation: qcheck equivalence over randomized scenarios
   and decision vectors, degenerate cases, batch Nash helpers, and a
   hex-float golden pinning the optimizers to the map-based output from
   before the kernel swap. *)

open Pan_topology
open Pan_numerics
open Pan_econ

let tol = 1e-12

(* |ref − fast| ≤ tol·max(1, |ref|), the same envelope the BOSCO kernel
   suite uses.  The econ kernels are designed to be bit-identical, so
   this is a weaker bound than what the goldens below pin — but it is the
   documented contract. *)
let close x y =
  x = y || Float.abs (x -. y) <= tol *. Float.max 1.0 (Float.abs x)

let utilities_agree s choices =
  let model = Model_fast.compile s in
  match (Traffic_model.utilities s choices, Model_fast.utilities model choices)
  with
  | Ok (rx, ry), Ok (fx, fy) -> close rx fx && close ry fy
  | Error e_ref, Error e_fast -> String.equal e_ref e_fast
  | Ok _, Error _ | Error _, Ok _ -> false

(* ------------------------------------------------------------------ *)
(* qcheck: fast ≡ reference on random scenarios and random vectors     *)

let random_choices rng s =
  (* Scale each demand's forecast maximum by a random factor; factors a
     bit above 1 push the vector out of the box so the validation-error
     paths (identical messages) are exercised too. *)
  List.map
    (fun (c : Traffic_model.choice) ->
      {
        Traffic_model.reroute = c.Traffic_model.reroute *. Rng.float rng *. 1.1;
        attracted = c.Traffic_model.attracted *. Rng.float rng *. 1.1;
      })
    (Traffic_model.full_choice s)

let qcheck_fast_equals_reference =
  QCheck.Test.make ~count:200
    ~name:"fast utilities = reference (all slots, 1e-12)"
    QCheck.(int_range 1 100_000)
    (fun seed ->
      let g = Gen.fig1 () in
      let d = Gen.fig1_asn 'D' and e = Gen.fig1_asn 'E' in
      let rng = Rng.create seed in
      let s = Scenario_gen.random_scenario rng g ~x:d ~y:e in
      List.for_all
        (fun choices -> utilities_agree s choices)
        [
          Traffic_model.zero_choice s;
          Traffic_model.full_choice s;
          random_choices rng s;
          random_choices rng s;
        ])

let qcheck_nash_objective_equals_reference =
  QCheck.Test.make ~count:100 ~name:"nash objective = reference penalty form"
    QCheck.(int_range 1 100_000)
    (fun seed ->
      let g = Gen.fig1 () in
      let d = Gen.fig1_asn 'D' and e = Gen.fig1_asn 'E' in
      let rng = Rng.create seed in
      let s = Scenario_gen.random_scenario rng g ~x:d ~y:e in
      let model = Model_fast.compile s in
      let choices = random_choices rng s in
      let vector =
        Array.concat
          (List.map
             (fun (c : Traffic_model.choice) ->
               [| c.Traffic_model.reroute; c.Traffic_model.attracted |])
             choices)
      in
      let fast = Model_fast.nash_objective model vector in
      let reference =
        match Traffic_model.utilities s choices with
        | Error _ -> neg_infinity
        | Ok (ux, uy) ->
            let worst = Float.min ux uy in
            if worst < 0.0 then worst else ux *. uy
      in
      fast = reference)

(* ------------------------------------------------------------------ *)
(* Unit: exact equality on the worked examples and degenerate cases    *)

let bits = Int64.bits_of_float

let check_bits ctx expect actual =
  Alcotest.(check int64) ctx (bits expect) (bits actual)

let test_fig1_bit_identical () =
  List.iter
    (fun (_, s) ->
      let model = Model_fast.compile s in
      List.iter
        (fun choices ->
          match
            ( Traffic_model.utilities s choices,
              Model_fast.utilities model choices )
          with
          | Ok (rx, ry), Ok (fx, fy) ->
              check_bits "u_x bits" rx fx;
              check_bits "u_y bits" ry fy
          | Error e_ref, Error e_fast ->
              Alcotest.(check string) "error" e_ref e_fast
          | _ -> Alcotest.fail "kernels disagree on feasibility")
        [ Traffic_model.zero_choice s; Traffic_model.full_choice s ])
    [ Scenario_gen.fig1_scenario (); Scenario_gen.fig1_peering_scenario () ]

let test_zero_traffic_neutral () =
  (* Degenerate: the all-zero choice changes nothing, so both kernels
     must report exactly (0, 0) agreement utility. *)
  let _, s = Scenario_gen.fig1_scenario () in
  let model = Model_fast.compile s in
  let fx, fy = Model_fast.utilities_exn model (Traffic_model.zero_choice s) in
  check_bits "zero u_x" 0.0 fx;
  check_bits "zero u_y" 0.0 fy

let test_single_flow () =
  (* Degenerate: only the first demand used, the rest zero. *)
  let _, s = Scenario_gen.fig1_scenario () in
  let model = Model_fast.compile s in
  let choices =
    List.mapi
      (fun i (c : Traffic_model.choice) ->
        if i = 0 then c else { Traffic_model.reroute = 0.0; attracted = 0.0 })
      (Traffic_model.full_choice s)
  in
  let rx, ry = Traffic_model.utilities_exn s choices in
  let fx, fy = Model_fast.utilities_exn model choices in
  check_bits "single u_x" rx fx;
  check_bits "single u_y" ry fy

let test_vector_and_list_agree () =
  let _, s = Scenario_gen.fig1_scenario () in
  let model = Model_fast.compile s in
  let choices = Traffic_model.full_choice s in
  let vector =
    Array.concat
      (List.map
         (fun (c : Traffic_model.choice) ->
           [| c.Traffic_model.reroute; c.Traffic_model.attracted |])
         choices)
  in
  match
    (Model_fast.utilities model choices, Model_fast.utilities_vector model vector)
  with
  | Ok (lx, ly), Ok (vx, vy) ->
      check_bits "vector u_x" lx vx;
      check_bits "vector u_y" ly vy
  | _ -> Alcotest.fail "vector and list evaluation disagree"

let test_wrong_length_rejected () =
  let _, s = Scenario_gen.fig1_scenario () in
  let model = Model_fast.compile s in
  (match Model_fast.utilities model [] with
  | Error msg ->
      Alcotest.(check string) "same message as reference"
        (match Traffic_model.utilities s [] with
        | Error m -> m
        | Ok _ -> "reference accepted an empty choice list")
        msg
  | Ok _ -> Alcotest.fail "empty choice list accepted");
  match Model_fast.utilities_vector model [| 0.0 |] with
  | Error msg ->
      Alcotest.(check string) "vector length" "choice list length mismatch" msg
  | Ok _ -> Alcotest.fail "short vector accepted"

(* ------------------------------------------------------------------ *)
(* Batch entry points                                                  *)

let test_batch_equals_scalar () =
  let _, s = Scenario_gen.fig1_scenario () in
  let model = Model_fast.compile s in
  let n = Model_fast.n_demands model in
  let rng = Rng.create 11 in
  let m = 7 in
  let vectors =
    Array.init
      (m * 2 * n)
      (fun i -> if i mod 3 = 0 then 0.0 else Rng.float rng *. 2.0)
  in
  let ws = Econ_workspace.create () in
  let out_x = Array.make m Float.nan and out_y = Array.make m Float.nan in
  Model_fast.utilities_batch ~workspace:ws model ~vectors ~m ~out_x ~out_y;
  for k = 0 to m - 1 do
    let v = Array.sub vectors (k * 2 * n) (2 * n) in
    match Model_fast.utilities_vector ~workspace:ws model v with
    | Ok (ux, uy) ->
        check_bits "batch u_x" ux out_x.(k);
        check_bits "batch u_y" uy out_y.(k)
    | Error e -> Alcotest.fail ("batch vector infeasible: " ^ e)
  done

let test_nash_batch_helpers () =
  let u_x = [| 2.0; -1.0; 10.0; 1.0 |] and u_y = [| 3.0; 3.0; 2.0; -3.0 |] in
  let n = 4 in
  let prod = Array.make n Float.nan in
  Nash.product_into ~n ~u_x ~u_y prod;
  Array.iteri
    (fun i p -> check_bits "product" (Nash.product u_x.(i) u_y.(i)) p)
    prod;
  let surp = Array.make n Float.nan in
  Nash.surplus_into ~n ~u_x ~u_y surp;
  Array.iteri
    (fun i v ->
      check_bits "surplus" (Nash.surplus ~u_x:u_x.(i) ~u_y:u_y.(i)) v)
    surp;
  let out_x = Array.make n Float.nan and out_y = Array.make n Float.nan in
  let viable = Nash.after_transfer_into ~n ~u_x ~u_y ~out_x ~out_y in
  Alcotest.(check int) "viable count" 3 viable;
  Array.iteri
    (fun i _ ->
      match Nash.after_transfer ~u_x:u_x.(i) ~u_y:u_y.(i) with
      | Some (ax, ay) ->
          check_bits "after x" ax out_x.(i);
          check_bits "after y" ay out_y.(i)
      | None ->
          check_bits "non-viable x" 0.0 out_x.(i);
          check_bits "non-viable y" 0.0 out_y.(i))
    out_x

(* ------------------------------------------------------------------ *)
(* Flows SoA round-trip                                                *)

let test_flows_sorted_arrays_roundtrip () =
  let d = Gen.fig1_asn in
  let f =
    Flows.of_list [ (d 'A', 4.0); (d 'B', 2.5); (d 'F', 0.0); (d 'H', 1.0) ]
  in
  let keys, vals = Flows.to_sorted_arrays f in
  Alcotest.(check int) "lengths" (Array.length keys) (Array.length vals);
  Alcotest.(check bool) "ascending" true
    (Array.for_all2
       (fun a b -> Asn.compare a b < 0)
       (Array.sub keys 0 (Array.length keys - 1))
       (Array.sub keys 1 (Array.length keys - 1)));
  let g = Flows.of_sorted_arrays keys vals in
  check_bits "total preserved" (Flows.total f) (Flows.total g);
  List.iter
    (fun asn ->
      check_bits "flow preserved" (Flows.flow_to f asn) (Flows.flow_to g asn))
    [ d 'A'; d 'B'; d 'F'; d 'H' ]

(* ------------------------------------------------------------------ *)
(* Golden: the optimizers across the kernel swap                       *)

(* Captured from the map-based Flow_volume_opt.optimize and
   Cash_opt.optimize on fig1_scenario BEFORE the fast kernel became the
   default (hex literals: exact bytes).  The fast kernel must match them
   exactly (it is bit-identical, so the optimizer walks the same
   simplex). *)
let golden_u_x = 0x1.62e158731b5dcp+2
let golden_u_y = 0x1.429e31eb23a18p+2
let golden_nash = 0x1.bf3abd8877a5cp+4

let golden_choices =
  [ (0x0p+0, 0x1p+2); (0x1p+1, 0x1p+1); (0x1.090498518a082p+2, 0x1.8p+1) ]

let golden_cash = (0x1.5333333333334p+3, -0x1.666666666668p-1, 0x1.699999999999cp+2)

let check_fv_result (r : Flow_volume_opt.result) =
  Alcotest.(check bool) "concluded" true r.Flow_volume_opt.concluded;
  check_bits "u_x" golden_u_x r.Flow_volume_opt.u_x;
  check_bits "u_y" golden_u_y r.Flow_volume_opt.u_y;
  check_bits "nash" golden_nash r.Flow_volume_opt.nash;
  List.iter2
    (fun (gr, ga) (c : Traffic_model.choice) ->
      check_bits "choice reroute" gr c.Traffic_model.reroute;
      check_bits "choice attracted" ga c.Traffic_model.attracted)
    golden_choices r.Flow_volume_opt.choices

let test_golden_optimize () =
  let _, s = Scenario_gen.fig1_scenario () in
  check_fv_result (Flow_volume_opt.optimize s);
  let gx, gy, gt = golden_cash in
  let c = Cash_opt.optimize s in
  Alcotest.(check bool) "cash concluded" true c.Cash_opt.concluded;
  check_bits "cash u_x" gx c.Cash_opt.u_x;
  check_bits "cash u_y" gy c.Cash_opt.u_y;
  check_bits "cash transfer" gt c.Cash_opt.transfer

let suite =
  [
    QCheck_alcotest.to_alcotest qcheck_fast_equals_reference;
    QCheck_alcotest.to_alcotest qcheck_nash_objective_equals_reference;
    Alcotest.test_case "fig1 scenarios bit-identical" `Quick
      test_fig1_bit_identical;
    Alcotest.test_case "zero-traffic choice is neutral" `Quick
      test_zero_traffic_neutral;
    Alcotest.test_case "single-flow degenerate" `Quick test_single_flow;
    Alcotest.test_case "vector = list evaluation" `Quick
      test_vector_and_list_agree;
    Alcotest.test_case "wrong lengths rejected like reference" `Quick
      test_wrong_length_rejected;
    Alcotest.test_case "batch = scalar (bitwise)" `Quick
      test_batch_equals_scalar;
    Alcotest.test_case "Nash batch helpers = scalar" `Quick
      test_nash_batch_helpers;
    Alcotest.test_case "Flows sorted-arrays round-trip" `Quick
      test_flows_sorted_arrays_roundtrip;
    Alcotest.test_case "golden: optimizers across kernels" `Quick
      test_golden_optimize;
  ]
