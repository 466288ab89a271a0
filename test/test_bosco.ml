(* Tests for the BOSCO mechanism (§V): claims, strategies, Algorithm 1
   (verified against brute force), equilibria, efficiency, and the
   theorem-level properties. *)

open Pan_numerics
open Pan_bosco

let approx = Alcotest.(check (float 1e-9))
let u1 = Distribution.uniform (-1.0) 1.0

(* ------------------------------------------------------------------ *)
(* Claim                                                               *)

let test_claim_of_list () =
  let c = Claim.of_list [ 0.5; -0.5; 0.0; 0.5 ] in
  let v = Claim.values c in
  Alcotest.(check int) "cancel + 3 distinct" 4 (Array.length v);
  Alcotest.(check bool) "first is cancel" true (v.(0) = neg_infinity);
  Alcotest.(check bool) "ascending" true (v.(1) < v.(2) && v.(2) < v.(3))

let test_claim_rejects_nan_inf () =
  (try
     ignore (Claim.of_list [ Float.nan ]);
     Alcotest.fail "NaN accepted"
   with Invalid_argument _ -> ());
  try
    ignore (Claim.of_list [ infinity ]);
    Alcotest.fail "+inf accepted"
  with Invalid_argument _ -> ()

let test_claim_sample () =
  let rng = Rng.create 3 in
  let c = Claim.sample rng u1 30 in
  let v = Claim.values c in
  Alcotest.(check bool) "cancel present" true (v.(0) = neg_infinity);
  Alcotest.(check bool) "at most w+1" true (Array.length v <= 31);
  Array.iteri
    (fun i x ->
      if i > 0 && (x < -1.0 || x > 1.0) then
        Alcotest.fail "sampled claim outside support")
    v

let test_claim_grid () =
  let c = Claim.grid u1 5 in
  let v = Claim.values c in
  Alcotest.(check int) "w+1 values" 6 (Array.length v);
  (* equally spaced over the central 98% *)
  let d1 = v.(2) -. v.(1) and d2 = v.(3) -. v.(2) in
  Alcotest.(check (float 1e-9)) "equal spacing" d1 d2

(* ------------------------------------------------------------------ *)
(* Strategy                                                            *)

let claims_small = Claim.of_list [ -0.5; 0.0; 0.5 ]

let test_truthful_rounding () =
  let s = Strategy.truthful_rounding claims_small in
  approx "below all claims -> cancel" neg_infinity (Strategy.apply s (-0.9));
  approx "rounds down" (-0.5) (Strategy.apply s (-0.2));
  approx "exact claim" 0.0 (Strategy.apply s 0.0);
  approx "top claim" 0.5 (Strategy.apply s 3.0)

let test_of_thresholds_validation () =
  (try
     ignore (Strategy.of_thresholds claims_small [| neg_infinity; infinity |]);
     Alcotest.fail "wrong arity accepted"
   with Invalid_argument _ -> ());
  try
    ignore
      (Strategy.of_thresholds claims_small
         [| neg_infinity; 1.0; 0.0; 0.5; infinity |]);
    Alcotest.fail "non-monotone accepted"
  with Invalid_argument _ -> ()

let test_choice_probabilities_sum_to_one () =
  let s = Strategy.truthful_rounding claims_small in
  let p = Strategy.choice_probabilities u1 s in
  let total = Array.fold_left ( +. ) 0.0 p in
  approx "probabilities sum to 1" 1.0 total;
  (* cancel region is [-inf, -0.5): mass 0.25 under U[-1,1] *)
  approx "cancel mass" 0.25 p.(0)

let test_line_coefficients_match_expectation () =
  (* m and q of Eq. 16/17 must reproduce Game.expected_after_utility_x *)
  let opp = Strategy.truthful_rounding claims_small in
  let own = Claim.of_list [ -0.3; 0.2; 0.7 ] in
  let lines =
    Pan_oracle.Strategy_reference.line_coefficients ~opponent_dist:u1
      ~opponent:opp own
  in
  let game =
    Game.{ dist_x = u1; dist_y = u1; claims_x = own; claims_y = claims_small }
  in
  Array.iteri
    (fun i v ->
      let m, q = lines.(i) in
      List.iter
        (fun u ->
          let direct = Game.expected_after_utility_x game ~opponent:opp ~u_x:u ~v_x:v in
          let linear = (m *. u) +. q in
          if Float.abs (direct -. linear) > 1e-9 then
            Alcotest.failf "line mismatch at claim %g, u %g: %g vs %g" v u
              direct linear)
        [ -0.8; -0.1; 0.0; 0.4; 0.9 ])
    (Claim.values own)

let test_cancel_line_is_zero () =
  let opp = Strategy.truthful_rounding claims_small in
  let own = Claim.of_list [ 0.1 ] in
  let lines =
    Pan_oracle.Strategy_reference.line_coefficients ~opponent_dist:u1
      ~opponent:opp own
  in
  let m, q = lines.(0) in
  approx "m of cancel" 0.0 m;
  approx "q of cancel" 0.0 q

(* Brute-force check of Algorithm 1: for a dense sweep of true utilities,
   the best response must pick the claim with maximal expected
   after-negotiation utility. *)
let best_response_agrees_with_bruteforce claims_x claims_y =
  let opp = Strategy.truthful_rounding claims_y in
  let br = Strategy.best_response ~opponent_dist:u1 ~opponent:opp claims_x in
  let game =
    Game.{ dist_x = u1; dist_y = u1; claims_x; claims_y }
  in
  let values = Claim.values claims_x in
  let rec sweep u =
    if u > 1.5 then true
    else begin
      let chosen = Strategy.apply br u in
      let best_value =
        Array.fold_left
          (fun acc v ->
            Float.max acc
              (Game.expected_after_utility_x game ~opponent:opp ~u_x:u ~v_x:v))
          neg_infinity values
      in
      let chosen_value =
        Game.expected_after_utility_x game ~opponent:opp ~u_x:u ~v_x:chosen
      in
      if Float.abs (best_value -. chosen_value) > 1e-9 then false
      else sweep (u +. 0.013)
    end
  in
  sweep (-1.5)

let test_best_response_bruteforce_small () =
  Alcotest.(check bool) "3-claim set" true
    (best_response_agrees_with_bruteforce
       (Claim.of_list [ -0.3; 0.2; 0.7 ])
       claims_small)

let test_best_response_bruteforce_random () =
  let rng = Rng.create 17 in
  for _ = 1 to 10 do
    let cx = Claim.sample rng u1 8 in
    let cy = Claim.sample rng u1 8 in
    if not (best_response_agrees_with_bruteforce cx cy) then
      Alcotest.fail "Algorithm 1 disagrees with brute force"
  done

let test_best_response_thresholds_monotone () =
  let rng = Rng.create 23 in
  for _ = 1 to 20 do
    let cx = Claim.sample rng u1 15 in
    let cy = Claim.sample rng u1 15 in
    let opp = Strategy.truthful_rounding cy in
    let br = Strategy.best_response ~opponent_dist:u1 ~opponent:opp cx in
    let th = Strategy.thresholds br in
    for i = 0 to Array.length th - 2 do
      if th.(i) > th.(i + 1) then Alcotest.fail "thresholds not monotone"
    done
  done

let test_support_size () =
  let s = Strategy.truthful_rounding claims_small in
  Alcotest.(check int) "all four claims played" 4
    (Strategy.support_size u1 s)

(* ------------------------------------------------------------------ *)
(* Game                                                                *)

let test_settle () =
  (match Game.settle ~u_x:1.0 ~u_y:1.0 ~v_x:0.6 ~v_y:(-0.2) with
  | Game.Concluded { transfer; u_x_after; u_y_after } ->
      approx "transfer" 0.4 transfer;
      approx "x after" 0.6 u_x_after;
      approx "y after" 1.4 u_y_after
  | Game.Cancelled -> Alcotest.fail "should conclude");
  match Game.settle ~u_x:1.0 ~u_y:1.0 ~v_x:0.1 ~v_y:(-0.2) with
  | Game.Cancelled -> ()
  | Game.Concluded _ -> Alcotest.fail "negative apparent surplus concluded"

let test_settle_cancel_claim () =
  match Game.settle ~u_x:5.0 ~u_y:5.0 ~v_x:Claim.cancel ~v_y:3.0 with
  | Game.Cancelled -> ()
  | Game.Concluded _ -> Alcotest.fail "cancel claim concluded"

let test_nash_value () =
  approx "cancelled" 0.0 (Game.nash_value ~u_x:1.0 ~u_y:1.0 Game.Cancelled);
  approx "concluded" 6.0
    (Game.nash_value ~u_x:0.0 ~u_y:0.0
       (Game.Concluded { transfer = 0.0; u_x_after = 2.0; u_y_after = 3.0 }))

(* ------------------------------------------------------------------ *)
(* Equilibrium                                                         *)

let small_game seed w =
  let rng = Rng.create seed in
  Game.
    {
      dist_x = u1;
      dist_y = u1;
      claims_x = Claim.sample rng u1 w;
      claims_y = Claim.sample rng u1 w;
    }

let test_dynamics_converge () =
  for seed = 1 to 10 do
    let game = small_game seed 12 in
    let eq = Equilibrium.best_response_dynamics game in
    Alcotest.(check bool) "converged" true eq.Equilibrium.converged;
    Alcotest.(check bool) "verifies as equilibrium" true
      (Equilibrium.is_equilibrium game eq.Equilibrium.strategy_x
         eq.Equilibrium.strategy_y)
  done

let test_truthful_not_equilibrium_generally () =
  (* with private information, truth-telling is generally NOT a Nash
     equilibrium of the claim game — the heart of §V-A *)
  let game = small_game 5 12 in
  let tx = Strategy.truthful_rounding game.Game.claims_x in
  let ty = Strategy.truthful_rounding game.Game.claims_y in
  Alcotest.(check bool) "truthful rounding is not an equilibrium" false
    (Equilibrium.is_equilibrium game tx ty)

let test_all_cancel_is_equilibrium () =
  (* the degenerate no-trade equilibrium exists and dynamics started
     there stay there *)
  let game = small_game 6 8 in
  let eq =
    Equilibrium.best_response_dynamics ~start:Equilibrium.All_cancel game
  in
  Alcotest.(check bool) "converged" true eq.Equilibrium.converged;
  Alcotest.(check int) "x plays only cancel" 1
    (Strategy.support_size game.Game.dist_x eq.Equilibrium.strategy_x)

(* ------------------------------------------------------------------ *)
(* Efficiency                                                          *)

let test_truthful_benchmark_u1 () =
  (* E(N | truth) for U(1) = ∬_{x+y>=0} ((x+y)/2)^2 /4 dx dy.
     Substituting s = x+y: the density of s is triangular on [-2,2] with
     peak 1/2 at 0; E = ∫_0^2 (s/2)^2 (2-s)/4 ds = 1/12 - 1/16 = 1/24
     ... computed directly: ∫_0^2 s^2/4 * (2-s)/4 ds
       = 1/16 ∫_0^2 (2s^2 - s^3) ds = 1/16 (16/3 - 4) = 1/12. *)
  let game =
    Game.{ dist_x = u1; dist_y = u1; claims_x = claims_small; claims_y = claims_small }
  in
  let v = Efficiency.expected_nash_truthful ~grid:600 game in
  if Float.abs (v -. (1.0 /. 12.0)) > 1e-3 then
    Alcotest.failf "truthful benchmark %f vs 1/12" v

let test_expected_nash_truthful_strategies_approach_benchmark () =
  (* with a very fine claim grid, truthful-rounding strategies approach
     the continuous truthful benchmark *)
  let claims = Claim.grid u1 400 in
  let game =
    Game.{ dist_x = u1; dist_y = u1; claims_x = claims; claims_y = claims }
  in
  let s = Strategy.truthful_rounding claims in
  let v = Efficiency.expected_nash game s s in
  let benchmark = Efficiency.expected_nash_truthful ~grid:600 game in
  if Float.abs (v -. benchmark) > 0.01 *. benchmark then
    Alcotest.failf "piecewise %f vs benchmark %f" v benchmark

let test_pod_properties () =
  for seed = 1 to 8 do
    let game = small_game seed 10 in
    let eq = Equilibrium.best_response_dynamics game in
    let pod =
      Efficiency.price_of_dishonesty game eq.Equilibrium.strategy_x
        eq.Equilibrium.strategy_y
    in
    if pod < -1e-6 || pod > 1.0 +. 1e-6 then
      Alcotest.failf "PoD %f outside [0,1] (Thm 3)" pod
  done

let test_pod_decreases_with_w () =
  (* more claims help: mean PoD at W=40 below mean PoD at W=2 *)
  let rng = Rng.create 31 in
  let mean_pod w =
    let reports = Service.trials ~rng ~dist_x:u1 ~dist_y:u1 ~w ~n:20 () in
    Service.mean_pod reports
  in
  let coarse = mean_pod 2 in
  let fine = mean_pod 40 in
  Alcotest.(check bool) "PoD improves with richer choice sets" true
    (fine < coarse)

(* ------------------------------------------------------------------ *)
(* Properties (Theorems 1-4)                                           *)

let equilibrium_of game =
  let eq = Equilibrium.best_response_dynamics game in
  (eq.Equilibrium.strategy_x, eq.Equilibrium.strategy_y)

let test_theorem1_individual_rationality () =
  for seed = 1 to 6 do
    let game = small_game seed 10 in
    let sx, sy = equilibrium_of game in
    Alcotest.(check bool) "Thm 1" true
      (Properties.individual_rationality (Rng.create (seed * 7)) game sx sy)
  done

let test_theorem2_soundness () =
  for seed = 1 to 6 do
    let game = small_game seed 10 in
    let sx, sy = equilibrium_of game in
    Alcotest.(check bool) "Thm 2" true
      (Properties.soundness (Rng.create (seed * 13)) game sx sy)
  done

let test_theorem4_privacy () =
  for seed = 1 to 6 do
    let game = small_game seed 10 in
    let sx, sy = equilibrium_of game in
    Alcotest.(check bool) "Thm 4" true
      (Properties.privacy sx && Properties.privacy sy);
    let shortest = Properties.shortest_interval sx in
    Alcotest.(check bool) "positive shortest interval" true (shortest > 0.0)
  done

let test_budget_balance () =
  Alcotest.(check bool) "balance" true
    (Properties.budget_balance
       (Game.settle ~u_x:1.0 ~u_y:0.5 ~v_x:0.4 ~v_y:0.1))

(* individual rationality can fail for NON-equilibrium strategies,
   showing the check has teeth *)
let test_rationality_check_has_teeth () =
  let claims = Claim.of_list [ 5.0 ] in
  (* a party that always claims 5.0 even with terrible true utility *)
  let overclaim =
    Strategy.of_thresholds claims [| neg_infinity; neg_infinity; infinity |]
  in
  let game =
    Game.{ dist_x = u1; dist_y = u1; claims_x = claims; claims_y = claims }
  in
  Alcotest.(check bool) "overclaiming violates rationality" false
    (Properties.individual_rationality (Rng.create 2) game overclaim overclaim)

(* ------------------------------------------------------------------ *)
(* Service                                                             *)

let test_service_negotiate_and_verify () =
  let rng = Rng.create 4 in
  let r = Service.negotiate ~rng ~dist_x:u1 ~dist_y:u1 ~w:25 () in
  Alcotest.(check bool) "converged" true r.Service.converged;
  Alcotest.(check bool) "verifies" true (Service.verify r);
  Alcotest.(check bool) "pod in range" true
    (r.Service.pod >= -1e-6 && r.Service.pod <= 1.0 +. 1e-6)

let test_service_trials_and_best () =
  let rng = Rng.create 8 in
  let reports = Service.trials ~rng ~dist_x:u1 ~dist_y:u1 ~w:15 ~n:10 () in
  Alcotest.(check int) "ten runs" 10 (List.length reports);
  let best = Service.best reports in
  List.iter
    (fun (r : Service.report) ->
      Alcotest.(check bool) "best is minimal" true
        (best.Service.pod <= r.Service.pod))
    reports;
  approx "min accessor" best.Service.pod (Service.min_pod reports);
  Alcotest.(check bool) "mean >= min" true
    (Service.mean_pod reports >= Service.min_pod reports -. 1e-12)

let test_service_grid_construction () =
  let rng = Rng.create 9 in
  let r =
    Service.negotiate ~construction:Service.Grid ~rng ~dist_x:u1 ~dist_y:u1
      ~w:20 ()
  in
  Alcotest.(check bool) "grid negotiation verifies" true (Service.verify r)

(* ------------------------------------------------------------------ *)
(* Workspace: scratch only, whatever ran through it before             *)

(* A long-lived workspace (the marketplace keeps one per domain) serves
   negotiations of every choice-set size in turn, its buffers grown by
   the largest and dirty from the last.  Each negotiation must equal the
   same one through a fresh workspace bit for bit. *)
let test_workspace_reuse_across_negotiations () =
  let shared = Workspace.create () in
  let sizes = [| 4; 24; 8; 48; 1; 16; 32 |] in
  let dists = [| u1; Distribution.uniform (-0.5) 1.0 |] in
  let truthful =
    Array.map
      (fun dist_y ->
        Efficiency.expected_nash_truthful
          Game.
            {
              dist_x = u1;
              dist_y;
              claims_x = Claim.of_list [];
              claims_y = Claim.of_list [];
            })
      dists
  in
  let bits a = Array.map Int64.bits_of_float a in
  for n = 0 to 199 do
    let w = sizes.(n mod Array.length sizes) and d = n mod 2 in
    let run workspace =
      Service.negotiate ~truthful:truthful.(d) ?workspace
        ~rng:(Rng.create (1000 + n)) ~dist_x:u1 ~dist_y:dists.(d) ~w ()
    in
    let fresh = run None and reused = run (Some shared) in
    let same =
      Int64.bits_of_float fresh.Service.pod
      = Int64.bits_of_float reused.Service.pod
      && fresh.Service.rounds = reused.Service.rounds
      && fresh.Service.converged = reused.Service.converged
      && bits (Strategy.thresholds fresh.Service.strategy_x)
         = bits (Strategy.thresholds reused.Service.strategy_x)
      && bits (Strategy.thresholds fresh.Service.strategy_y)
         = bits (Strategy.thresholds reused.Service.strategy_y)
      && fresh.Service.equilibrium_choices_x
         = reused.Service.equilibrium_choices_x
      && fresh.Service.equilibrium_choices_y
         = reused.Service.equilibrium_choices_y
    in
    if not same then
      Alcotest.failf "negotiation %d (W = %d): reused workspace differs" n w
  done

let suite =
  [
    Alcotest.test_case "claim of_list" `Quick test_claim_of_list;
    Alcotest.test_case "claim rejects nan/inf" `Quick
      test_claim_rejects_nan_inf;
    Alcotest.test_case "claim sample" `Quick test_claim_sample;
    Alcotest.test_case "claim grid" `Quick test_claim_grid;
    Alcotest.test_case "truthful rounding" `Quick test_truthful_rounding;
    Alcotest.test_case "of_thresholds validation" `Quick
      test_of_thresholds_validation;
    Alcotest.test_case "choice probabilities" `Quick
      test_choice_probabilities_sum_to_one;
    Alcotest.test_case "line coefficients = Eq. 14" `Quick
      test_line_coefficients_match_expectation;
    Alcotest.test_case "cancel line is zero" `Quick test_cancel_line_is_zero;
    Alcotest.test_case "Alg. 1 vs brute force (small)" `Quick
      test_best_response_bruteforce_small;
    Alcotest.test_case "Alg. 1 vs brute force (random)" `Quick
      test_best_response_bruteforce_random;
    Alcotest.test_case "best-response thresholds monotone" `Quick
      test_best_response_thresholds_monotone;
    Alcotest.test_case "support size" `Quick test_support_size;
    Alcotest.test_case "settle" `Quick test_settle;
    Alcotest.test_case "settle with cancel claim" `Quick
      test_settle_cancel_claim;
    Alcotest.test_case "nash value" `Quick test_nash_value;
    Alcotest.test_case "dynamics converge to equilibria" `Quick
      test_dynamics_converge;
    Alcotest.test_case "truthful is not an equilibrium" `Quick
      test_truthful_not_equilibrium_generally;
    Alcotest.test_case "all-cancel equilibrium" `Quick
      test_all_cancel_is_equilibrium;
    Alcotest.test_case "truthful benchmark (analytic 1/12)" `Quick
      test_truthful_benchmark_u1;
    Alcotest.test_case "piecewise E(N) matches benchmark" `Quick
      test_expected_nash_truthful_strategies_approach_benchmark;
    Alcotest.test_case "PoD in [0,1] (Thm 3)" `Quick test_pod_properties;
    Alcotest.test_case "PoD decreases with W" `Slow test_pod_decreases_with_w;
    Alcotest.test_case "Thm 1: individual rationality" `Quick
      test_theorem1_individual_rationality;
    Alcotest.test_case "Thm 2: soundness" `Quick test_theorem2_soundness;
    Alcotest.test_case "Thm 4: privacy" `Quick test_theorem4_privacy;
    Alcotest.test_case "budget balance" `Quick test_budget_balance;
    Alcotest.test_case "rationality check has teeth" `Quick
      test_rationality_check_has_teeth;
    Alcotest.test_case "service negotiate + verify" `Quick
      test_service_negotiate_and_verify;
    Alcotest.test_case "service trials + best" `Quick
      test_service_trials_and_best;
    Alcotest.test_case "service grid construction" `Quick
      test_service_grid_construction;
    Alcotest.test_case "workspace reuse across 200 negotiations = fresh"
      `Quick test_workspace_reuse_across_negotiations;
  ]
