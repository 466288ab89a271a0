(* The fast best-response kernel against the O(W²) reference of the
   oracle library, the prefix-sum helpers behind it, and a golden pinning
   the pipeline's decisions to its pre-kernel-swap output. *)

open Pan_numerics
open Pan_bosco
module Reference = Pan_oracle.Strategy_reference

let tol = 1e-12
let u1 = Distribution.uniform (-1.0) 1.0

(* ------------------------------------------------------------------ *)
(* Prefix-sum helpers                                                  *)

let test_exclusive_sums () =
  Alcotest.(check (array (float 0.0)))
    "sums" [| 0.0; 1.0; 3.0; 6.0 |]
    (Prefix.exclusive_sums [| 1.0; 2.0; 3.0 |]);
  Alcotest.(check (array (float 0.0))) "empty" [| 0.0 |]
    (Prefix.exclusive_sums [||]);
  let dst = Array.make 6 Float.nan in
  Prefix.exclusive_sums_into ~dst [| 1.0; 2.0; 3.0 |];
  Alcotest.(check (float 0.0)) "into last used" 6.0 dst.(3);
  Alcotest.(check bool) "into spare untouched" true (Float.is_nan dst.(4));
  Alcotest.check_raises "into too short"
    (Invalid_argument "Prefix.exclusive_sums_into: dst too short") (fun () ->
      Prefix.exclusive_sums_into ~dst:(Array.make 2 0.0) [| 1.0; 2.0 |])

let test_suffix_sums () =
  Alcotest.(check (array (float 0.0)))
    "sums" [| 6.0; 5.0; 3.0; 0.0 |]
    (Prefix.suffix_sums [| 1.0; 2.0; 3.0 |]);
  Alcotest.(check (array (float 0.0))) "empty" [| 0.0 |]
    (Prefix.suffix_sums [||]);
  (* the point of suffix sums: a tiny tail keeps full relative
     precision instead of inheriting the total's absolute error *)
  let tiny = 1e-18 in
  let sums = Prefix.suffix_sums [| 1.0; 1.0; tiny |] in
  Alcotest.(check (float 0.0)) "tiny tail exact" tiny sums.(2)

let test_range_sum () =
  let sums = Prefix.exclusive_sums [| 1.0; 2.0; 3.0; 4.0 |] in
  Alcotest.(check (float 0.0)) "middle" 5.0 (Prefix.range_sum sums 1 3);
  Alcotest.(check (float 0.0)) "all" 10.0 (Prefix.range_sum sums 0 4);
  Alcotest.(check (float 0.0)) "empty" 0.0 (Prefix.range_sum sums 2 2)

let test_lower_bound () =
  let xs = [| 1.0; 2.0; 2.0; 5.0 |] in
  Alcotest.(check int) "first of run" 1 (Prefix.lower_bound xs 2.0);
  Alcotest.(check int) "below all" 0 (Prefix.lower_bound xs 0.0);
  Alcotest.(check int) "above all" 4 (Prefix.lower_bound xs 6.0);
  Alcotest.(check int) "between" 3 (Prefix.lower_bound xs 3.0);
  Alcotest.(check int) "restricted lo" 2
    (Prefix.lower_bound ~lo:2 ~hi:4 xs 2.0);
  Alcotest.(check int) "restricted hi" 2 (Prefix.lower_bound ~lo:1 ~hi:2 xs 9.0)

(* ------------------------------------------------------------------ *)
(* Fast kernel ≡ reference oracle                                      *)

let dist_of_pick pick =
  match pick mod 4 with
  | 0 -> Distribution.uniform (-1.0) 1.0
  | 1 -> Distribution.uniform (-0.3) 1.7
  | 2 -> Distribution.triangular (-1.0) 0.25 1.0
  | _ -> Distribution.gaussian 0.1 0.6

(* |ref − fast| ≤ tol·max(1, |ref|): an envelope crossing far from the
   origin scales both kernels' reassociation error by its magnitude, so
   the bound goes relative past 1. *)
let thresholds_close a b =
  Array.length a = Array.length b
  && Array.for_all2
       (fun x y ->
         x = y || Float.abs (x -. y) <= tol *. Float.max 1.0 (Float.abs x))
       a b

(* A claim list that deliberately contains exact duplicates (quantized
   samples), so the dedup in Claim.of_list and zero-width strategy
   intervals are both exercised. *)
let quantized_claims rng dist w =
  Claim.of_list
    (List.init w (fun _ ->
         Float.round (Distribution.sample dist rng *. 8.0) /. 8.0))

let qcheck_fast_equals_reference =
  QCheck.Test.make ~count:120 ~name:"fast best response = reference (1e-12)"
    QCheck.(pair (int_range 1 10_000) (int_range 1 40))
    (fun (seed, w) ->
      let rng = Rng.create seed in
      let dist_own = dist_of_pick seed and dist_opp = dist_of_pick (seed + 1) in
      let own =
        if seed mod 5 = 0 then quantized_claims rng dist_own w
        else Claim.sample rng dist_own w
      in
      let opp_claims =
        if w = 1 then Claim.of_list [] (* degenerate: cancel only *)
        else Claim.sample rng dist_opp w
      in
      let ws = Workspace.create () in
      (* Walk a few dynamics steps so the opponent strategies tested
         include realistic ones with collapsed (zero-probability)
         intervals, not just truthful rounding. *)
      let opponent = ref (Strategy.truthful_rounding opp_claims) in
      let ok = ref true in
      for _ = 0 to 2 do
        let reference =
          Reference.best_response_reference ~opponent_dist:dist_opp
            ~opponent:!opponent own
        in
        let fast =
          Strategy.best_response ~workspace:ws ~opponent_dist:dist_opp
            ~opponent:!opponent own
        in
        if
          not
            (thresholds_close
               (Strategy.thresholds reference)
               (Strategy.thresholds fast))
        then ok := false;
        (* next round: the roles flip, using the reference response so
           both kernels keep seeing identical inputs *)
        opponent :=
          Reference.best_response_reference ~opponent_dist:dist_own
            ~opponent:reference opp_claims
      done;
      !ok)

let test_degenerate_cancel_only () =
  let own = Claim.of_list [] in
  let opp = Strategy.truthful_rounding (Claim.of_list [ 0.4; -0.2 ]) in
  let dist = Distribution.uniform (-1.0) 1.0 in
  let fast = Strategy.best_response ~opponent_dist:dist ~opponent:opp own in
  let reference =
    Reference.best_response_reference ~opponent_dist:dist ~opponent:opp own
  in
  Alcotest.(check bool) "W=1 equal" true (Strategy.equal ~tol fast reference);
  Alcotest.(check (array (float 0.0)))
    "W=1 thresholds" [| neg_infinity; infinity |]
    (Strategy.thresholds fast)

(* The kernel writes the probabilities into workspace scratch that is
   longer than W and dirty: the first W elements must be the fresh
   array's bits, and the rest must stay untouched. *)
let test_workspace_probs_bit_identical () =
  let rng = Rng.create 9 in
  let dist = Distribution.uniform (-1.0) 1.0 in
  let s = Strategy.truthful_rounding (Claim.sample rng dist 15) in
  let w = Claim.cardinality (Strategy.claims s) in
  let dst = Array.make (w + 3) Float.nan in
  Strategy.choice_probabilities_into dist s dst;
  let plain = Strategy.choice_probabilities dist s in
  Alcotest.(check bool) "bitwise equal" true (Array.sub dst 0 w = plain);
  Alcotest.(check bool) "spare untouched" true
    (Array.for_all Float.is_nan (Array.sub dst w 3))

(* Random strategies with +/-inf ends, repeated threshold points
   (zero-width intervals) and points outside the support: one CDF
   evaluation per point gives the two-evaluation form's bits, fresh and
   written into dirty scratch. *)
let qcheck_one_evaluation_probabilities =
  QCheck.Test.make ~count:300
    ~name:"one-evaluation probabilities = two-evaluation form (bits)"
    QCheck.(
      triple (int_range 0 2) (int_range 1 40)
        (list_of_size Gen.(int_range 0 60) (int_range (-24) 24)))
    (fun (pick, w, points) ->
      let dist =
        match pick with
        | 0 -> Distribution.uniform (-1.0) 1.0
        | 1 -> Distribution.uniform (-0.3) 1.7
        | _ -> Distribution.gaussian 0.1 0.6
      in
      (* points on a 1/16 grid up to 1.5 on each side: many coincide,
         and the uniform supports end inside the range *)
      let grid =
        Array.of_list (List.map (fun p -> float_of_int p /. 16.0) points)
      in
      Array.sort compare grid;
      let n = Array.length grid in
      let inner =
        Array.init (w - 1) (fun i -> if n = 0 then 0.0 else grid.(i * n / w))
      in
      let thresholds =
        Array.concat [ [| neg_infinity |]; inner; [| infinity |] ]
      in
      let claims = Claim.of_list (List.init (w - 1) float_of_int) in
      let s = Strategy.of_thresholds claims thresholds in
      let bits a = Array.map Int64.bits_of_float a in
      let reference = bits (Reference.choice_probabilities_reference dist s) in
      let dst = Array.make (w + 2) 7.0 in
      Strategy.choice_probabilities_into dist s dst;
      bits (Strategy.choice_probabilities dist s) = reference
      && bits (Array.sub dst 0 w) = reference
      && dst.(w) = 7.0 && dst.(w + 1) = 7.0)

(* A best-response round through a warmed workspace allocates its two
   strategies, the boxed arguments and results of the CDF closure and a
   few words of call overhead: at most 32 words per threshold point. *)
let test_round_allocation_budget () =
  let w = 24 in
  let rng = Rng.create 42 in
  let game =
    Game.
      {
        dist_x = u1;
        dist_y = u1;
        claims_x = Claim.sample rng u1 w;
        claims_y = Claim.sample rng u1 w;
      }
  in
  let workspace = Workspace.create () in
  ignore (Equilibrium.best_response_dynamics ~workspace game);
  let before = Gc.minor_words () in
  let eq = Equilibrium.best_response_dynamics ~workspace game in
  let words = Gc.minor_words () -. before in
  let per_round = words /. float_of_int eq.Equilibrium.rounds in
  if per_round > float_of_int (32 * (w + 1)) then
    Alcotest.failf "%.0f minor words per round over %d rounds (budget %d)"
      per_round eq.Equilibrium.rounds
      (32 * (w + 1))

let test_strategy_equal_claim_tol () =
  (* Satellite check: Strategy.equal compares claims with the same
     tolerance as thresholds, so claim sets differing below tol cannot
     break a fixed point that the thresholds have reached. *)
  let c1 = Claim.of_list [ 0.5; -0.25 ] in
  let c2 = Claim.of_list [ 0.5 +. 1e-13; -0.25 ] in
  let s1 = Strategy.truthful_rounding c1 in
  let s2 =
    Strategy.of_thresholds c2 (Strategy.thresholds s1 |> Array.copy)
  in
  Alcotest.(check bool) "claims within tol equal" true
    (Strategy.equal ~tol:1e-9 s1 s2);
  Alcotest.(check bool) "claims beyond tol differ" false
    (Strategy.equal ~tol:1e-15 s1 s2)

(* ------------------------------------------------------------------ *)
(* Golden: the pipeline's output across the kernel swap                *)

(* (pod, rounds, converged, choices_x, choices_y) captured from
   Service.trials BEFORE the fast kernel existed (hex literals: exact
   bytes).  The fast kernel must agree on every decision and match pod
   to 1e-12. *)
let golden_random =
  [
    (0x1.228c0ab948108p-2, 19, true, 3, 3);
    (0x1.525de0f04e3p-3, 26, true, 3, 3);
    (0x1.15ca33427087cp-2, 29, true, 3, 3);
    (0x1.0882d9875f702p-2, 31, true, 3, 3);
    (0x1.b3190b4fd0fap-3, 34, true, 3, 3);
    (0x1.787ce821f7e3p-3, 27, true, 4, 4);
  ]

let golden_grid =
  List.init 4 (fun _ -> (0x1.4fa5dce58e38p-3, 54, true, 4, 4))

let check_reports golden reports =
  Alcotest.(check int) "report count" (List.length golden)
    (List.length reports);
  List.iteri
    (fun i ((pod, rounds, converged, cx, cy), (r : Service.report)) ->
      let ctx fmt = Printf.sprintf "report %d: %s" i fmt in
      Alcotest.(check bool)
        (ctx "pod within 1e-12")
        true
        (Float.abs (pod -. r.Service.pod) <= 1e-12);
      Alcotest.(check int) (ctx "rounds") rounds r.Service.rounds;
      Alcotest.(check bool) (ctx "converged") converged r.Service.converged;
      Alcotest.(check int) (ctx "choices_x") cx r.Service.equilibrium_choices_x;
      Alcotest.(check int) (ctx "choices_y") cy r.Service.equilibrium_choices_y)
    (List.combine golden reports)

let random_trials () =
  Service.trials ~rng:(Rng.create 42) ~dist_x:u1 ~dist_y:u1 ~w:12 ~n:6 ()

let grid_trials () =
  Service.trials ~construction:Service.Grid ~rng:(Rng.create 7)
    ~dist_x:(Distribution.uniform (-0.5) 1.0)
    ~dist_y:u1 ~w:9 ~n:4 ()

let test_golden_fast_close () =
  check_reports golden_random (random_trials ());
  check_reports golden_grid (grid_trials ())

let test_kernels_same_verdict () =
  (* is_equilibrium must agree with the dynamics' own fixed point (shared
     predicate), and so must the same check made with the reference best
     responses. *)
  List.iter
    (fun (r : Service.report) ->
      let game = r.Service.game in
      let sx = r.Service.strategy_x and sy = r.Service.strategy_y in
      Alcotest.(check bool) "verify" r.Service.converged
        (Equilibrium.is_equilibrium game sx sy);
      let brx =
        Reference.best_response_reference ~opponent_dist:game.Game.dist_y
          ~opponent:sy game.Game.claims_x
      and bry =
        Reference.best_response_reference ~opponent_dist:game.Game.dist_x
          ~opponent:sx game.Game.claims_y
      in
      Alcotest.(check bool) "verify with the reference" r.Service.converged
        (Strategy.equal brx sx && Strategy.equal bry sy))
    (random_trials ())

let suite =
  [
    Alcotest.test_case "Prefix.exclusive_sums" `Quick test_exclusive_sums;
    Alcotest.test_case "Prefix.suffix_sums" `Quick test_suffix_sums;
    Alcotest.test_case "Prefix.range_sum" `Quick test_range_sum;
    Alcotest.test_case "Prefix.lower_bound" `Quick test_lower_bound;
    QCheck_alcotest.to_alcotest qcheck_fast_equals_reference;
    Alcotest.test_case "degenerate cancel-only choice set" `Quick
      test_degenerate_cancel_only;
    Alcotest.test_case "workspace probabilities bit-identical" `Quick
      test_workspace_probs_bit_identical;
    QCheck_alcotest.to_alcotest qcheck_one_evaluation_probabilities;
    Alcotest.test_case "allocation budget: one round at W = 24" `Quick
      test_round_allocation_budget;
    Alcotest.test_case "Strategy.equal applies tol to claims" `Quick
      test_strategy_equal_claim_tol;
    Alcotest.test_case "golden: Fast kernel same decisions" `Quick
      test_golden_fast_close;
    Alcotest.test_case "is_equilibrium consistent across kernels" `Quick
      test_kernels_same_verdict;
  ]
