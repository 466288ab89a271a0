(* Algorithm 1 as first written: per-claim rescans of the opponent's
   choice set (Eq. 16/17), a quadratic dominance check and a
   candidate-scanning envelope walk, O(W²) per best response.
   [Strategy.best_response] computes the same envelope in O(W log W);
   test_strategy_fast.ml pins the two together and bench part 7 times
   them per response. *)

open Pan_bosco

(* Eq. 15 as first written: the CDF evaluated at both ends of every
   interval.  [Strategy.choice_probabilities] evaluates each threshold
   point once and must give these floats bit for bit. *)
let choice_probabilities_reference dist s =
  let th = Strategy.thresholds s in
  let cdf x =
    if x = neg_infinity then 0.0
    else if x = infinity then 1.0
    else Pan_numerics.Distribution.cdf dist x
  in
  Array.init
    (Array.length th - 1)
    (fun i -> Float.max 0.0 (cdf th.(i + 1) -. cdf th.(i)))

(* For each own claim [v_i], the coefficients [(m_i, q_i)] of the
   expected after-negotiation utility [m_i·u + q_i] given the opponent's
   strategy.  The cancel claim has coefficients [(0, 0)]. *)
let line_coefficients ~opponent_dist ~opponent own_claims =
  let opp_values = Claim.values (Strategy.claims opponent) in
  let opp_probs = choice_probabilities_reference opponent_dist opponent in
  Array.map
    (fun v ->
      if v = neg_infinity then (0.0, 0.0)
      else begin
        let m = ref 0.0 and q = ref 0.0 in
        Array.iteri
          (fun j vy ->
            if vy >= -.v then begin
              m := !m +. opp_probs.(j);
              q := !q +. (opp_probs.(j) *. ((vy -. v) /. 2.0))
            end)
          opp_values;
        (!m, !q)
      end)
    (Claim.values own_claims)

(* Upper envelope of the lines (m_i, q_i): since m is non-decreasing in i,
   the envelope assigns claims with larger index to larger utilities.
   Algorithm 1 with an explicit left-to-right walk. *)
let best_response_reference ~opponent_dist ~opponent own_claims =
  let lines = line_coefficients ~opponent_dist ~opponent own_claims in
  let w = Array.length lines in
  (* A line is dominated if a parallel line lies strictly above it, or is a
     duplicate with a smaller index. *)
  let dominated i =
    let mi, qi = lines.(i) in
    let result = ref false in
    Array.iteri
      (fun j (mj, qj) ->
        if j <> i && mj = mi then
          if qj > qi || (qj = qi && j < i) then result := true)
      lines;
    !result
  in
  let candidates =
    List.filter (fun i -> not (dominated i)) (List.init w Fun.id)
  in
  (* Start: best line as u -> -inf (minimal slope, then maximal
     intercept). *)
  let start =
    List.fold_left
      (fun best i ->
        match best with
        | None -> Some i
        | Some b ->
            let mb, qb = lines.(b) and mi, qi = lines.(i) in
            if mi < mb || (mi = mb && qi > qb) then Some i else Some b)
      None candidates
  in
  let start = Option.get start in
  (* Walk the envelope: from the current line, the next is the candidate
     with steeper slope whose intersection comes first. *)
  let intersection i j =
    let mi, qi = lines.(i) and mj, qj = lines.(j) in
    (qi -. qj) /. (mj -. mi)
  in
  let rec walk current from acc =
    let mi, _ = lines.(current) in
    let next =
      List.fold_left
        (fun best j ->
          let mj, _ = lines.(j) in
          if mj <= mi then best
          else
            let x = intersection current j in
            match best with
            | None -> Some (j, x)
            | Some (jb, xb) ->
                if
                  x < xb
                  || (x = xb && fst lines.(j) > fst lines.(jb))
                then Some (j, x)
                else best)
        None candidates
    in
    match next with
    | None -> List.rev ((current, from) :: acc)
    | Some (j, x) ->
        let x = Float.max x from in
        walk j x ((current, from) :: acc)
  in
  let records = walk start neg_infinity [] in
  (* Convert the visited (claim index, interval start) records into the
     threshold series; unvisited claims get empty intervals (paper's final
     fill loop). *)
  let unset = Float.nan in
  let th = Array.make (w + 1) unset in
  th.(0) <- neg_infinity;
  th.(w) <- infinity;
  List.iter
    (fun (idx, from) -> if idx > 0 then th.(idx) <- from)
    records;
  for i = w - 1 downto 1 do
    if Float.is_nan th.(i) then th.(i) <- th.(i + 1)
  done;
  (* Monotonicity can be violated by floating-point ties; repair. *)
  for i = 1 to w - 1 do
    if th.(i) < th.(i - 1) then th.(i) <- th.(i - 1)
  done;
  Strategy.of_thresholds own_claims th
