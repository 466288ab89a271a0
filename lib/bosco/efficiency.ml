open Pan_numerics

(* E[N | σ] = Σ_{i,j : v_i + v_j ≥ 0} ∫_{I_i} (u_x − Π_ij) dU_X ·
   ∫_{J_j} (u_y + Π_ij) dU_Y, because N factorizes once the claims (and
   hence the transfer) are fixed by the interval pair. *)
let expected_nash ?workspace (game : Game.t) sx sy =
  let open Game in
  let ws =
    match workspace with Some ws -> ws | None -> Workspace.create ()
  in
  let vx = Claim.values (Strategy.claims sx) in
  let vy = Claim.values (Strategy.claims sy) in
  let thx = Strategy.thresholds sx and thy = Strategy.thresholds sy in
  let nx = Array.length vx and ny = Array.length vy in
  let px, py = Workspace.pair_scratch ws nx ny in
  let pex, pey = Workspace.moment_scratch ws nx ny in
  Strategy.choice_probabilities_into game.dist_x sx px;
  Strategy.choice_probabilities_into game.dist_y sy py;
  for i = 0 to nx - 1 do
    pex.(i) <-
      (if px.(i) = 0.0 then 0.0
       else Distribution.partial_expectation game.dist_x thx.(i) thx.(i + 1))
  done;
  for j = 0 to ny - 1 do
    pey.(j) <-
      (if py.(j) = 0.0 then 0.0
       else Distribution.partial_expectation game.dist_y thy.(j) thy.(j + 1))
  done;
  (* a flat float cell: the loops add to it unboxed *)
  let total = [| 0.0 |] in
  for i = 0 to nx - 1 do
    let vi = vx.(i) in
    if vi > neg_infinity && px.(i) > 0.0 then
      for j = 0 to ny - 1 do
        let vj = vy.(j) in
        if vj > neg_infinity && py.(j) > 0.0 && vi +. vj >= 0.0 then begin
          let pi = (vi -. vj) /. 2.0 in
          let x_factor = pex.(i) -. (pi *. px.(i)) in
          let y_factor = pey.(j) +. (pi *. py.(j)) in
          total.(0) <- total.(0) +. (x_factor *. y_factor)
        end
      done
  done;
  total.(0)

let expected_nash_truthful ?(grid = 400) (game : Game.t) =
  let open Game in
  let lo_x, hi_x = Distribution.support game.dist_x in
  let lo_y, hi_y = Distribution.support game.dist_y in
  let clamp lo hi d =
    let flo = if Float.is_finite lo then lo else Distribution.quantile d 0.001 in
    let fhi = if Float.is_finite hi then hi else Distribution.quantile d 0.999 in
    (flo, fhi)
  in
  let bx = clamp lo_x hi_x game.dist_x and by = clamp lo_y hi_y game.dist_y in
  Integrate.grid_2d ~nx:grid ~ny:grid
    (fun ux uy ->
      if ux +. uy >= 0.0 then
        let half = (ux +. uy) /. 2.0 in
        half *. half
        *. Distribution.pdf game.dist_x ux
        *. Distribution.pdf game.dist_y uy
      else 0.0)
    bx by

let mc_expected_nash ?pool ?(chunk = 4096) ~rng ~samples (game : Game.t) sx sy
    =
  if samples < 1 then invalid_arg "Efficiency.mc_expected_nash: samples < 1";
  let open Game in
  let total =
    Pan_runner.Task.map_reduce ?pool ~rng ~n:samples ~chunk
      ~f:(fun crng _ ->
        let u_x = Distribution.sample game.dist_x crng in
        let u_y = Distribution.sample game.dist_y crng in
        let outcome = Game.play game ~strategy_x:sx ~strategy_y:sy ~u_x ~u_y in
        Game.nash_value ~u_x ~u_y outcome)
      ~combine:( +. ) ~init:0.0 ()
  in
  total /. float_of_int samples

let mc_truthful ?pool ?(chunk = 4096) ~rng ~samples (game : Game.t) =
  if samples < 1 then invalid_arg "Efficiency.mc_truthful: samples < 1";
  let open Game in
  let total =
    Pan_runner.Task.map_reduce ?pool ~rng ~n:samples ~chunk
      ~f:(fun crng _ ->
        let u_x = Distribution.sample game.dist_x crng in
        let u_y = Distribution.sample game.dist_y crng in
        if u_x +. u_y >= 0.0 then
          let half = (u_x +. u_y) /. 2.0 in
          half *. half
        else 0.0)
      ~combine:( +. ) ~init:0.0 ()
  in
  total /. float_of_int samples

let price_of_dishonesty ?workspace ?truthful ?grid game sx sy =
  let benchmark =
    match truthful with
    | Some v -> v
    | None -> expected_nash_truthful ?grid game
  in
  if benchmark <= 0.0 then
    invalid_arg "Efficiency.price_of_dishonesty: unviable agreement";
  1.0 -. (expected_nash ?workspace game sx sy /. benchmark)
