open Pan_numerics

type t = {
  dist_x : Distribution.t;
  dist_y : Distribution.t;
  claims_x : Claim.t;
  claims_y : Claim.t;
}

type outcome =
  | Concluded of { transfer : float; u_x_after : float; u_y_after : float }
  | Cancelled

let settle ~u_x ~u_y ~v_x ~v_y =
  (* -inf claims make the sum -inf (or nan only if the other were +inf,
     which choice sets exclude), so cancellation is handled uniformly. *)
  if v_x +. v_y >= 0.0 then
    let transfer = (v_x -. v_y) /. 2.0 in
    Concluded
      { transfer; u_x_after = u_x -. transfer; u_y_after = u_y +. transfer }
  else Cancelled

let play _t ~strategy_x ~strategy_y ~u_x ~u_y =
  settle ~u_x ~u_y ~v_x:(Strategy.apply strategy_x u_x)
    ~v_y:(Strategy.apply strategy_y u_y)

let nash_value ~u_x:_ ~u_y:_ = function
  | Cancelled -> 0.0
  | Concluded { u_x_after; u_y_after; _ } -> u_x_after *. u_y_after

let expected_after_utility_x t ~opponent ~u_x ~v_x =
  if v_x = neg_infinity then 0.0
  else begin
    let values = Claim.values (Strategy.claims opponent) in
    let probs = Strategy.choice_probabilities t.dist_y opponent in
    let acc = ref 0.0 in
    Array.iteri
      (fun j v_y ->
        if v_y >= -.v_x then
          acc := !acc +. (probs.(j) *. (u_x -. ((v_x -. v_y) /. 2.0))))
      values;
    !acc
  end

let pp_outcome fmt = function
  | Cancelled -> Format.pp_print_string fmt "cancelled"
  | Concluded { transfer; u_x_after; u_y_after } ->
      Format.fprintf fmt "concluded: transfer=%g after=(%g, %g)" transfer
        u_x_after u_y_after
