type result = {
  u_x : float;
  u_y : float;
  transfer : float;
  u_x_after : float;
  u_y_after : float;
  concluded : bool;
}

let settle (u_x, u_y) =
  match Nash.after_transfer ~u_x ~u_y with
  | Some (u_x_after, u_y_after) ->
      let transfer = u_x -. u_x_after in
      { u_x; u_y; transfer; u_x_after; u_y_after; concluded = true }
  | None ->
      {
        u_x;
        u_y;
        transfer = 0.0;
        u_x_after = 0.0;
        u_y_after = 0.0;
        concluded = false;
      }

let optimize_compiled ?workspace model =
  settle
    (Model_fast.utilities_exn ?workspace model
       (Traffic_model.full_choice (Model_fast.scenario model)))

let optimize ?workspace scenario =
  optimize_compiled ?workspace (Model_fast.compile scenario)

let pp fmt r =
  if r.concluded then
    Format.fprintf fmt
      "concluded: u_x=%g u_y=%g transfer=%g after=(%g, %g)" r.u_x r.u_y
      r.transfer r.u_x_after r.u_y_after
  else
    Format.fprintf fmt "not concluded: u_x=%g u_y=%g (negative surplus)" r.u_x
      r.u_y
