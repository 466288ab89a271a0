open Pan_numerics

type result = {
  choices : Traffic_model.choice list;
  u_x : float;
  u_y : float;
  nash : float;
  concluded : bool;
}

let choices_of_vector demands v =
  List.mapi
    (fun i _ ->
      Traffic_model.{ reroute = v.(2 * i); attracted = v.((2 * i) + 1) })
    demands

(* The objective is {!Model_fast.nash_objective}'s exact penalty:
   feasible points score their Nash product, infeasible points score the
   (negative) worst utility, which is continuous across the boundary and
   pushes the simplex back into the feasible region. *)
let optimize_compiled ?workspace ?starts_per_dim ?max_iter model =
  let scenario = Model_fast.scenario model in
  let demands = Traffic_model.demands scenario in
  if demands = [] then
    let u_x, u_y =
      Traffic_model.utilities_exn scenario (Traffic_model.zero_choice scenario)
    in
    {
      choices = [];
      u_x;
      u_y;
      nash = Nash.product u_x u_y;
      concluded = false;
    }
  else begin
    let box =
      Array.of_list
        (List.concat_map
           (fun (d : Traffic_model.segment_demand) ->
             [ (0.0, d.reroutable); (0.0, d.attracted_max) ])
           demands)
    in
    let workspace =
      match workspace with Some ws -> ws | None -> Econ_workspace.create ()
    in
    let best, _ =
      Optimize.multistart_nelder_mead ?starts_per_dim ?max_iter
        ~f:(Model_fast.nash_objective ~workspace model)
        ~box ()
    in
    let choices = choices_of_vector demands best in
    let u_x, u_y = Traffic_model.utilities_exn scenario choices in
    let total_allowance =
      List.fold_left
        (fun acc c -> acc +. Traffic_model.allowance c)
        0.0 choices
    in
    (* an agreement whose optimal targets are (numerically) zero "cannot
       be concluded" (§IV-C); 1e-6 separates real volumes from optimizer
       dust *)
    let concluded = u_x >= -1e-9 && u_y >= -1e-9 && total_allowance > 1e-6 in
    { choices; u_x; u_y; nash = Nash.product u_x u_y; concluded }
  end

let optimize ?workspace ?starts_per_dim ?max_iter scenario =
  optimize_compiled ?workspace ?starts_per_dim ?max_iter
    (Model_fast.compile scenario)

let pp fmt r =
  Format.fprintf fmt "%s: u_x=%g u_y=%g nash=%g targets=[%a]"
    (if r.concluded then "concluded" else "not concluded")
    r.u_x r.u_y r.nash
    (Format.pp_print_list
       ~pp_sep:(fun fmt () -> Format.pp_print_string fmt "; ")
       (fun fmt (c : Traffic_model.choice) ->
         Format.fprintf fmt "r=%g a=%g" c.reroute c.attracted))
    r.choices
