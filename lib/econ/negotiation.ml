type comparison = {
  flow_volume : Flow_volume_opt.result;
  cash : Cash_opt.result;
}

let compare_methods ?workspace ?starts_per_dim scenario =
  let model = Model_fast.compile scenario in
  {
    flow_volume =
      Flow_volume_opt.optimize_compiled ?workspace ?starts_per_dim model;
    cash = Cash_opt.optimize_compiled ?workspace model;
  }

let cash_joint c =
  if c.cash.Cash_opt.concluded then
    c.cash.Cash_opt.u_x_after +. c.cash.Cash_opt.u_y_after
  else 0.0

let flow_volume_joint c =
  if c.flow_volume.Flow_volume_opt.concluded then
    c.flow_volume.Flow_volume_opt.u_x +. c.flow_volume.Flow_volume_opt.u_y
  else 0.0

let cash_only c =
  c.cash.Cash_opt.concluded && not c.flow_volume.Flow_volume_opt.concluded

let pp fmt c =
  Format.fprintf fmt "@[<v>flow-volume: %a@ cash:        %a@]"
    Flow_volume_opt.pp c.flow_volume Cash_opt.pp c.cash
