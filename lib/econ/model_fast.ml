open Pan_topology
module Obs = Pan_obs.Obs


(* One Flows.add performed by Traffic_model.apply_segment, precompiled to
   a slot index in the party's flat flow buffer. *)
type op_kind = Volume | Attracted | Neg_reroute

type op = { slot : int; kind : op_kind }

(* One pricing term of Business.revenue/cost; slot = -1 marks a priced
   neighbor that never carries flow in this scenario (charge at 0). *)
type charge = { ch_slot : int; alpha : float; beta : float }

type party = {
  n_slots : int;
  base_vals : float array;  (** baseline volume per slot, ascending ASN *)
  ops : op array array;  (** ops.(i) = this party's updates for demand i *)
  customers : charge array;  (** ascending ASN (revenue fold order) *)
  providers : charge array;
  internal : Cost.t;
  base_utility : float;  (** [Business.utility] at the baseline *)
}

type t = {
  scenario : Traffic_model.scenario;
  n_demands : int;
  reroutable : float array;
  attracted_max : float array;
  px : party;
  py : party;
}

let scenario t = t.scenario
let n_demands t = t.n_demands

let compile_party scen demands p =
  let business = Traffic_model.business scen p in
  let base = Traffic_model.baseline_flows scen p in
  let base_keys, base_flow = Flows.to_sorted_arrays base in
  (* Slot universe: baseline neighbors plus every neighbor a demand can
     touch for this party.  Slots a demand drives to (or keeps at) zero
     contribute an exact +0.0 to the total-flow sum, so a fixed superset
     of the reference map's keys reproduces its ascending-order sum bit
     for bit. *)
  let touched =
    List.concat_map
      (fun (d : Traffic_model.segment_demand) ->
        if Asn.equal p d.beneficiary then
          (d.transit :: Flows.stub d.beneficiary
           :: (match d.reroute_from with Some pr -> [ pr ] | None -> []))
        else [ d.beneficiary; d.dest ])
      demands
  in
  let slots =
    List.sort_uniq Asn.compare (Array.to_list base_keys @ touched)
    |> Array.of_list
  in
  let n_slots = Array.length slots in
  let index = Hashtbl.create (2 * n_slots) in
  Array.iteri (fun i x -> Hashtbl.replace index x i) slots;
  let slot_of x = Hashtbl.find index x in
  let base_vals = Array.make (Stdlib.max 1 n_slots) 0.0 in
  Array.iteri (fun i x -> base_vals.(slot_of x) <- base_flow.(i)) base_keys;
  let ops =
    Array.of_list
      (List.map
         (fun (d : Traffic_model.segment_demand) ->
           if Asn.equal p d.beneficiary then
             let head =
               [
                 { slot = slot_of d.transit; kind = Volume };
                 { slot = slot_of (Flows.stub d.beneficiary); kind = Attracted };
               ]
             in
             let tail =
               match d.reroute_from with
               | Some pr -> [ { slot = slot_of pr; kind = Neg_reroute } ]
               | None -> []
             in
             Array.of_list (head @ tail)
           else
             [|
               { slot = slot_of d.beneficiary; kind = Volume };
               { slot = slot_of d.dest; kind = Volume };
             |])
         demands)
  in
  let charges pricing =
    Array.of_list
      (List.map
         (fun (y, pr) ->
           {
             ch_slot = (match Hashtbl.find_opt index y with
                       | Some i -> i
                       | None -> -1);
             alpha = Pricing.alpha pr;
             beta = Pricing.beta pr;
           })
         pricing)
  in
  {
    n_slots;
    base_vals;
    ops;
    customers = charges (Business.customer_pricing business);
    providers = charges (Business.provider_pricing business);
    internal = Business.internal_cost business;
    base_utility = Business.utility business base;
  }

let compile scen =
  let x, y = Agreement.parties (Traffic_model.agreement scen) in
  let demands = Traffic_model.demands scen in
  let n = List.length demands in
  let reroutable = Array.make (Stdlib.max 1 n) 0.0 in
  let attracted_max = Array.make (Stdlib.max 1 n) 0.0 in
  List.iteri
    (fun i (d : Traffic_model.segment_demand) ->
      reroutable.(i) <- d.reroutable;
      attracted_max.(i) <- d.attracted_max)
    demands;
  Obs.incr "econ.fast.compiles";
  {
    scenario = scen;
    n_demands = n;
    reroutable;
    attracted_max;
    px = compile_party scen demands x;
    py = compile_party scen demands y;
  }

(* Replicates Flows.add: clamp at zero after each delta, in apply_segment
   order. *)
let apply_ops vals ops ~reroute ~attracted =
  let volume = reroute +. attracted in
  Array.iter
    (fun op ->
      let delta =
        match op.kind with
        | Volume -> volume
        | Attracted -> attracted
        | Neg_reroute -> -.reroute
      in
      vals.(op.slot) <- Float.max 0.0 (vals.(op.slot) +. delta))
    ops

(* Replicates Pricing.charge on a non-negative flow. *)
let charge_sum charges vals =
  let acc = ref 0.0 in
  Array.iter
    (fun c ->
      let f = if c.ch_slot < 0 then 0.0 else vals.(c.ch_slot) in
      let ch =
        if c.alpha = 0.0 then 0.0
        else if c.beta = 0.0 then c.alpha
        else c.alpha *. (f ** c.beta)
      in
      acc := !acc +. ch)
    charges;
  !acc

(* Replicates Business.utility on the flat buffer: revenue and provider
   charges fold priced neighbors ascending; total flow is the ascending
   slot sum halved (Flows.total). *)
let party_utility p vals =
  let revenue = charge_sum p.customers vals in
  let provider_charges = charge_sum p.providers vals in
  let sum = ref 0.0 in
  for i = 0 to p.n_slots - 1 do
    sum := !sum +. vals.(i)
  done;
  let total = !sum /. 2.0 in
  revenue -. (Cost.eval p.internal total +. provider_charges)

(* Validation mirrors Traffic_model.apply: same checks, same order, same
   tolerances, same messages. *)
let check_bounds t get_r get_a =
  let rec go i =
    if i = t.n_demands then None
    else
      let r = get_r i and a = get_a i in
      if r < -1e-9 || a < -1e-9 then Some "negative choice volume"
      else if r > t.reroutable.(i) +. 1e-9 then
        Some "reroute exceeds reroutable volume"
      else if a > t.attracted_max.(i) +. 1e-9 then
        Some "attracted exceeds demand ceiling"
      else go (i + 1)
  in
  go 0

let eval_checked ws t get_r get_a =
  let vx, vy =
    Econ_workspace.flow_scratch ws ~n_x:t.px.n_slots ~n_y:t.py.n_slots
  in
  Array.blit t.px.base_vals 0 vx 0 t.px.n_slots;
  Array.blit t.py.base_vals 0 vy 0 t.py.n_slots;
  for i = 0 to t.n_demands - 1 do
    let reroute = get_r i and attracted = get_a i in
    apply_ops vx t.px.ops.(i) ~reroute ~attracted;
    apply_ops vy t.py.ops.(i) ~reroute ~attracted
  done;
  Obs.incr "econ.fast.evals";
  ( party_utility t.px vx -. t.px.base_utility,
    party_utility t.py vy -. t.py.base_utility )

let with_ws workspace =
  match workspace with Some ws -> ws | None -> Econ_workspace.create ()

let eval_vector_off ws t v off =
  let get_r i = v.(off + (2 * i)) and get_a i = v.(off + (2 * i) + 1) in
  match check_bounds t get_r get_a with
  | Some e -> Error e
  | None -> Ok (eval_checked ws t get_r get_a)

let utilities_vector ?workspace t v =
  if Array.length v <> 2 * t.n_demands then Error "choice list length mismatch"
  else eval_vector_off (with_ws workspace) t v 0

let utilities ?workspace t choices =
  if List.length choices <> t.n_demands then Error "choice list length mismatch"
  else begin
    let ca = Array.of_list choices in
    let get_r i = ca.(i).Traffic_model.reroute
    and get_a i = ca.(i).Traffic_model.attracted in
    match check_bounds t get_r get_a with
    | Some e -> Error e
    | None -> Ok (eval_checked (with_ws workspace) t get_r get_a)
  end

let utilities_exn ?workspace t choices =
  match utilities ?workspace t choices with
  | Ok r -> r
  | Error e -> invalid_arg ("Model_fast.utilities_exn: " ^ e)

(* The exact-penalty objective of Flow_volume_opt, on the fast path. *)
let nash_objective ?workspace t v =
  if Array.length v <> 2 * t.n_demands then
    invalid_arg "Model_fast.nash_objective: bad vector length";
  match eval_vector_off (with_ws workspace) t v 0 with
  | Error _ -> neg_infinity
  | Ok (u_x, u_y) ->
      let worst = Float.min u_x u_y in
      if worst < 0.0 then worst else u_x *. u_y

let utilities_batch ?workspace t ~vectors ~m ~out_x ~out_y =
  let dim = 2 * t.n_demands in
  if Array.length vectors < m * dim then
    invalid_arg "Model_fast.utilities_batch: vectors too short";
  if Array.length out_x < m || Array.length out_y < m then
    invalid_arg "Model_fast.utilities_batch: out too short";
  let ws = with_ws workspace in
  for k = 0 to m - 1 do
    match eval_vector_off ws t vectors (k * dim) with
    | Ok (ux, uy) ->
        out_x.(k) <- ux;
        out_y.(k) <- uy
    | Error e -> invalid_arg ("Model_fast.utilities_batch: " ^ e)
  done
