open Pan_numerics
open Pan_topology
open Pan_econ
module Obs = Pan_obs.Obs
module Workspace = Pan_bosco.Workspace
module Service = Pan_bosco.Service

type arena = { bosco : Workspace.t; econ : Econ_workspace.t }

(* One arena per domain, created on the domain's first negotiation and
   reused for every later one it runs — no per-negotiation allocation of
   kernel scratch.  Workspaces hold no results between calls, so which
   domain runs which negotiation can never change an outcome. *)
let arena_key =
  Domain.DLS.new_key (fun () ->
      { bosco = Workspace.create (); econ = Econ_workspace.create () })

let arena () = Domain.DLS.get arena_key

type outcome = {
  cand : Candidates.t;
  u_x : float;
  u_y : float;
  viable : bool;
  pod : float;
  rounds : int;
  converged : bool;
  signed : bool;
}

let forecast_levels = [| 0.25; 0.5; 0.75; 1.0 |]

(* Score the agreement economically: all forecast levels in one batch
   kernel call, best surplus (ties: lowest level) fixes the utilities a
   cash-compensation bargain starts from. *)
let score_best ~econ_ws model =
  let n_d = Model_fast.n_demands model in
  let stride = 2 * n_d in
  let m = Array.length forecast_levels in
  let demands = Traffic_model.demands (Model_fast.scenario model) in
  let vectors = Array.make (Int.max 1 (m * stride)) 0.0 in
  List.iteri
    (fun d (dem : Traffic_model.segment_demand) ->
      Array.iteri
        (fun l level ->
          let base = (l * stride) + (2 * d) in
          vectors.(base) <- level *. dem.Traffic_model.reroutable;
          vectors.(base + 1) <- level *. dem.Traffic_model.attracted_max)
        forecast_levels)
    demands;
  let out_x, out_y = Econ_workspace.batch_scratch econ_ws m in
  Model_fast.utilities_batch ~workspace:econ_ws model ~vectors ~m ~out_x
    ~out_y;
  let best = ref 0 in
  for i = 1 to m - 1 do
    if
      Nash.surplus ~u_x:out_x.(i) ~u_y:out_y.(i)
      > Nash.surplus ~u_x:out_x.(!best) ~u_y:out_y.(!best)
    then best := i
  done;
  (out_x.(!best), out_y.(!best))

(* The deterministic prefix both mechanisms share: pair-keyed rng,
   agreement construction, forecast demands (which consume the rng), and
   the batched econ scoring.  [negotiate_pair] continues the returned rng
   into BOSCO; [score_pair] stops here.  Because both run exactly these
   operations in this order, the Nash-Peering qualifier and the BOSCO
   path see bit-identical utilities and pair randomness for the same
   candidate stream.  The scenario reads the frozen core itself, through
   its neighbor view. *)
let pair_context ~topo ~seed ~epoch ~max_demands cand =
  let ar = arena () in
  let x = Compact.id topo cand.Candidates.x
  and y = Compact.id topo cand.Candidates.y in
  let rng =
    Rng.create
      (Hashtbl.hash (seed, epoch, Asn.to_int x, Asn.to_int y, "market-pair"))
  in
  let v = Compact.view topo in
  let agreement =
    Agreement.make_exn v ~x ~y ~x_grant:(Agreement.ma_grant v x ~other:y)
      ~y_grant:(Agreement.ma_grant v y ~other:x)
  in
  let scenario =
    Scenario_gen.ma_scenario ~key:"market-biz" ~seed ~rng ~max_demands v
      agreement
  in
  let model = Model_fast.compile scenario in
  let u_x, u_y = score_best ~econ_ws:ar.econ model in
  (rng, u_x, u_y)

let score_pair ~topo ~seed ~epoch ~max_demands cand =
  let _rng, u_x, u_y = pair_context ~topo ~seed ~epoch ~max_demands cand in
  Obs.incr "market.scored";
  (u_x, u_y)

let negotiate_pair ?graph:_ ~topo ~seed ~epoch ~w ~max_demands ~truthful
    ~dist cand =
  let ar = arena () in
  let rng, u_x, u_y = pair_context ~topo ~seed ~epoch ~max_demands cand in
  Obs.incr "market.pairs";
  if not (Nash.viable ~u_x ~u_y) then
    {
      cand;
      u_x;
      u_y;
      viable = false;
      pod = Float.nan;
      rounds = 0;
      converged = false;
      signed = false;
    }
  else begin
    Obs.incr "market.viable";
    let r =
      Service.negotiate ~truthful ~workspace:ar.bosco ~rng ~dist_x:dist
        ~dist_y:dist ~w ()
    in
    Obs.incr "market.negotiations";
    Obs.incr ~by:r.Service.rounds "market.rounds";
    let signed = r.Service.converged in
    if signed then Obs.incr "market.signed";
    {
      cand;
      u_x;
      u_y;
      viable = true;
      pod = r.Service.pod;
      rounds = r.Service.rounds;
      converged = r.Service.converged;
      signed;
    }
  end
