open Pan_numerics
open Pan_topology
module Obs = Pan_obs.Obs
module Engine = Pan_service.Engine
module Efficiency = Pan_bosco.Efficiency
module Claim = Pan_bosco.Claim
module Game = Pan_bosco.Game
module Nash = Pan_econ.Nash

type config = {
  epochs : int;
  w : int;
  max_demands : int;
  min_gain : int;
  max_candidates : int;
  chunk : int;
  seed : int;
}

let default =
  {
    epochs = 3;
    w = 16;
    max_demands = 3;
    min_gain = 2;
    max_candidates = 512;
    chunk = 16;
    seed = 42;
  }

type mechanism = Bosco | Nash_peering | Both

let mechanism_label = function
  | Bosco -> "bosco"
  | Nash_peering -> "nash-peering"
  | Both -> "both"

type comparison = {
  cmp_qualified : int;
  bosco_signed : int;
  bosco_welfare : float;
  bosco_pod : float;
  nash_signed : int;
  nash_welfare : float;
  nash_pod : float;
}

type epoch_report = {
  epoch : int;
  candidates : int;
  qualified : int;
  viable : int;
  signed : int;
  welfare : float;
  mean_pod : float;
  new_paths : int;
  invalidated : int;
  mech : comparison option;
}

type result = {
  mechanism : mechanism;
  reports : epoch_report list;
  agreements : (Asn.t * Asn.t) list;
  pairs : int;
  negotiations : int;
  welfare : float;
  fingerprint : string;
  oracle_ok : bool option;
}

let check_config c =
  let bad fmt = Printf.ksprintf invalid_arg ("Market.run: " ^^ fmt) in
  if c.epochs < 1 then bad "epochs < 1";
  if c.w < 1 then bad "w < 1";
  if c.chunk < 1 then bad "chunk < 1";
  if c.max_demands < 1 then bad "max_demands < 1";
  if c.min_gain < 1 then bad "min_gain < 1";
  if c.max_candidates < 0 then bad "max_candidates < 0"

(* Exact hex floats in the transcript: the fingerprint is the
   determinism oracle, so two runs agree iff every outcome bit agrees. *)
let outcome_line buf epoch (o : Negotiate.outcome) topo =
  let asn i = Asn.to_int (Compact.id topo i) in
  Printf.bprintf buf "e%d AS%d-AS%d g%d/%d u:%h/%h pod:%h r:%d c:%b s:%b\n"
    epoch
    (asn o.Negotiate.cand.Candidates.x)
    (asn o.Negotiate.cand.Candidates.y)
    o.Negotiate.cand.Candidates.gain_x o.Negotiate.cand.Candidates.gain_y
    o.Negotiate.u_x o.Negotiate.u_y o.Negotiate.pod o.Negotiate.rounds
    o.Negotiate.converged o.Negotiate.signed

(* Epoch welfare through the batch Nash helper: post-transfer utilities
   of the signed agreements (equal-split of each surplus), summed. *)
let epoch_welfare signed_outcomes =
  let n = List.length signed_outcomes in
  if n = 0 then 0.0
  else begin
    let u_x = Array.make n 0.0 and u_y = Array.make n 0.0 in
    List.iteri
      (fun i (o : Negotiate.outcome) ->
        u_x.(i) <- o.Negotiate.u_x;
        u_y.(i) <- o.Negotiate.u_y)
      signed_outcomes;
    let out_x = Array.make n 0.0 and out_y = Array.make n 0.0 in
    let _viable = Nash.after_transfer_into ~n ~u_x ~u_y ~out_x ~out_y in
    let total = ref 0.0 in
    for i = 0 to n - 1 do
      total := !total +. out_x.(i) +. out_y.(i)
    done;
    !total
  end

let mean_pod_of viable_o =
  match viable_o with
  | [] -> Float.nan
  | _ ->
      List.fold_left
        (fun acc (o : Negotiate.outcome) -> acc +. o.Negotiate.pod)
        0.0 viable_o
      /. float_of_int (List.length viable_o)

let run_frozen ?pool ?retries ?deadline ?(oracle = false) ?(mechanism = Bosco)
    config topo =
  check_config config;
  Obs.with_span "market/run" @@ fun () ->
  let engine = Engine.create topo in
  let dist = Distribution.uniform (-1.0) 1.0 in
  (* One truthful benchmark shared by every negotiation (they all
     bargain over the same normalized utility distribution). *)
  let truthful =
    Efficiency.expected_nash_truthful
      Game.
        {
          dist_x = dist;
          dist_y = dist;
          claims_x = Claim.of_list [];
          claims_y = Claim.of_list [];
        }
  in
  let buf = Buffer.create 4096 in
  let reports = ref [] in
  let agreements = ref [] in
  let pairs = ref 0 in
  let negotiations = ref 0 in
  let oracle_ok = ref true in
  let epoch = ref 1 in
  let continue = ref true in
  while !continue && !epoch <= config.epochs do
    let e = !epoch in
    let topo = Engine.topology engine in
    let cands =
      Candidates.enumerate ~min_gain:config.min_gain
        ~max_candidates:config.max_candidates topo
    in
    let n = Array.length cands in
    if n = 0 then begin
      reports :=
        {
          epoch = e;
          candidates = 0;
          qualified = 0;
          viable = 0;
          signed = 0;
          welfare = 0.0;
          mean_pod = Float.nan;
          new_paths = 0;
          invalidated = 0;
          mech = None;
        }
        :: !reports;
      Printf.bprintf buf "epoch %d: no candidates\n" e;
      continue := false
    end
    else begin
      (* Outcome randomness is keyed per (seed, epoch, pair) inside
         negotiate_pair / score_pair; the sweep rngs below only drive the
         runner's chunk-splitting, so results are independent of chunk
         size and pool size, and fault retries replay to the same
         bytes. *)
      let negotiate_all cs =
        let rng =
          Rng.create (Hashtbl.hash (config.seed, e, "market-epoch"))
        in
        Obs.with_span "market/negotiate" @@ fun () ->
        Pan_runner.Task.map_reduce ?pool ?retries ?deadline ~rng
          ~n:(Array.length cs) ~chunk:config.chunk
          ~f:(fun _crng i ->
            Negotiate.negotiate_pair ~topo ~seed:config.seed ~epoch:e
              ~w:config.w ~max_demands:config.max_demands ~truthful ~dist
              cs.(i))
          ~combine:(fun acc o -> o :: acc)
          ~init:[] ()
        |> List.rev
      in
      let score_all cs =
        let rng =
          Rng.create (Hashtbl.hash (config.seed, e, "market-score"))
        in
        Obs.with_span "market/score" @@ fun () ->
        Pan_runner.Task.map_reduce ?pool ?retries ?deadline ~rng
          ~n:(Array.length cs) ~chunk:config.chunk
          ~f:(fun _crng i ->
            Nash_peering.score_pair ~topo ~seed:config.seed ~epoch:e
              ~max_demands:config.max_demands cs.(i))
          ~combine:(fun acc s -> s :: acc)
          ~init:[] ()
        |> List.rev |> Array.of_list
      in
      (* [outcomes] is what this epoch negotiates, reports, and splices:
         every candidate under Bosco/Both, the qualifier's survivors
         under Nash_peering.  In Both mode the Nash arm is the qualified
         subset of the same outcomes — the qualifier is scored off the
         utilities the Bosco arm already computed ([of_outcome]), so the
         two mechanisms compare on one epoch snapshot, one candidate
         stream, and the same pair-keyed randomness, at no extra
         negotiation cost; the Nash arm's welfare is counterfactual (the
         splice applies the Bosco signings). *)
      let outcomes, qualified, nash_arm =
        match mechanism with
        | Bosco -> (negotiate_all cands, n, None)
        | Nash_peering ->
            let verdicts = Nash_peering.qualify_counted (score_all cands) in
            let kept =
              Array.to_list verdicts
              |> List.filter_map (fun (v : Nash_peering.verdict) ->
                     if v.Nash_peering.qualified then
                       Some v.Nash_peering.score.Nash_peering.cand
                     else None)
              |> Array.of_list
            in
            let q = Array.length kept in
            Printf.bprintf buf "epoch %d: nash-peering %d/%d qualified\n" e q
              n;
            (negotiate_all kept, q, None)
        | Both ->
            let outcomes = negotiate_all cands in
            let scores =
              Array.of_list (List.map Nash_peering.of_outcome outcomes)
            in
            let verdicts = Nash_peering.qualify_counted scores in
            let nash_o =
              List.filteri
                (fun i _ -> verdicts.(i).Nash_peering.qualified)
                outcomes
            in
            let q = Nash_peering.count_qualified verdicts in
            (outcomes, q, Some nash_o)
      in
      List.iter (fun o -> outcome_line buf e o topo) outcomes;
      let viable_o =
        List.filter (fun (o : Negotiate.outcome) -> o.Negotiate.viable) outcomes
      in
      let signed_o =
        List.filter (fun (o : Negotiate.outcome) -> o.Negotiate.signed) outcomes
      in
      pairs := !pairs + List.length outcomes;
      negotiations := !negotiations + List.length viable_o;
      let welfare = epoch_welfare signed_o in
      let mean_pod = mean_pod_of viable_o in
      let mech =
        match nash_arm with
        | None -> None
        | Some nash_o ->
            let nash_signed_o =
              List.filter
                (fun (o : Negotiate.outcome) -> o.Negotiate.signed)
                nash_o
            in
            let c =
              {
                cmp_qualified = qualified;
                bosco_signed = List.length signed_o;
                bosco_welfare = welfare;
                bosco_pod = mean_pod;
                nash_signed = List.length nash_signed_o;
                nash_welfare = epoch_welfare nash_signed_o;
                nash_pod = mean_pod_of nash_o;
              }
            in
            Obs.incr ~by:c.bosco_signed "market.mech.bosco_signed";
            Obs.incr ~by:c.nash_signed "market.mech.nash_signed";
            Printf.bprintf buf
              "mech e%d bosco s:%d w:%h pod:%h | nash q:%d s:%d w:%h pod:%h\n"
              e c.bosco_signed c.bosco_welfare c.bosco_pod c.cmp_qualified
              c.nash_signed c.nash_welfare c.nash_pod;
            Some c
      in
      (* Apply the epoch's signings as one batch splice; the engine
         drops exactly the affected memo entries. *)
      let events =
        List.map
          (fun (o : Negotiate.outcome) ->
            Engine.Link_up
              (Engine.Peer
                 (o.Negotiate.cand.Candidates.x, o.Negotiate.cand.Candidates.y)))
          signed_o
      in
      let invalidated = Engine.apply_batch engine events in
      (* The oracle: the epoch's core re-frozen with the batch applied. *)
      if oracle then
        oracle_ok :=
          !oracle_ok
          && String.equal
               (Compact.Snapshot.to_string (Engine.topology engine))
               (Compact.Snapshot.to_string (Engine.refreeze topo events));
      List.iter
        (fun (o : Negotiate.outcome) ->
          let x = Compact.id topo o.Negotiate.cand.Candidates.x
          and y = Compact.id topo o.Negotiate.cand.Candidates.y in
          agreements := (x, y) :: !agreements)
        signed_o;
      (* Memoized path store across epochs: each signed pair's MA path
         count is served (and cached) by the engine on the post-splice
         view; a later epoch's splice invalidates exactly the affected
         entries. *)
      let new_paths =
        List.fold_left
          (fun acc (o : Negotiate.outcome) ->
            let mids =
              Engine.query engine ~src:o.Negotiate.cand.Candidates.x
                ~dst:o.Negotiate.cand.Candidates.y ~policy:Path_enum.Ma_all
            in
            acc + List.length mids)
          0 signed_o
      in
      Printf.bprintf buf
        "epoch %d: %d candidates %d viable %d signed welfare:%h paths:%d \
         invalidated:%d\n"
        e n (List.length viable_o) (List.length signed_o) welfare new_paths
        invalidated;
      reports :=
        {
          epoch = e;
          candidates = n;
          qualified;
          viable = List.length viable_o;
          signed = List.length signed_o;
          welfare;
          mean_pod;
          new_paths;
          invalidated;
          mech;
        }
        :: !reports;
      Obs.incr "market.epochs";
      if signed_o = [] then continue := false
    end;
    incr epoch
  done;
  let reports = List.rev !reports in
  let welfare =
    List.fold_left (fun acc (r : epoch_report) -> acc +. r.welfare) 0.0 reports
  in
  {
    mechanism;
    reports;
    agreements = List.rev !agreements;
    pairs = !pairs;
    negotiations = !negotiations;
    welfare;
    fingerprint = Digest.to_hex (Digest.string (Buffer.contents buf));
    oracle_ok = (if oracle then Some !oracle_ok else None);
  }

let run ?pool ?retries ?deadline ?oracle ?mechanism config g =
  run_frozen ?pool ?retries ?deadline ?oracle ?mechanism config
    (Compact.freeze g)

let pp_pod fmt_nan pod =
  if Float.is_nan pod then fmt_nan else Printf.sprintf "PoD %.3f" pod

let pp fmt r =
  (match r.mechanism with
  | Bosco -> ()
  | m ->
      Format.fprintf fmt "mechanism: %s (theta %.2f)@." (mechanism_label m)
        Nash_peering.theta);
  List.iter
    (fun e ->
      (if r.mechanism = Nash_peering then
         Format.fprintf fmt "epoch %d: %d/%d candidates qualified@." e.epoch
           e.qualified e.candidates);
      Format.fprintf fmt
        "epoch %d: %d candidates, %d viable, %d signed, welfare %.3f, %s, %d \
         new MA paths, %d invalidated@."
        e.epoch e.candidates e.viable e.signed e.welfare
        (pp_pod "PoD -" e.mean_pod)
        e.new_paths e.invalidated;
      match e.mech with
      | None -> ()
      | Some c ->
          Format.fprintf fmt
            "  mechanisms: bosco %d signed, welfare %.3f, %s | nash-peering \
             %d qualified, %d signed, welfare %.3f, %s@."
            c.bosco_signed c.bosco_welfare
            (pp_pod "PoD -" c.bosco_pod)
            c.cmp_qualified c.nash_signed c.nash_welfare
            (pp_pod "PoD -" c.nash_pod))
    r.reports;
  Format.fprintf fmt
    "market: %d pairs scored, %d negotiations, %d agreements signed, total \
     welfare %.3f@."
    r.pairs r.negotiations
    (List.length r.agreements)
    r.welfare;
  (match r.oracle_ok with
  | None -> ()
  | Some ok -> Format.fprintf fmt "delta oracle: %s@." (if ok then "ok" else "MISMATCH"));
  Format.fprintf fmt "transcript fingerprint %s@." r.fingerprint
