(* Quickstart: negotiate the paper's example agreement (Eq. 6 on Fig. 1)
   end to end.

   We build the Fig. 1 topology, set up the mutuality-based agreement
   a = [D(up {A}); E(up {B}, peer {F})], attach business numbers, and
   optimize it with both methods of §IV.  Run with:

     dune exec examples/quickstart.exe
*)

open Pan_topology
open Pan_econ

let printf = Format.printf

let () =
  (* 1. The topology of Fig. 1 and the agreement of Eq. 6. *)
  let graph, scenario = Scenario_gen.fig1_scenario () in
  let agreement = Traffic_model.agreement scenario in
  printf "Topology: %a@." Graph.pp_stats graph;
  printf "Agreement (Eq. 6): %a@." Agreement.pp agreement;
  printf "Violates the Gao-Rexford conditions: %b@.@."
    (Agreement.violates_grc agreement);

  (* 2. What would D and E gain if every forecast flow materialized? *)
  let u_d, u_e =
    Traffic_model.utilities_exn scenario (Traffic_model.full_choice scenario)
  in
  printf "Utilities at full forecast volumes: u_D = %.2f, u_E = %.2f@.@." u_d
    u_e;

  (* 3. Optimize with flow-volume targets (Eq. 9). *)
  let fv = Flow_volume_opt.optimize scenario in
  printf "Flow-volume targets (Eq. 9):@.  %a@.@." Flow_volume_opt.pp fv;

  (* 4. Optimize with cash compensation (Eq. 10/11). *)
  let cash = Cash_opt.optimize scenario in
  printf "Cash compensation (Eq. 11):@.  %a@.@." Cash_opt.pp cash;

  (* 5. The Nash solution splits the surplus equally. *)
  (match Nash.after_transfer ~u_x:u_d ~u_y:u_e with
  | Some (after_d, after_e) ->
      printf "After the Nash transfer both parties hold %.2f and %.2f@."
        after_d after_e
  | None -> printf "The agreement is not viable (negative joint utility)@.");

  (* 6. The paths the agreement enables, as seen by the PAN data plane. *)
  let authz =
    Pan_scion.Authz.create
      ~mas:[ (Gen.fig1_asn 'D', Gen.fig1_asn 'E') ]
      graph
  in
  let path = List.map Gen.fig1_asn [ 'H'; 'D'; 'E'; 'B' ] in
  (match Pan_scion.Forwarding.send_path authz path ~payload:"hello" with
  | Ok delivery ->
      printf "@.Packet from H over the new MA path delivered via %a@."
        (Format.pp_print_list
           ~pp_sep:(fun fmt () -> Format.pp_print_string fmt " -> ")
           Asn.pp)
        delivery.Pan_scion.Forwarding.trace
  | Error e -> printf "@.Forwarding failed: %s@." e);

  (* Without the MA, AS E refuses the same path. *)
  let grc_only = Pan_scion.Authz.create graph in
  match Pan_scion.Forwarding.send_path grc_only path ~payload:"hello" with
  | Ok _ -> printf "unexpected: GRC-only network accepted the MA path@."
  | Error e -> printf "Without the agreement the path is refused: %s@." e
