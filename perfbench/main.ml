(* perfbench: the repository benchmark program.

     main.exe gen --workload W --seed N --dir D
       writes the inputs of workload W for seed N into directory D;
     main.exe run --workload W --dir D --seconds S --trace 0|1
       loads them, measures for S seconds and prints every metric, the
       last line being one JSON object.  With --trace 1 it prints the
       per-layer metrics instead of the end-to-end ones.

   perfbench/run.py builds this program and chains the two steps. *)

let usage () =
  prerr_endline
    "usage: main.exe gen --workload W --seed N --dir D\n\
    \       main.exe run --workload W --dir D --seconds S --trace 0|1\n\
     workloads: serve-zipf, serve-intent, market";
  exit 2

let rec flags acc = function
  | key :: value :: rest
    when String.length key > 2 && String.sub key 0 2 = "--" ->
      flags ((String.sub key 2 (String.length key - 2), value) :: acc) rest
  | [] -> acc
  | _ -> usage ()

let () =
  let cmd, args =
    match Array.to_list Sys.argv with
    | _ :: cmd :: rest -> (cmd, flags [] rest)
    | _ -> usage ()
  in
  let get key = match List.assoc_opt key args with Some v -> v | None -> usage () in
  let int key = match int_of_string_opt (get key) with Some n -> n | None -> usage () in
  let workload =
    match List.assoc_opt (get "workload") Inputs.workloads with
    | Some w -> w
    | None -> usage ()
  in
  let dir = get "dir" in
  match cmd with
  | "gen" -> Inputs.generate workload ~seed:(int "seed") ~dir
  | "run" ->
      let seconds = float_of_int (int "seconds") in
      let trace =
        match int "trace" with 0 -> false | 1 -> true | _ -> usage ()
      in
      let tally, metrics, info =
        match (workload, trace) with
        | (Inputs.Serve_zipf | Inputs.Serve_intent), false ->
            Serve_bench.measure ~dir ~seconds
        | (Inputs.Serve_zipf | Inputs.Serve_intent), true -> Serve_bench.trace ~dir
        | Inputs.Market, false -> Market_bench.measure ~dir ~seconds
        | Inputs.Market, true -> Market_bench.trace ~dir
      in
      if not (Report.print tally ~metrics ~info) then exit 1
  | _ -> usage ()
