(* A run's result: every metric by name with its unit, one per line,
   then one JSON object as the last line of stdout. *)

type metric = { name : string; unit : string; value : float }

let m name unit value = { name; unit; value }
let count name n = m name "count" (float_of_int n)

(* Failure bookkeeping shared by every pass of a run: stream items,
   candidate pairs and output checks attempted, and those that failed. *)
type tally = { mutable tried : int; mutable bad : int }

let tally () = { tried = 0; bad = 0 }

(* Runs [f] as [items] operations; if it raises, all of them failed. *)
let guarded t ~items f =
  t.tried <- t.tried + items;
  match f () with
  | r -> Some r
  | exception e ->
      prerr_endline ("perfbench: " ^ Printexc.to_string e);
      t.bad <- t.bad + items;
      None

(* One output check: a mismatch is one failed operation. *)
let check t ~what ok =
  t.tried <- t.tried + 1;
  if not ok then begin
    Printf.eprintf "perfbench: output check failed: %s\n%!" what;
    t.bad <- t.bad + 1
  end

let check_fp t ~what expected got =
  check t
    ~what:(Printf.sprintf "%s fingerprint %s, expected %s" what got expected)
    (String.equal expected got)

let json_string s = Printf.sprintf "%S" s

(* Prints [metrics] (the JSON ones) and [info] (context for humans) and
   returns whether the run is correct. *)
let print t ~metrics ~info =
  let finite = List.for_all (fun x -> Float.is_finite x.value) metrics in
  let correct = t.bad = 0 && t.tried > 0 && finite in
  let fail_ratio = float_of_int t.bad /. float_of_int (max 1 t.tried) in
  List.iter
    (fun x -> Printf.printf "%-32s %18.6f %s\n" x.name x.value x.unit)
    (metrics @ info @ [ m "fail_ratio" "ratio" fail_ratio ]);
  let metric x =
    Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}" (json_string x.name)
      (if Float.is_finite x.value then Printf.sprintf "%.17g" x.value else "0")
      (json_string x.unit)
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct t.tried t.bad
    (String.concat ", " (List.map metric metrics));
  correct
