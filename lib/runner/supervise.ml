module Obs = Pan_obs.Obs
module Clock = Pan_obs.Clock

type policy = { retries : int; deadline : float option }

let default = { retries = 0; deadline = None }

let policy ?(retries = 0) ?deadline () =
  if retries < 0 then invalid_arg "Supervise.policy: retries < 0";
  (match deadline with
  | Some d when not (d > 0.0) -> invalid_arg "Supervise.policy: deadline <= 0"
  | _ -> ());
  { retries; deadline }

type failure = { chunk : int; attempts : int; error : string }

type manifest = {
  total_chunks : int;
  completed_chunks : int;
  retried_chunks : int;
  failures : failure list;
  deadline_expired : bool;
}

let complete m = m.failures = []

let pp_manifest fmt m =
  Format.fprintf fmt
    "# supervision: %d/%d chunks completed, %d retried, %d failed%s@."
    m.completed_chunks m.total_chunks m.retried_chunks (List.length m.failures)
    (if m.deadline_expired then ", deadline expired" else "");
  List.iter
    (fun f ->
      Format.fprintf fmt "#   chunk %d after %d attempts: %s@." f.chunk
        f.attempts f.error)
    m.failures

exception Incomplete of manifest

(* Per-chunk outcome, produced by whichever domain ran the chunk. *)
type 'a outcome =
  | Done of 'a * int (* attempts used *)
  | Failed of failure * (exn * Printexc.raw_backtrace) option

let run_chunks ?pool ~policy ~partial ~m run ~fold ~init =
  let clock =
    match Obs.clock () with Some c -> c | None -> Clock.of_env ()
  in
  let t0 = Clock.now clock in
  let expired () =
    match policy.deadline with
    | None -> false
    | Some d -> Clock.now clock -. t0 >= d
  in
  let hit_deadline = Atomic.make false in
  (* The whole attempt loop runs on one domain, so retries are immediate
     and the (chunk, attempt) fault/replay keys never depend on
     scheduling.  Never raises. *)
  let rec attempt_chunk c attempt last_err =
    if expired () then begin
      Atomic.set hit_deadline true;
      Obs.incr "runner.chunks_cancelled";
      let error, exn_bt =
        match last_err with
        | Some ((e, _) as eb) -> (Printexc.to_string e, Some eb)
        | None -> ("deadline expired", None)
      in
      Failed ({ chunk = c; attempts = attempt - 1; error }, exn_bt)
    end
    else
      match
        Fault.inject ~clock ~chunk:c ~attempt;
        run c
      with
      | v ->
          if attempt > 1 then Obs.incr "runner.chunks_recovered";
          Done (v, attempt)
      | exception e ->
          let eb = (e, Printexc.get_raw_backtrace ()) in
          Obs.incr "runner.attempt_failures";
          if attempt <= policy.retries then begin
            Obs.incr "runner.retries";
            attempt_chunk c (attempt + 1) (Some eb)
          end
          else begin
            Obs.incr "runner.chunks_failed";
            Failed
              ( { chunk = c; attempts = attempt; error = Printexc.to_string e },
                Some eb )
          end
  in
  (* Outcomes are settled in ascending chunk order on every path, so the
     fold sees completed chunks in index order whatever the scheduling. *)
  let acc = ref init and completed = ref 0 and retried = ref 0 in
  let failed = ref [] (* descending chunk order *) in
  let settle = function
    | Done (v, attempts) ->
        acc := fold !acc v;
        incr completed;
        if attempts > 1 then incr retried
    | Failed (f, exn_bt) -> failed := (f, exn_bt) :: !failed
  in
  (match pool with
  | Some p when Pool.domains p > 1 && m > 1 ->
      let outcomes = Array.make m None in
      let mutex = Mutex.create () in
      let all_done = Condition.create () in
      let remaining = ref m in
      let job c () =
        let o = attempt_chunk c 1 None in
        Mutex.lock mutex;
        outcomes.(c) <- Some o;
        decr remaining;
        if !remaining = 0 then Condition.signal all_done;
        Mutex.unlock mutex
      in
      Pool.run_jobs p (List.init m job);
      Mutex.lock mutex;
      while !remaining > 0 do
        Condition.wait all_done mutex
      done;
      Mutex.unlock mutex;
      Array.iter (fun o -> settle (Option.get o)) outcomes
  | _ ->
      for c = 0 to m - 1 do
        settle (attempt_chunk c 1 None)
      done);
  let failed = List.rev !failed in
  let deadline_expired = Atomic.get hit_deadline in
  if deadline_expired then Obs.incr "runner.deadline_expired";
  let manifest =
    {
      total_chunks = m;
      completed_chunks = !completed;
      retried_chunks = !retried;
      failures = List.map fst failed;
      deadline_expired;
    }
  in
  if partial then (!acc, manifest)
  else
    (* All-or-nothing: surface the lowest failed chunk — deterministic,
       unlike completion order. *)
    match failed with
    | [] -> (!acc, manifest)
    | (_, Some (e, bt)) :: _ -> Printexc.raise_with_backtrace e bt
    | (_, None) :: _ -> raise (Incomplete manifest)
