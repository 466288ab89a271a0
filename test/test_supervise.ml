(* Supervision suite (lib/runner Supervise/Fault and the pool's
   exception safety).  The contracts under test:

   - a job that raises never takes a pool domain down: the pool absorbs
     it, counts [pool.job_failures]/[pool.worker_restarts], and every
     domain keeps executing subsequent work (asserted with a barrier
     that needs all domains concurrently);
   - a faulty run with enough retries is bit-identical to a fault-free
     run, for any pool size, because every attempt of a chunk replays a
     fresh copy of the chunk's split generator;
   - deadlines cancel chunks cooperatively at attempt boundaries and are
     measured on the ambient Obs clock, so a virtual clock makes expiry
     fully deterministic;
   - partial mode never raises: it returns the completed portion plus a
     manifest naming every failed or cancelled chunk. *)

open Pan_numerics
open Pan_runner
module Obs = Pan_obs.Obs
module Metrics = Pan_obs.Metrics
module Clock = Pan_obs.Clock

(* Run [f] with metrics collection on; returns (result, metrics). *)
let with_obs ?clock f =
  Obs.configure ?clock ();
  Fun.protect
    ~finally:(fun () -> Obs.disable ())
    (fun () ->
      let r = f () in
      (r, Obs.metrics ()))

(* ------------------------------------------------------------------ *)
(* Pool exception safety                                               *)

let test_pool_absorbs_raising_jobs () =
  let (), m =
    with_obs @@ fun () ->
    Pool.with_pool ~domains:4 @@ fun pool ->
    (* 16 jobs, half of which raise.  Every job must still execute. *)
    let executed = Atomic.make 0 in
    Pool.run_jobs pool
      (List.init 16 (fun i () ->
           ignore (Atomic.fetch_and_add executed 1);
           if i mod 2 = 0 then failwith "boom"));
    let deadline = Unix.gettimeofday () +. 10.0 in
    while Atomic.get executed < 16 && Unix.gettimeofday () < deadline do
      Domain.cpu_relax ()
    done;
    Alcotest.(check int) "all jobs executed" 16 (Atomic.get executed);
    (* All 4 domains (3 workers + the helping caller) must still be
       alive: a 4-way barrier only passes if 4 jobs run concurrently.
       A dead worker would leave the barrier stuck, so the spin carries
       a timeout that fails the test instead of hanging it. *)
    let arrived = Atomic.make 0 in
    let timed_out = Atomic.make false in
    Pool.run_jobs pool
      (List.init 4 (fun _ () ->
           ignore (Atomic.fetch_and_add arrived 1);
           let t0 = Unix.gettimeofday () in
           while Atomic.get arrived < 4 && not (Atomic.get timed_out) do
             if Unix.gettimeofday () -. t0 > 10.0 then
               Atomic.set timed_out true;
             Domain.cpu_relax ()
           done));
    Alcotest.(check bool) "all 4 domains reach the barrier" false
      (Atomic.get timed_out)
  in
  Alcotest.(check int) "failures counted" 8
    (Metrics.counter m "pool.job_failures");
  (* worker_restarts counts the subset absorbed on worker domains; the
     caller-helps path counts only job_failures. *)
  let restarts = Metrics.counter m "pool.worker_restarts" in
  Alcotest.(check bool) "restarts within failures" true
    (restarts >= 0 && restarts <= 8)

(* ------------------------------------------------------------------ *)
(* Retry determinism under injected faults                             *)

let fault_spec ~seed ~rate = { Fault.seed; rate; delay = 0.0; delay_rate = 0.0 }

(* The combine is deliberately non-associative and the per-item value
   draws from the chunk generator: any replay that did not restore the
   exact RNG state, or any partial chunk leaking into the fold, shifts
   the result. *)
let sum_kernel ?pool ~retries () =
  let rng = Rng.create 11 in
  Task.map_reduce ?pool ~retries ~rng ~n:60 ~chunk:3
    ~f:(fun crng i -> Rng.float crng +. (float_of_int i /. 977.0))
    ~combine:(fun acc x -> (acc *. 1.000001) +. x)
    ~init:0.0 ()

let test_faulty_run_identical () =
  let baseline = sum_kernel ~retries:0 () in
  let (), m =
    with_obs @@ fun () ->
    Fault.set (Some (fault_spec ~seed:3 ~rate:0.3));
    Fun.protect
      ~finally:(fun () -> Fault.set None)
      (fun () ->
        List.iter
          (fun j ->
            let v =
              if j = 1 then sum_kernel ~retries:8 ()
              else
                Pool.with_pool ~domains:j (fun pool ->
                    sum_kernel ~pool ~retries:8 ())
            in
            Alcotest.(check (float 0.0))
              (Printf.sprintf "faulty j=%d = fault-free" j)
              baseline v)
          [ 1; 2; 4 ])
  in
  (* The equality above is vacuous if the spec never fired. *)
  Alcotest.(check bool) "faults were injected" true
    (Metrics.counter m "fault.injected" > 0);
  Alcotest.(check bool) "retries were scheduled" true
    (Metrics.counter m "runner.retries" > 0);
  Alcotest.(check bool) "chunks recovered" true
    (Metrics.counter m "runner.chunks_recovered" > 0)

let qcheck_fault_recovery =
  QCheck.Test.make ~count:30
    ~name:"Task.map_reduce: faulty+retries = fault-free (random seeds)"
    QCheck.(
      quad small_int (int_range 0 50) (int_range 1 7)
        (QCheck.oneofl [ 1; 2; 4 ]))
    (fun (seed, n, chunk, j) ->
      let run pool retries =
        let rng = Rng.create seed in
        Task.map_reduce ?pool ~retries ~rng ~n ~chunk
          ~f:(fun crng i -> Rng.float crng *. float_of_int (i + 1))
          ~combine:( +. ) ~init:0.0 ()
      in
      let baseline = run None 0 in
      (* rate 0.4 with 12 retries: chance of exhausting a chunk is
         0.4^13 ~ 7e-6, negligible over the qcheck run count. *)
      Fault.set (Some (fault_spec ~seed ~rate:0.4));
      Fun.protect
        ~finally:(fun () -> Fault.set None)
        (fun () ->
          let faulty =
            if j = 1 then run None 12
            else Pool.with_pool ~domains:j (fun pool -> run (Some pool) 12)
          in
          faulty = baseline))

(* ------------------------------------------------------------------ *)
(* Deadlines under a virtual clock                                     *)

(* Six 1-item chunks, each advancing the virtual clock by 0.3 s, under a
   1 s deadline.  Sequentially the boundary checks see elapsed 0, 0.3,
   0.6, 0.9, 1.2, 1.2: exactly chunks 0-3 complete and 4-5 are
   cancelled unstarted. *)
let test_deadline_partial () =
  let clock = Clock.virtual_ () in
  let (acc, manifest), m =
    with_obs ~clock @@ fun () ->
    let policy = Supervise.policy ~deadline:1.0 () in
    let rng = Rng.create 1 in
    Task.map_reduce_partial ~policy ~rng ~n:6 ~chunk:1
      ~f:(fun _ i ->
        Clock.advance clock 0.3;
        i)
      ~combine:( + ) ~init:0 ()
  in
  Alcotest.(check int) "fold covers completed chunks" (0 + 1 + 2 + 3) acc;
  Alcotest.(check int) "completed" 4 manifest.Supervise.completed_chunks;
  Alcotest.(check int) "total" 6 manifest.Supervise.total_chunks;
  Alcotest.(check bool) "expired" true manifest.Supervise.deadline_expired;
  Alcotest.(check (list (triple int int string)))
    "cancelled chunks, unstarted, in ascending order"
    [ (4, 0, "deadline expired"); (5, 0, "deadline expired") ]
    (List.map
       (fun f -> (f.Supervise.chunk, f.Supervise.attempts, f.Supervise.error))
       manifest.Supervise.failures);
  Alcotest.(check int) "cancellations counted" 2
    (Metrics.counter m "runner.chunks_cancelled");
  Alcotest.(check int) "expiry counted once" 1
    (Metrics.counter m "runner.deadline_expired")

let test_deadline_raises_incomplete () =
  let clock = Clock.virtual_ () in
  let (), _ =
    with_obs ~clock @@ fun () ->
    let rng = Rng.create 1 in
    match
      Task.map_reduce ~deadline:1.0 ~rng ~n:6 ~chunk:1
        ~f:(fun _ i ->
          Clock.advance clock 0.3;
          i)
        ~combine:( + ) ~init:0 ()
    with
    | _ -> Alcotest.fail "expected Supervise.Incomplete"
    | exception Supervise.Incomplete man ->
        Alcotest.(check bool) "expired" true man.Supervise.deadline_expired;
        Alcotest.(check int) "completed" 4 man.Supervise.completed_chunks
  in
  ()

(* On a pool the cancellation point each chunk hits is scheduling-
   dependent, so only invariants are asserted: every chunk is accounted
   for, each completed chunk's (c, 2c) result reaches the fold, and
   failures imply the deadline actually expired. *)
let test_deadline_pool_invariants () =
  let clock = Clock.virtual_ () in
  let (), _ =
    with_obs ~clock @@ fun () ->
    Pool.with_pool ~domains:4 @@ fun pool ->
    let policy = Supervise.policy ~deadline:1.0 () in
    let results, man =
      Supervise.run_chunks ~pool ~policy ~partial:true ~m:12
        (fun c ->
          Clock.advance clock 0.3;
          (c, c * 2))
        ~fold:(fun acc r -> r :: acc)
        ~init:[]
    in
    Alcotest.(check int) "all chunks accounted" 12
      (man.Supervise.completed_chunks + List.length man.Supervise.failures);
    List.iter
      (fun (c, v) -> Alcotest.(check int) "completed chunk value" (c * 2) v)
      results;
    Alcotest.(check bool) "failures imply expiry" true
      (man.Supervise.failures = [] || man.Supervise.deadline_expired)
  in
  ()

(* ------------------------------------------------------------------ *)
(* Partial mode and error surfacing for real failures                  *)

let test_partial_permanent_failure () =
  let policy = Supervise.policy ~retries:2 () in
  let arr, man =
    Task.map_partial ~policy ~chunk:4 ~n:16
      ~f:(fun i -> if i = 6 then failwith "boom" else i * 10)
      ()
  in
  (* chunk 1 (items 4-7) fails permanently; its items are missing. *)
  Alcotest.(check (list int))
    "completed chunks concatenated in index order"
    (List.map (fun i -> i * 10) [ 0; 1; 2; 3; 8; 9; 10; 11; 12; 13; 14; 15 ])
    (Array.to_list arr);
  Alcotest.(check (list (triple int int string)))
    "failure manifest"
    [ (1, 3, {|Failure("boom")|}) ]
    (List.map
       (fun f -> (f.Supervise.chunk, f.Supervise.attempts, f.Supervise.error))
       man.Supervise.failures);
  Alcotest.(check bool) "no deadline involved" false
    man.Supervise.deadline_expired

(* Two failing chunks of two items: item 6 (chunk 3) and item 13
   (chunk 6).  All-or-nothing mode must surface the lowest chunk index
   (deterministic), not whichever failed first — so on a pool, item 6
   waits (up to 5 s) until item 13 has failed, making completion order
   name the wrong chunk. *)
let test_lowest_failed_chunk_raises () =
  let run ?pool ~retries entry =
    let thirteen_failed = Atomic.make false in
    let item i =
      if i = 13 then begin
        Atomic.set thirteen_failed true;
        failwith "thirteen"
      end
      else if i = 6 then begin
        let give_up = Unix.gettimeofday () +. 5.0 in
        while
          Option.is_some pool
          && (not (Atomic.get thirteen_failed))
          && Unix.gettimeofday () < give_up
        do
          Unix.sleepf 0.001
        done;
        failwith "six"
      end
      else i
    in
    match entry with
    | `Map -> ignore (Task.map ?pool ~chunk:2 ~retries ~n:16 ~f:item ())
    | `Map_reduce ->
        ignore
          (Task.map_reduce ?pool ~retries ~rng:(Rng.create 1) ~n:16 ~chunk:2
             ~f:(fun _ i -> item i)
             ~combine:( + ) ~init:0 ())
  in
  Pool.with_pool ~domains:4 @@ fun p ->
  List.iter
    (fun (entry, name) ->
      List.iter
        (fun retries ->
          List.iter
            (fun (pool, where) ->
              Alcotest.check_raises
                (Printf.sprintf "%s, retries=%d, %s: lowest failed chunk wins"
                   name retries where)
                (Failure "six")
                (fun () -> run ?pool ~retries entry))
            [ (None, "no pool"); (Some p, "4-domain pool") ])
        [ 0; 1 ])
    [ (`Map, "Task.map"); (`Map_reduce, "Task.map_reduce") ]

(* ------------------------------------------------------------------ *)
(* Validation and spec parsing                                         *)

let test_policy_validation () =
  Alcotest.check_raises "retries < 0"
    (Invalid_argument "Supervise.policy: retries < 0") (fun () ->
      ignore (Supervise.policy ~retries:(-1) ()));
  Alcotest.check_raises "deadline <= 0"
    (Invalid_argument "Supervise.policy: deadline <= 0") (fun () ->
      ignore (Supervise.policy ~deadline:0.0 ()))

let test_fault_parse () =
  (match Fault.parse "rate=0.25,seed=7" with
  | Ok s ->
      Alcotest.(check (float 0.0)) "rate" 0.25 s.Fault.rate;
      Alcotest.(check int) "seed" 7 s.Fault.seed;
      Alcotest.(check (float 0.0)) "delay-rate defaults to 0" 0.0
        s.Fault.delay_rate
  | Error (`Msg msg) -> Alcotest.fail msg);
  (match Fault.parse "rate=0.1,delay=0.5" with
  | Ok s ->
      Alcotest.(check (float 0.0)) "delay-rate defaults to 1 with delay" 1.0
        s.Fault.delay_rate;
      (* the canonical form round-trips *)
      Alcotest.(check bool) "to_string round-trips" true
        (Fault.parse (Fault.to_string s) = Ok s)
  | Error (`Msg msg) -> Alcotest.fail msg);
  let rejects s = Result.is_error (Fault.parse s) in
  Alcotest.(check bool) "rate out of range" true (rejects "rate=1.5");
  Alcotest.(check bool) "negative delay" true (rejects "delay=-1");
  Alcotest.(check bool) "unknown key" true (rejects "frequency=1");
  Alcotest.(check bool) "malformed number" true (rejects "rate=x");
  Alcotest.(check bool) "missing =" true (rejects "rate");
  Alcotest.(check bool) "empty" true (rejects "")

let suite =
  [
    Alcotest.test_case "pool absorbs raising jobs, all domains alive" `Quick
      test_pool_absorbs_raising_jobs;
    Alcotest.test_case "faulty run + retries = fault-free (j=1,2,4)" `Quick
      test_faulty_run_identical;
    QCheck_alcotest.to_alcotest qcheck_fault_recovery;
    Alcotest.test_case "deadline expiry under virtual clock (partial)" `Quick
      test_deadline_partial;
    Alcotest.test_case "deadline expiry raises Incomplete" `Quick
      test_deadline_raises_incomplete;
    Alcotest.test_case "deadline on a pool: manifest invariants" `Quick
      test_deadline_pool_invariants;
    Alcotest.test_case "partial mode survives a permanent failure" `Quick
      test_partial_permanent_failure;
    Alcotest.test_case "lowest failed chunk's exception surfaces" `Quick
      test_lowest_failed_chunk_raises;
    Alcotest.test_case "policy validation" `Quick test_policy_validation;
    Alcotest.test_case "fault spec parsing" `Quick test_fault_parse;
  ]
