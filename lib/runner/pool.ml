module Obs = Pan_obs.Obs

type job = unit -> unit

type t = {
  domains : int;
  mutex : Mutex.t;
  has_job : Condition.t;
  jobs : job Queue.t;
  mutable closed : bool;
  mutable workers : unit Domain.t list;
}

let domains t = t.domains

(* Jobs report success/failure through their own channel (as
   Supervise.run_chunks does); an exception escaping a job must not take a
   pool domain down with it, or an N-domain pool silently degrades to
   N-1 for the rest of the process.  Absorb and count instead. *)
let run_job_absorbing job =
  try job ()
  with _ -> Obs.incr "pool.job_failures"

let rec worker_loop t =
  Mutex.lock t.mutex;
  let rec next () =
    if not (Queue.is_empty t.jobs) then Some (Queue.pop t.jobs)
    else if t.closed then None
    else begin
      Condition.wait t.has_job t.mutex;
      next ()
    end
  in
  match next () with
  | None -> Mutex.unlock t.mutex
  | Some job ->
      Mutex.unlock t.mutex;
      (try job ()
       with _ ->
         (* the worker survives: count the failure, count the loop
            restart, and go back to the queue *)
         Obs.incr "pool.job_failures";
         Obs.incr "pool.worker_restarts");
      worker_loop t

let create ~domains =
  if domains < 1 then invalid_arg "Pool.create: domains < 1";
  let t =
    {
      domains;
      mutex = Mutex.create ();
      has_job = Condition.create ();
      jobs = Queue.create ();
      closed = false;
      workers = [];
    }
  in
  t.workers <-
    List.init (domains - 1) (fun _ -> Domain.spawn (fun () -> worker_loop t));
  Obs.incr "pool.created";
  Obs.gauge "pool.domains" (float_of_int domains);
  t

let shutdown t =
  Mutex.lock t.mutex;
  let workers = t.workers in
  t.closed <- true;
  t.workers <- [];
  Condition.broadcast t.has_job;
  Mutex.unlock t.mutex;
  List.iter Domain.join workers

let with_pool ~domains f =
  let t = create ~domains in
  Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)

let run_jobs t jobs =
  Mutex.lock t.mutex;
  if t.closed then begin
    Mutex.unlock t.mutex;
    invalid_arg "Pool.run_jobs: pool is shut down"
  end;
  List.iter (fun j -> Queue.push j t.jobs) jobs;
  Obs.incr ~by:(List.length jobs) "pool.jobs";
  Condition.broadcast t.has_job;
  (* Help drain the queue: the caller is the pool's last worker.  A
     raising job must not abort the drain — queued jobs would be
     stranded and Supervise's completion barrier would deadlock — so
     absorb, count, re-lock, and keep draining. *)
  let rec help () =
    if Queue.is_empty t.jobs then Mutex.unlock t.mutex
    else begin
      let job = Queue.pop t.jobs in
      Mutex.unlock t.mutex;
      run_job_absorbing job;
      Mutex.lock t.mutex;
      help ()
    end
  in
  help ()
