(** Domain worker pool over the work-stealing {!Sched}: N domains,
    each owning one freshly instantiated {!Worker} stack and one
    bounded deque; jobs are routed by pattern-hash affinity so a
    worker keeps seeing the same patterns (hot hash-cons/memo/engine
    caches) and idle workers steal from the others.  A job is a
    closure over the worker module, so the pool does not know about
    the wire protocol; jobs must not raise (a defensive catch keeps a
    failing job from killing its domain).

    At [workers = 1] the pool runs {e inline}: no domain is spawned
    and {!submit} executes the job on the calling thread under an
    uncontended mutex (one worker means no parallelism to lose), so
    the queue hand-off and condition-variable wake-ups that made the
    one-worker pool slower than sequential solving disappear
    entirely. *)

module Obs = Sbd_obs.Obs

let c_submitted = Obs.Counter.make "service.pool.submitted"
let c_rejected = Obs.Counter.make "service.pool.rejected"
let c_processed = Obs.Counter.make "service.pool.processed"
let c_job_errors = Obs.Counter.make "service.pool.job_errors"

type job = (module Worker.WORKER) -> unit

type mode =
  | Inline of { mutex : Mutex.t; worker : (module Worker.WORKER) }
      (** workers = 1: run jobs on the submitting thread; the mutex
          serializes sessions onto the single worker stack *)
  | Pooled of { sched : job Sched.t; domains : unit Domain.t list }

type t = {
  mode : mode;
  workers : int;
  busy : int Atomic.t;
  processed : int Atomic.t;
  rejected : int Atomic.t;
}

let default_workers () = max 1 (Domain.recommended_domain_count () - 1)

let run_job t (job : job) worker =
  ignore (Atomic.fetch_and_add t.busy 1);
  (try job worker
   with e ->
     Obs.Counter.incr c_job_errors;
     Obs.emit (Printf.sprintf "service: job raised %s" (Printexc.to_string e)));
  ignore (Atomic.fetch_and_add t.busy (-1));
  ignore (Atomic.fetch_and_add t.processed 1);
  Obs.Counter.incr c_processed

let worker_loop ?memo_cap t sched ~me () =
  let worker = Worker.create ?memo_cap () in
  let rec go () =
    match Sched.pop sched ~me with
    | None -> ()
    | Some job ->
      run_job t job worker;
      go ()
  in
  go ()

let create ?memo_cap ~workers ~queue_cap () =
  let workers = max 1 workers in
  let busy = Atomic.make 0 in
  let processed = Atomic.make 0 in
  let rejected = Atomic.make 0 in
  if workers = 1 then
    {
      mode =
        Inline { mutex = Mutex.create (); worker = Worker.create ?memo_cap () };
      workers;
      busy;
      processed;
      rejected;
    }
  else begin
    let sched = Sched.create ~workers ~cap:queue_cap in
    (* the counter atomics are shared between [t] and the final record,
       so the spawned loops and callers see the same gauges *)
    let t = { mode = Pooled { sched; domains = [] }; workers; busy; processed; rejected } in
    let domains =
      List.init workers (fun me -> Domain.spawn (worker_loop ?memo_cap t sched ~me))
    in
    { t with mode = Pooled { sched; domains } }
  end

(** Non-blocking submit with backpressure.  [affinity] routes the job
    to a fixed worker deque (same value, same worker — hot caches);
    [false] means the target and spill-over deques are full (or the
    pool is closing) and the caller should shed the request. *)
let submit ?affinity t (job : job) =
  match t.mode with
  | Inline { mutex; worker } ->
    Obs.Counter.incr c_submitted;
    Mutex.protect mutex (fun () -> run_job t job worker);
    true
  | Pooled { sched; _ } ->
    if Sched.try_push ?affinity sched job then begin
      Obs.Counter.incr c_submitted;
      true
    end
    else begin
      ignore (Atomic.fetch_and_add t.rejected 1);
      Obs.Counter.incr c_rejected;
      false
    end

let queue_length t =
  match t.mode with Inline _ -> 0 | Pooled { sched; _ } -> Sched.length sched

let in_flight t = queue_length t + Atomic.get t.busy

(** Wait until every queued and running job has finished. *)
let drain t =
  while in_flight t > 0 do
    Unix.sleepf 0.001
  done

(** Drain, close the scheduler, and join the worker domains. *)
let shutdown t =
  drain t;
  match t.mode with
  | Inline _ -> ()
  | Pooled { sched; domains } ->
    Sched.close sched;
    List.iter Domain.join domains

let stats t : (string * float) list =
  [
    ("service.pool.workers", float_of_int t.workers);
    ("service.pool.queue_len", float_of_int (queue_length t));
    ("service.pool.busy", float_of_int (Atomic.get t.busy));
    ("service.pool.processed", float_of_int (Atomic.get t.processed));
    ("service.pool.rejected", float_of_int (Atomic.get t.rejected));
    ("service.pool.inline", if t.workers = 1 then 1.0 else 0.0);
  ]
  @ match t.mode with Inline _ -> [] | Pooled { sched; _ } -> Sched.stats sched

(** The worker deque an affinity value routes to.  The batch handler
    groups requests by this key: requests that would execute on the
    same worker anyway become one job with one response flush. *)
let route t affinity =
  match t.mode with
  | Inline _ -> 0
  | Pooled _ -> (affinity land max_int) mod t.workers
