(** Domain worker pool: N domains, each owning one freshly instantiated
    {!Worker} stack, fed from one shared bounded FIFO (a mutex and a
    [Queue.t]; each parked worker waits on its own condition).  A job is a closure over the
    worker module, so the pool does not know about the wire protocol;
    jobs must not raise (a defensive catch keeps a failing job from
    killing its domain).

    The queue is shared rather than per-worker: under the Zipfian
    service traffic almost every request is answered from the shared
    result cache, so sending a pattern to the worker whose memos have
    seen it buys nothing (DESIGN.md §17).

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

type queue = {
  mutex : Mutex.t;
  jobs : job Queue.t;
  cap : int;
  mutable closed : bool;
  mutable parked : Condition.t list;
      (** the own condition of each parked worker, most recently parked
          first *)
}

type mode =
  | Inline of { mutex : Mutex.t; worker : (module Worker.WORKER) }
      (** workers = 1: run jobs on the submitting thread; the mutex
          serializes sessions onto the single worker stack *)
  | Pooled of { queue : queue; domains : unit Domain.t list }

type t = {
  mode : mode;
  workers : int;
  pending : int Atomic.t;
      (** jobs accepted by {!submit} whose [run_job] has not returned:
          queued, waiting for the inline mutex, or running *)
  processed : int Atomic.t;
  rejected : int Atomic.t;
}

let default_workers () = max 1 (Domain.recommended_domain_count () - 1)

let run_job t (job : job) worker =
  (try job worker
   with e ->
     Obs.Counter.incr c_job_errors;
     Obs.emit (Printf.sprintf "service: job raised %s" (Printexc.to_string e)));
  ignore (Atomic.fetch_and_add t.processed 1);
  Obs.Counter.incr c_processed;
  ignore (Atomic.fetch_and_add t.pending (-1))

(* Blocking dequeue for the worker whose own condition is [wake]: [None]
   once the queue is closed and empty, so closing lets the workers
   finish every accepted job first. *)
let pop q wake =
  Mutex.protect q.mutex (fun () ->
      while Queue.is_empty q.jobs && not q.closed do
        q.parked <- wake :: q.parked;
        Condition.wait wake q.mutex;
        (* [submit] and [shutdown] unlist the worker they wake; after a
           spurious wake-up it is still listed *)
        q.parked <- List.filter (fun c -> c != wake) q.parked
      done;
      Queue.take_opt q.jobs)

let worker_loop ?memo_cap t q () =
  let worker = Worker.create ?memo_cap () in
  let wake = Condition.create () in
  let rec go () =
    match pop q wake with
    | None -> ()
    | Some job ->
      run_job t job worker;
      go ()
  in
  go ()

let create ?memo_cap ~workers ~queue_cap () =
  let workers = max 1 workers in
  let t mode =
    {
      mode;
      workers;
      pending = Atomic.make 0;
      processed = Atomic.make 0;
      rejected = Atomic.make 0;
    }
  in
  if workers = 1 then
    t (Inline { mutex = Mutex.create (); worker = Worker.create ?memo_cap () })
  else begin
    let queue =
      {
        mutex = Mutex.create ();
        jobs = Queue.create ();
        cap = max 1 queue_cap;
        closed = false;
        parked = [];
      }
    in
    (* the counter atomics are shared between [t0] and the final record,
       so the spawned loops and callers see the same gauges *)
    let t0 = t (Pooled { queue; domains = [] }) in
    let domains =
      List.init workers (fun _ -> Domain.spawn (worker_loop ?memo_cap t0 queue))
    in
    { t0 with mode = Pooled { queue; domains } }
  end

(** Non-blocking submit with backpressure: [false] means the queue
    holds [queue_cap] jobs (or the pool is closing) and the caller
    should shed the request. *)
let submit t (job : job) =
  let accepted =
    match t.mode with
    | Inline { mutex; worker } ->
      ignore (Atomic.fetch_and_add t.pending 1);
      Mutex.protect mutex (fun () -> run_job t job worker);
      true
    | Pooled { queue = q; _ } ->
      Mutex.protect q.mutex (fun () ->
          if q.closed || Queue.length q.jobs >= q.cap then false
          else begin
            (* counted before any worker can take it *)
            ignore (Atomic.fetch_and_add t.pending 1);
            Queue.push job q.jobs;
            (* wake the most recently parked worker, not the longest
               parked one a shared condition would pick, which
               measured slower on zipf-hot (DESIGN.md §17) *)
            (match q.parked with
            | c :: rest ->
              q.parked <- rest;
              Condition.signal c
            | [] -> ());
            true
          end)
  in
  if accepted then Obs.Counter.incr c_submitted
  else begin
    ignore (Atomic.fetch_and_add t.rejected 1);
    Obs.Counter.incr c_rejected
  end;
  accepted

let queue_length t =
  match t.mode with
  | Inline _ -> 0
  | Pooled { queue = q; _ } -> Mutex.protect q.mutex (fun () -> Queue.length q.jobs)

(** Wait until every accepted job has finished. *)
let drain t =
  while Atomic.get t.pending > 0 do
    Unix.sleepf 0.001
  done

(** Stop accepting jobs, let the workers finish the queued ones, and
    join the worker domains. *)
let shutdown t =
  match t.mode with
  | Inline _ -> drain t
  | Pooled { queue = q; domains } ->
    Mutex.protect q.mutex (fun () ->
        q.closed <- true;
        List.iter Condition.signal q.parked;
        q.parked <- []);
    List.iter Domain.join domains

let stats t : (string * float) list =
  [
    ("service.pool.workers", float_of_int t.workers);
    ("service.pool.queue_len", float_of_int (queue_length t));
    ("service.pool.pending", float_of_int (Atomic.get t.pending));
    ("service.pool.processed", float_of_int (Atomic.get t.processed));
    ("service.pool.rejected", float_of_int (Atomic.get t.rejected));
    ("service.pool.inline", if t.workers = 1 then 1.0 else 0.0);
  ]
