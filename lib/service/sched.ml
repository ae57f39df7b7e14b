(** Per-worker bounded queues with hash-affinity dispatch and work
    stealing — the scheduler that replaced the single mutex-guarded
    MPMC queue (DESIGN.md §17).

    Every worker owns one bounded FIFO deque (mutex + condition
    variables, so contention is per-worker, not global).  Producers
    route by {e affinity}: the same affinity value always lands on the
    same deque, so a worker keeps seeing the same patterns and its
    hash-consing, memo, and compiled-engine caches stay hot.  An idle
    worker first drains its own deque, then {e steals} the oldest item
    from a victim deque (scan order randomized per worker); stealing
    the oldest — rather than the classic newest-first — keeps the
    service's latency order close to global FIFO, and with one mutex
    per deque there is no contended end to avoid anyway.

    Backpressure is retained from the old queue: {!try_push} never
    blocks — a full target deque spills to the least-loaded deque, and
    only when that is also full does the push fail (the server answers
    [{"error":"overloaded"}]).  {!close} lets consumers drain every
    remaining item across all deques before they see [None].

    Missed-wakeup protection: a global stamp is bumped after every
    push (and on close); a worker records the stamp before scanning,
    re-checks it under its own mutex before parking, and producers wake
    parked workers (tracked in an idle bitmask) through the worker's
    own mutex — so a push either happens-before the scan, or flips the
    stamp and aborts the park. *)

module Obs = Sbd_obs.Obs

let c_steals = Obs.Counter.make "service.sched.steals"
let c_spills = Obs.Counter.make "service.sched.spills"

type 'a deque = {
  mutex : Mutex.t;
  nonempty : Condition.t;
  nonfull : Condition.t;
  items : 'a Queue.t;
  cap : int;
}

type 'a t = {
  deques : 'a deque array;
  stamp : int Atomic.t;  (** bumped after every push and on close *)
  idle : int Atomic.t;  (** bitmask of parked workers *)
  closed : bool Atomic.t;
  steals : int Atomic.t;
  spills : int Atomic.t;
  rr : int Atomic.t;  (** round-robin fallback for affinity-less pushes *)
  seeds : int array;  (** per-worker victim-scan PRNG state *)
}

(* The idle set is a bitmask, so cap the worker count at the int width;
   far beyond any sane pool size. *)
let max_workers = 62

let create ~workers ~cap =
  let workers = max 1 (min workers max_workers) in
  let per_cap = max 1 ((max 1 cap + workers - 1) / workers) in
  {
    deques =
      Array.init workers (fun _ ->
          {
            mutex = Mutex.create ();
            nonempty = Condition.create ();
            nonfull = Condition.create ();
            items = Queue.create ();
            cap = per_cap;
          });
    stamp = Atomic.make 0;
    idle = Atomic.make 0;
    closed = Atomic.make false;
    steals = Atomic.make 0;
    spills = Atomic.make 0;
    rr = Atomic.make 0;
    seeds = Array.init workers (fun i -> (i * 0x9E3779B9) lor 1);
  }

let workers t = Array.length t.deques

let length t =
  Array.fold_left
    (fun acc d -> acc + Mutex.protect d.mutex (fun () -> Queue.length d.items))
    0 t.deques

let queue_lengths t =
  Array.to_list
    (Array.map
       (fun d -> Mutex.protect d.mutex (fun () -> Queue.length d.items))
       t.deques)

let steals t = Atomic.get t.steals
let spills t = Atomic.get t.spills

let target_of t = function
  | Some a -> (a land max_int) mod workers t
  | None -> (Atomic.fetch_and_add t.rr 1 land max_int) mod workers t

(* Wake one parked worker other than [except] (whose own condition was
   already signalled by the push).  Signalling through the worker's
   mutex pairs with the stamp re-check in [pop]: the parked worker is
   either inside [Condition.wait] (and wakes) or has not yet re-checked
   the stamp (and aborts the park). *)
let wake_one_idler t ~except =
  let mask = Atomic.get t.idle land lnot (1 lsl except) in
  if mask <> 0 then begin
    let j =
      let rec lowest i = if mask land (1 lsl i) <> 0 then i else lowest (i + 1) in
      lowest 0
    in
    let d = t.deques.(j) in
    Mutex.protect d.mutex (fun () -> Condition.signal d.nonempty)
  end

let push_into t i x : bool =
  let d = t.deques.(i) in
  let ok =
    Mutex.protect d.mutex (fun () ->
        if Atomic.get t.closed || Queue.length d.items >= d.cap then false
        else begin
          Queue.push x d.items;
          Condition.signal d.nonempty;
          true
        end)
  in
  if ok then begin
    Atomic.incr t.stamp;
    wake_one_idler t ~except:i
  end;
  ok

let least_loaded t =
  let best = ref 0 and best_len = ref max_int in
  Array.iteri
    (fun i d ->
      let len = Mutex.protect d.mutex (fun () -> Queue.length d.items) in
      if len < !best_len then begin
        best := i;
        best_len := len
      end)
    t.deques;
  !best

(** Non-blocking enqueue with affinity routing: the target deque first,
    the least-loaded deque as spill-over, [false] (shed the request)
    only when both are full or the scheduler is closed. *)
let try_push ?affinity t x =
  let i = target_of t affinity in
  if push_into t i x then true
  else begin
    let j = least_loaded t in
    if j <> i && push_into t j x then begin
      Atomic.incr t.spills;
      Obs.Counter.incr c_spills;
      true
    end
    else false
  end

(** Blocking enqueue onto the affinity target, for cooperative
    producers that must never spill; [false] only once the scheduler
    has been closed. *)
let push_wait ?affinity t x =
  let i = target_of t affinity in
  let d = t.deques.(i) in
  let ok =
    Mutex.protect d.mutex (fun () ->
        let rec wait () =
          if Atomic.get t.closed then false
          else if Queue.length d.items >= d.cap then begin
            Condition.wait d.nonfull d.mutex;
            wait ()
          end
          else begin
            Queue.push x d.items;
            Condition.signal d.nonempty;
            true
          end
        in
        wait ())
  in
  if ok then begin
    Atomic.incr t.stamp;
    wake_one_idler t ~except:i
  end;
  ok

let take_from d =
  Mutex.protect d.mutex (fun () ->
      match Queue.take_opt d.items with
      | Some x ->
        Condition.signal d.nonfull;
        Some x
      | None -> None)

(* xorshift step over the per-worker seed; only worker [me] touches
   seeds.(me), so no synchronization is needed. *)
let next_rand t ~me =
  let s = t.seeds.(me) in
  let s = s lxor (s lsl 13) in
  let s = s lxor (s lsr 7) in
  let s = (s lxor (s lsl 17)) land max_int in
  t.seeds.(me) <- s lor 1;
  s

let try_steal t ~me =
  let n = workers t in
  if n = 1 then None
  else begin
    let start = next_rand t ~me mod n in
    let rec scan k =
      if k >= n then None
      else
        let j = (start + k) mod n in
        if j = me then scan (k + 1)
        else
          match take_from t.deques.(j) with
          | Some x ->
            Atomic.incr t.steals;
            Obs.Counter.incr c_steals;
            Some x
          | None -> scan (k + 1)
    in
    scan 0
  end

(** Blocking dequeue for worker [me]: own deque first (FIFO), then a
    randomized steal sweep, then park on the worker's own condition.
    [None] once the scheduler is closed and {e every} deque has
    drained. *)
let pop t ~me =
  let d = t.deques.(me) in
  let rec loop () =
    let s0 = Atomic.get t.stamp in
    match take_from d with
    | Some x -> Some x
    | None -> (
      match try_steal t ~me with
      | Some x -> Some x
      | None ->
        (* The scan above locked every deque and saw them empty.  If
           the scheduler is closed and no push raced the scan (stamp
           unchanged — pushes bump it after inserting), the drain is
           complete. *)
        if Atomic.get t.closed then
          if Atomic.get t.stamp = s0 then None else loop ()
        else begin
          Mutex.lock d.mutex;
          if
            Atomic.get t.stamp <> s0
            || not (Queue.is_empty d.items)
            || Atomic.get t.closed
          then Mutex.unlock d.mutex
          else begin
            let bit = 1 lsl me in
            let rec set_idle () =
              let m = Atomic.get t.idle in
              if not (Atomic.compare_and_set t.idle m (m lor bit)) then
                set_idle ()
            in
            let rec clear_idle () =
              let m = Atomic.get t.idle in
              if not (Atomic.compare_and_set t.idle m (m land lnot bit)) then
                clear_idle ()
            in
            set_idle ();
            (* re-check under the mutex now that the idle bit is
               visible: a producer that bumped the stamp after [s0]
               will also check the idle mask after its bump *)
            if Atomic.get t.stamp = s0 && not (Atomic.get t.closed) then
              Condition.wait d.nonempty d.mutex;
            clear_idle ();
            Mutex.unlock d.mutex
          end;
          loop ()
        end)
  in
  loop ()

(** Close the scheduler: producers are refused, consumers drain every
    remaining item (stealing across deques) and then receive [None]. *)
let close t =
  Atomic.set t.closed true;
  Atomic.incr t.stamp;
  Array.iter
    (fun d ->
      Mutex.protect d.mutex (fun () ->
          Condition.broadcast d.nonempty;
          Condition.broadcast d.nonfull))
    t.deques

let stats t : (string * float) list =
  let lens = queue_lengths t in
  [
    ("service.sched.workers", float_of_int (workers t));
    ("service.sched.queued", float_of_int (List.fold_left ( + ) 0 lens));
    ("service.sched.steals", float_of_int (steals t));
    ("service.sched.spills", float_of_int (spills t));
    ( "service.sched.max_queue",
      float_of_int (List.fold_left max 0 lens) );
  ]
