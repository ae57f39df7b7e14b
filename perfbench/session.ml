(** One untraced run of a workload against a real [sbdserve]: set-up,
    untimed warm-up, a timed closed-loop phase, a final [stats]
    request, and shutdown.  Every reply is checked. *)

module J = Sbd_obs.Obs.Json
module Jsonin = Sbd_service.Jsonin

type sample = {
  latency : float;  (** seconds from send to reply *)
  wall : float;  (** the reply's own [wall_s]; [nan] when absent *)
  bytes : int;
  done_at : float;
  ok : bool;
}

type result = {
  flags : string list;
  conns : int;
  setup : float list;  (** one sample per spawn *)
  samples : sample array;  (** timed phase, in completion order *)
  t0 : float;
  seconds : float;
  attempted : int;  (** warm-up and timed requests *)
  failures : (Check.reason * int) list;
  wrong : string list;  (** the first few wrong replies, for the report *)
  server_stat : string -> float;  (** counters of the final [stats] reply *)
  peak_rss_mb : float list;  (** [VmHWM] of each server at its end *)
  block : int;  (** the stream's block size, see {!Gen.stream} *)
  cals : float array;
      (** the reference kernel's time ({!Calib.measure}) before each
          block of the timed phase and after the last; not counted in
          the timed phase *)
}

(** Server flags and connection count per workload: [zipf-hot] is the
    only one with parallel sessions; the others use the default flags.
    [zipf-hot] also raises the result cache above the default 4096
    entries, so that the one-off misses never evict the Zipf tail: a
    run then misses exactly the planned one request in twenty, whatever
    the seed.  (With the default, a seed-dependent share of the tail was
    evicted and solved again, and throughput spread 20% across seeds.) *)
let setup_of = function
  | "zipf-hot" -> ([ "--workers"; "2"; "--cache-cap"; "65536" ], 2)
  | _ -> ([], 1)

(** Timed requests after which a long-lived server's peak RSS is read,
    so that it does not grow with how many requests the run got
    through: [zipf-hot] solves a first-seen pattern every 20 requests,
    and each adds to the worker's tables.  Other workloads read it when
    each server stops. *)
let rss_mark = function "zipf-hot" -> Some 40_000 | _ -> None

(** Spawns per run; the set-up metric is their median. *)
let spawns = 15

type state = {
  mutable failed : (Check.reason * int) list;
  mutable nattempted : int;
  mutable wrong_lines : string list;
}

let fail st reason detail =
  st.failed <-
    List.map (fun (r, n) -> if r = reason then (r, n + 1) else (r, n)) st.failed;
  if reason = Check.Wrong && List.length st.wrong_lines < 5 then
    st.wrong_lines <- detail :: st.wrong_lines

(** Judge one reply line; [true] when it is correct. *)
let judge st (req : Gen.req) ~id line =
  match Jsonin.parse line with
  | Error e ->
    fail st Check.Wrong ("unparsable reply: " ^ e);
    (false, nan)
  | Ok doc ->
    let wall = Option.value (Jsonin.float_member "wall_s" doc) ~default:nan in
    let outcome =
      if Jsonin.member "id" doc <> Some (J.Int id) then Some Check.Wrong
      else Check.reply req.Gen.expect doc
    in
    (match outcome with
    | None -> ()
    | Some r ->
      let head = String.sub req.Gen.line 0 (min 160 (String.length req.Gen.line)) in
      fail st r (Printf.sprintf "%s -> %s" head line));
    (outcome = None, wall)

let id_of (req : Gen.req) =
  (* lines start with {"id":N, *)
  Scanf.sscanf req.Gen.line "{\"id\":%d" (fun i -> i)

(** Closed loop over [conns]: each connection sends its next request
    only after the reply to the previous one.  [next] yields requests
    until it returns [None].  A connection with no reply within the
    client timeout fails its request, and the server is killed. *)
let closed_loop st (server : Client.server) ~(next : unit -> Gen.req option)
    ~(record : Gen.req -> latency:float -> wall:float -> ok:bool -> unit) =
  let conns = Array.of_list server.Client.conns in
  let inflight = Array.make (Array.length conns) None in
  let dead = ref false in
  let start k =
    if not !dead then
      match next () with
      | None -> ()
      | Some req -> (
        st.nattempted <- st.nattempted + 1;
        let t = Client.now () in
        inflight.(k) <- Some (req, t);
        match Client.send conns.(k) ~deadline:(t +. Client.reply_timeout) req.Gen.line with
        | () -> ()
        | exception (Client.Timeout | Client.Closed) -> dead := true)
  in
  Array.iteri (fun k _ -> start k) conns;
  let busy () = Array.exists Option.is_some inflight in
  while busy () && not !dead do
    let fds =
      List.filter_map
        (fun k -> Option.map (fun _ -> conns.(k).Client.rd) inflight.(k))
        (List.init (Array.length conns) Fun.id)
    in
    let oldest =
      Array.fold_left
        (fun acc f -> match f with Some (_, t) -> Float.min acc t | None -> acc)
        infinity inflight
    in
    let left = oldest +. Client.reply_timeout -. Client.now () in
    if left <= 0.0 then dead := true
    else begin
      let ready =
        match Unix.select fds [] [] left with
        | r, _, _ -> r
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> []
      in
      Array.iteri
        (fun k c ->
          if List.mem c.Client.rd ready then
            match Client.fill c with
            | exception Client.Closed -> dead := true
            | () -> (
              match (Client.take_line c, inflight.(k)) with
              | Some line, Some (req, t) ->
                let latency = Client.now () -. t in
                inflight.(k) <- None;
                let ok, wall = judge st req ~id:(id_of req) line in
                record req ~latency ~wall ~ok;
                start k
              | _ -> ()))
        conns
    end
  done;
  if !dead then begin
    Array.iter
      (function Some _ -> fail st Check.Timed_out "" | None -> ())
      inflight;
    Client.kill server
  end;
  not !dead

(** [gauge] times the reference kernel between blocks, see {!Calib}. *)
let run ?(gauge : Calib.gauge = []) ~workload ~(stream : Gen.stream) ~seconds () : result =
  let flags, conns = setup_of workload in
  let round = stream.Gen.round in
  let setup = ref [] in
  let spawn () =
    let s, dt = Client.spawn ~flags ~conns in
    setup := dt :: !setup;
    s
  in
  let st =
    { failed = List.map (fun r -> (r, 0)) Check.reasons; nattempted = 0; wrong_lines = [] }
  in
  (* set-up samples from servers that do no work *)
  for _ = 2 to spawns do
    Client.shutdown (spawn ())
  done;
  let server = ref (spawn ()) in
  let warm = ref stream.Gen.warm in
  let alive =
    ref
      (closed_loop st !server
         ~next:(fun () ->
           match !warm with
           | [] -> None
           | r :: rest ->
             warm := rest;
             Some r)
         ~record:(fun _ ~latency:_ ~wall:_ ~ok:_ -> ()))
  in
  let samples = ref [] in
  let stats = ref [] and rss = ref [] in
  (* the timed phase runs for [seconds] of request time: time spent
     spawning and stopping servers between rounds is not counted *)
  let busy = ref 0.0 in
  let i = ref 0 in
  let cals = ref [] in
  let paused = ref 0.0 in
  let marked = ref None in
  (* the server is idle here: no request is in flight *)
  let calibrate () =
    let c0 = Client.now () in
    cals := Calib.measure gauge ~pid:!server.Client.pid ~all:(conns > 1) :: !cals;
    paused := !paused +. (Client.now () -. c0)
  in
  let at_boundary () = !i mod stream.Gen.block = 0 in
  let next_multiple m = ((!i / m) + 1) * m in
  let finish_server () =
    if !alive then begin
      stats := Client.stats !server :: !stats;
      rss := Client.peak_rss_mb !server :: !rss;
      Client.shutdown !server
    end
  in
  let t0 = Client.now () in
  while !alive && !busy < seconds do
    let start = Client.now () in
    let stop = start +. seconds -. !busy in
    (* a leg ends at the next block boundary, so that the kernel is
       timed while no request is in flight, and at the next round
       boundary, after which a fresh server takes over *)
    let last =
      min (next_multiple stream.Gen.block)
        (match round with Some r -> next_multiple r | None -> max_int)
    in
    let offset = start -. t0 -. !busy in
    paused := 0.0;
    alive :=
      closed_loop st !server
        ~next:(fun () ->
          if Client.now () -. !paused >= stop || !i >= last then None
          else begin
            if at_boundary () then calibrate ();
            if Some !i = rss_mark workload then marked := Some (Client.peak_rss_mb !server);
            let r = stream.Gen.get !i in
            incr i;
            Some r
          end)
        ~record:(fun req ~latency ~wall ~ok ->
          samples :=
            {
              latency;
              wall;
              bytes = req.Gen.input_bytes;
              done_at = Client.now () -. offset -. !paused;
              ok;
            }
            :: !samples);
    busy := !busy +. (Client.now () -. start -. !paused);
    let new_round = match round with Some r -> !i mod r = 0 | None -> false in
    if !busy < seconds && !alive && new_round then begin
      finish_server ();
      server := spawn ()
    end
  done;
  if at_boundary () then calibrate ();
  finish_server ();
  let stats = !stats in
  {
    flags = !server.Client.flags;
    conns;
    setup = List.rev !setup;
    samples = Array.of_list (List.rev !samples);
    t0;
    seconds;
    attempted = st.nattempted;
    failures = st.failed;
    wrong = List.rev st.wrong_lines;
    server_stat = (fun name -> List.fold_left (fun acc f -> acc +. f name) 0.0 stats);
    peak_rss_mb = (match !marked with Some m -> [ m ] | None -> !rss);
    block = stream.Gen.block;
    cals = Array.of_list (List.rev !cals);
  }

let failed r = List.fold_left (fun acc (_, n) -> acc + n) 0 r.failures

(** Sum of [f sample] over the samples completed within the timed
    phase, per second of it. *)
let rate r f =
  let stop = r.t0 +. r.seconds in
  Array.fold_left (fun acc s -> if s.done_at <= stop then acc +. f s else acc) 0.0 r.samples
  /. r.seconds

(** The timed phase cut into its whole blocks, each as its samples and
    its duration.  A block's requests complete before the next block's
    are sent, so block [k] is samples [k * block] to [(k + 1) * block - 1].
    Only what completed within the timed phase counts. *)
let segments r =
  let stop = r.t0 +. r.seconds in
  let b = r.block in
  let rec go k start acc =
    if (k + 1) * b > Array.length r.samples then List.rev acc
    else
      let last = r.samples.(((k + 1) * b) - 1) in
      if last.done_at > stop then List.rev acc
      else go (k + 1) last.done_at ((Array.sub r.samples (k * b) b, last.done_at -. start) :: acc)
  in
  go 0 r.t0 []

let sorted_latencies_ms samples =
  let a =
    Array.of_list
      (List.filter_map
         (fun s -> if s.ok then Some (s.latency *. 1000.0) else None)
         (Array.to_list samples))
  in
  Array.sort compare a;
  a

let latencies_ms r = sorted_latencies_ms r.samples

(** Client latency minus the server's own [wall_s]: time a request
    spent in pipes, the reader thread and the pool queue. *)
let queue_wait_ms r =
  let a =
    Array.of_list
      (List.filter_map
         (fun s ->
           if s.ok && not (Float.is_nan s.wall) then Some ((s.latency -. s.wall) *. 1000.0)
           else None)
         (Array.to_list r.samples))
  in
  Array.sort compare a;
  a
