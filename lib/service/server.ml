(** The solver service: session protocol over stdin/stdout or a
    Unix-domain socket, dispatching onto the domain worker {!Pool}
    with a shared cross-query {!Lru} result cache (DESIGN.md §9).

    One session per connection (stdin/stdout is one session).  The
    reader thread never parses regexes and never blocks on the pool:
    [assert] is recorded locally (validated lazily at [check], like
    [check-sat] in SMT solvers), solve/check jobs capture a snapshot
    of the session's assertions, and a full queue rejects the request
    immediately with [{"error":"overloaded"}]. *)

module Obs = Sbd_obs.Obs
module J = Obs.Json

type config = {
  workers : int;
  queue_cap : int;
  cache_cap : int;
  cache_shards : int;  (** LRU shard count, rounded up to a power of two *)
  memo_cap : int;
      (** per-worker generation cap: memo entries plus interned terms *)
  default_budget : int;
  default_deadline : float option;
}

let default_config =
  {
    workers = Pool.default_workers ();
    queue_cap = 256;
    cache_cap = 4096;
    cache_shards = 16;
    memo_cap = 200_000;
    default_budget = 1_000_000;
    default_deadline = None;
  }

type t = {
  cfg : config;
  pool : Pool.t;
  cache : Protocol.verdict Lru.t;
  stopping : bool Atomic.t;
  stop_listener : (unit -> unit) ref;  (** closes the socket listener *)
}

let create cfg =
  {
    cfg;
    pool = Pool.create ~memo_cap:cfg.memo_cap ~workers:cfg.workers
             ~queue_cap:cfg.queue_cap ();
    cache = Lru.create ~shards:cfg.cache_shards ~cap:cfg.cache_cap ();
    stopping = Atomic.make false;
    stop_listener = ref (fun () -> ());
  }

(* -- one session --------------------------------------------------------- *)

type session = {
  oc : out_channel;
  out_mutex : Mutex.t;
  mutable asserted : string list;  (** newest first *)
}

let make_session oc = { oc; out_mutex = Mutex.create (); asserted = [] }

let respond session (doc : J.t) =
  Mutex.protect session.out_mutex (fun () ->
      output_string session.oc (J.to_string doc);
      output_char session.oc '\n';
      flush session.oc)

(** Write a burst of response lines under one lock acquisition and one
    flush — the response half of the batch protocol's amortization. *)
let respond_many session (docs : J.t list) =
  if docs <> [] then
    Mutex.protect session.out_mutex (fun () ->
        List.iter
          (fun doc ->
            output_string session.oc (J.to_string doc);
            output_char session.oc '\n')
          docs;
        flush session.oc)

let stats_doc t ~id =
  (* Pool/cache rows are the exact live values; the Obs snapshot also
     mirrors some of them — keep the first occurrence of each name. *)
  let rows =
    Pool.stats t.pool @ Lru.stats t.cache
    @ List.filter (fun (_, v) -> v <> 0.0) (Obs.snapshot ())
  in
  let seen = Hashtbl.create 64 in
  let rows =
    List.filter
      (fun (name, _) ->
        if Hashtbl.mem seen name then false
        else begin
          Hashtbl.add seen name ();
          true
        end)
      rows
  in
  Protocol.ok_response ~id [ ("stats", Protocol.json_of_stats rows) ]

(** The pool-side work of a solve/check request: raw-text fast-path
    lookup, canonical cache key, shared-LRU lookup, solve on miss,
    cache the deterministic verdicts (never [Unknown] — those depend on
    the budget/deadline of the losing query, not on the language).

    Deterministic verdicts are stored under {e two} keys: the canonical
    digest (so commuted/renamed forms of the same language still hit)
    and a raw-text key ["r:<pattern>"] — an exact repeat of a solved
    query, the overwhelmingly common case under Zipfian traffic, is
    then answered without parsing or canonicalizing the pattern at
    all. *)
let solve_job t ~id ~want_stats ~deadline ~budget ~respond patterns
    (module W : Worker.WORKER) =
  let t0 = Obs.now () in
  let raw_key =
    match patterns with [ one ] -> Some ("r:" ^ one) | _ -> None
  in
  match Option.bind raw_key (Lru.find t.cache) with
  | Some v ->
    respond
      (Protocol.solve_response ~id ~cached:true ~wall_s:(Obs.now () -. t0) v)
  | None -> (
    let key_res =
      match patterns with
      | [ one ] -> W.cache_key one
      | many -> W.conj_cache_key many
    in
    match key_res with
    | Error msg -> respond (Protocol.error_response ~id msg)
    | Ok key -> (
      let put_raw v = Option.iter (fun rk -> Lru.put t.cache rk v) raw_key in
      match Lru.find t.cache key with
      | Some v ->
        (* seed the raw fast path for the next exact repeat *)
        put_raw v;
        respond
          (Protocol.solve_response ~id ~cached:true ~wall_s:(Obs.now () -. t0)
             v)
      | None -> (
        let solved =
          match patterns with
          | [ one ] -> W.solve_pattern ?deadline ~budget one
          | many -> W.solve_conj ?deadline ~budget many
        in
        match solved with
        | Error msg -> respond (Protocol.error_response ~id msg)
        | Ok (verdict, stats) ->
          (match verdict with
          | Protocol.Sat _ | Protocol.Unsat ->
            Lru.put t.cache key verdict;
            put_raw verdict
          | Protocol.Unknown _ -> ());
          respond
            (Protocol.solve_response ~id ~cached:false
               ~wall_s:(Obs.now () -. t0)
               ?stats:(if want_stats then Some stats else None)
               verdict))))

(** The pool-side work of a containment/equivalence request: canonical
    order-independent cache key for [equiv], shared-LRU lookup, prover
    on miss.  Like solve, only the deterministic verdicts (proved /
    refuted) are cached, never [Unknown].  [budget] is the request's
    own: the server's solver default (der-rule scale) means nothing for
    pair expansions, so an absent budget leaves the prover's default. *)
let contain_job t ~id ~want_stats ~deadline ?budget ~respond ~equiv ~left
    ~right (module W : Worker.WORKER) =
  let t0 = Obs.now () in
  match W.contain_cache_key ~equiv left right with
  | Error msg -> respond (Protocol.error_response ~id msg)
  | Ok key -> (
    match Lru.find t.cache key with
    | Some v ->
      respond
        (Protocol.contain_response ~id ~cached:true
           ~wall_s:(Obs.now () -. t0) v)
    | None -> (
      match W.contain_pattern ?deadline ?budget ~equiv left right with
      | Error msg -> respond (Protocol.error_response ~id msg)
      | Ok (verdict, stats) ->
        (match verdict with
        | Protocol.Sat _ | Protocol.Unsat -> Lru.put t.cache key verdict
        | Protocol.Unknown _ -> ());
        respond
          (Protocol.contain_response ~id ~cached:false
             ~wall_s:(Obs.now () -. t0)
             ?stats:(if want_stats then Some stats else None)
             verdict)))

(** The pool-side work of a [match] request: compile (or reuse) the
    worker's byte-level engine for the pattern and run the anchored and
    unanchored scans over the input. *)
let match_job ~id ~want_stats ~deadline ~respond ~pattern ~input
    (module W : Worker.WORKER) =
  let t0 = Obs.now () in
  match W.match_input ?deadline ~pattern ~input () with
  | Error msg -> respond (Protocol.error_response ~id msg)
  | Ok (verdict, stats) ->
    respond
      (Protocol.match_response ~id
         ~wall_s:(Obs.now () -. t0)
         ?stats:(if want_stats then Some stats else None)
         verdict)

(** The pool-side work of an [analyze] request: run the static analyzer
    on the pattern.  The request [budget] (default one) caps Layer-2
    state expansions, reinterpreted at analyzer scale: analysis is a
    pre-pass, so it gets a small fraction of a solve budget. *)
let analyze_job ~id ~deadline ~budget ~respond pat (module W : Worker.WORKER) =
  let t0 = Obs.now () in
  let budget = max 64 (budget / 100) in
  match W.analyze_pattern ?deadline ~budget pat with
  | Error msg -> respond (Protocol.error_response ~id msg)
  | Ok report ->
    respond (Protocol.analyze_response ~id ~wall_s:(Obs.now () -. t0) report)

let smt2_job ~id ~deadline ~budget ~respond script (module W : Worker.WORKER) =
  let t0 = Obs.now () in
  match W.run_smt2 ?deadline ~budget script with
  | Error msg -> respond (Protocol.error_response ~id msg)
  | Ok (answers, output) ->
    respond (Protocol.smt2_response ~id ~wall_s:(Obs.now () -. t0) answers output)

(** How one parsed request is executed: answered by the reader thread
    itself, or queued onto the pool. *)
type dispatchable =
  | Immediate of J.t
  | Queued of (respond:(J.t -> unit) -> Pool.job)

(** Classify one non-[batch], non-[shutdown] request. *)
let classify t session (req : Protocol.request) : dispatchable =
  let id = req.Protocol.id in
  let deadline =
    match req.deadline_s with
    | Some _ as d -> d
    | None -> t.cfg.default_deadline
  in
  let budget = Option.value req.budget ~default:t.cfg.default_budget in
  let want_stats = req.want_stats in
  match[@warning "-4"] req.payload with
  | Protocol.Stats -> Immediate (stats_doc t ~id)
  | Protocol.Assert_re pat ->
    session.asserted <- pat :: session.asserted;
    Immediate
      (Protocol.ok_response ~id
         [ ("asserted", J.Int (List.length session.asserted)) ])
  | Protocol.Solve_re pat ->
    Queued
      (fun ~respond ->
        solve_job t ~id ~want_stats ~deadline ~budget ~respond [ pat ])
  | Protocol.Check ->
    let snapshot = List.rev session.asserted in
    Queued
      (fun ~respond ->
        solve_job t ~id ~want_stats ~deadline ~budget ~respond snapshot)
  | Protocol.Match_re { pattern; input } ->
    Queued
      (fun ~respond ->
        match_job ~id ~want_stats ~deadline ~respond ~pattern ~input)
  | Protocol.Analyze_re pat ->
    Queued (fun ~respond -> analyze_job ~id ~deadline ~budget ~respond pat)
  | Protocol.Subset_re { left; right } ->
    Queued
      (fun ~respond ->
        contain_job t ~id ~want_stats ~deadline ?budget:req.budget ~respond
          ~equiv:false ~left ~right)
  | Protocol.Equiv_re { left; right } ->
    Queued
      (fun ~respond ->
        contain_job t ~id ~want_stats ~deadline ?budget:req.budget ~respond
          ~equiv:true ~left ~right)
  | Protocol.Solve_smt2 script ->
    Queued (fun ~respond -> smt2_job ~id ~deadline ~budget ~respond script)
  | Protocol.Shutdown | Protocol.Batch _ ->
    (* both are intercepted by [handle_request] / refused by the parser
       inside a batch *)
    Immediate (Protocol.error_response ~id "internal: unclassifiable request")

let dispatch_one t session ~id (d : dispatchable) =
  match d with
  | Immediate doc -> respond session doc
  | Queued job ->
    if Atomic.get t.stopping then
      respond session (Protocol.error_response ~id "shutting down")
    else if not (Pool.submit t.pool (job ~respond:(respond session))) then
      respond session (Protocol.overloaded_response ~id)

(** [chunks k xs] splits [xs], in order, into at most [k] contiguous
    chunks of near-equal length. *)
let chunks k xs =
  let size = max 1 ((List.length xs + k - 1) / k) in
  let rec go acc cur n = function
    | [] -> List.rev (if cur = [] then acc else List.rev cur :: acc)
    | x :: rest ->
      if n = size then go (List.rev cur :: acc) [ x ] 1 rest
      else go acc (x :: cur) (n + 1) rest
  in
  go [] [] 0 xs

(** Execute a validated batch envelope.  Reader-side responses (parse
    errors of wrapped requests, [stats], [assert]) flush as one burst;
    the pool-bound members are split in arrival order into at most one
    contiguous chunk per worker, and each chunk becomes {e one} pool
    job that runs its requests in order and writes all their responses
    with a single lock/flush.  Compared to one job and one flush per
    request this amortizes the queue hand-off, wake-up, and write
    syscall across the chunk, while out-of-order id correlation lets
    the chunks run on different workers. *)
let handle_batch t session (reqs : (Protocol.request, J.t * string) result list)
    =
  let immediate = ref [] and queued = ref [] in
  List.iter
    (fun item ->
      match item with
      | Error (id, msg) ->
        immediate := Protocol.error_response ~id msg :: !immediate
      | Ok req -> (
        match classify t session req with
        | Immediate doc -> immediate := doc :: !immediate
        | Queued job -> queued := (req.Protocol.id, job) :: !queued))
    reqs;
  respond_many session (List.rev !immediate);
  List.iter
    (fun jobs ->
      if Atomic.get t.stopping then
        respond_many session
          (List.map
             (fun (id, _) -> Protocol.error_response ~id "shutting down")
             jobs)
      else begin
        let chunk_job (worker : (module Worker.WORKER)) =
          let out = ref [] in
          let buffer doc = out := doc :: !out in
          List.iter (fun (_, job) -> (job ~respond:buffer) worker) jobs;
          respond_many session (List.rev !out)
        in
        if not (Pool.submit t.pool chunk_job) then
          respond_many session
            (List.map (fun (id, _) -> Protocol.overloaded_response ~id) jobs)
      end)
    (chunks t.pool.Pool.workers (List.rev !queued))

(** Handle one parsed request; [`Shutdown] ends the whole server. *)
let handle_request t session (parsed : (Protocol.request, J.t * string) result)
    : [ `Continue | `Shutdown ] =
  match parsed with
  | Error (id, msg) ->
    respond session (Protocol.error_response ~id msg);
    `Continue
  | Ok req -> (
    match[@warning "-4"] req.Protocol.payload with
    | Protocol.Shutdown ->
      let id = req.Protocol.id in
      Atomic.set t.stopping true;
      Pool.drain t.pool;
      respond session (Protocol.ok_response ~id [ ("drained", J.Bool true) ]);
      `Shutdown
    | Protocol.Batch reqs ->
      handle_batch t session reqs;
      `Continue
    | _ ->
      dispatch_one t session ~id:req.Protocol.id (classify t session req);
      `Continue)

let handle_line t session line : [ `Continue | `Shutdown ] =
  handle_request t session (Protocol.parse_request line)

(** Serve one channel pair until EOF or [shutdown].  The reader drains
    every complete line available per read ({!Jsonin.Lines}), so a
    pipelining client pays one syscall per burst, and because every
    solve runs on the pool, the reader loops straight back into [read]
    — a request in flight never blocks the next line. *)
let serve_channel t ic oc : [ `Eof | `Shutdown ] =
  let session = make_session oc in
  let reader = Jsonin.Lines.create ic in
  let rec loop () =
    match Jsonin.Lines.read reader with
    | None -> `Eof
    | Some lines -> burst lines
  and burst = function
    | [] -> loop ()
    | line :: rest ->
      if String.trim line = "" then burst rest
      else (
        match handle_line t session line with
        | `Continue -> burst rest
        | `Shutdown -> `Shutdown)
  in
  loop ()

(* -- transports ---------------------------------------------------------- *)

(** Serve stdin/stdout (one session).  Returns after EOF or shutdown,
    with in-flight work drained and the pool stopped. *)
let run_stdio t =
  ignore (serve_channel t stdin stdout);
  Atomic.set t.stopping true;
  Pool.shutdown t.pool

(** Serve a Unix-domain socket, one thread per connection (threads sit
    on the main domain; solving happens in the pool domains).  Returns
    when a client sends [shutdown] or the process receives SIGTERM. *)
let run_socket t ~path =
  (try Unix.unlink path with _ -> ());
  let sock = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind sock (Unix.ADDR_UNIX path);
  Unix.listen sock 64;
  (t.stop_listener := fun () -> try Unix.close sock with _ -> ());
  let serve_client fd =
    let ic = Unix.in_channel_of_descr fd in
    let oc = Unix.out_channel_of_descr fd in
    (match serve_channel t ic oc with
    | `Shutdown -> !(t.stop_listener) ()
    | `Eof -> ());
    try Unix.close fd with _ -> ()
  in
  (* Poll with a timeout rather than blocking in accept(2): closing the
     listener from a session thread does not wake a thread already
     parked in accept, so a blocking loop would survive [shutdown]
     until the next connection arrived. *)
  let rec accept_loop () =
    if not (Atomic.get t.stopping) then
      match Unix.select [ sock ] [] [] 0.2 with
      | [], _, _ -> accept_loop ()
      | _ :: _, _, _ -> (
        match Unix.accept sock with
        | fd, _ ->
          ignore (Thread.create serve_client fd);
          accept_loop ()
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> accept_loop ()
        | exception _ -> () (* listener closed: shutting down *))
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> accept_loop ()
      | exception _ -> () (* listener closed: shutting down *)
  in
  accept_loop ();
  Atomic.set t.stopping true;
  Pool.shutdown t.pool;
  try Unix.unlink path with _ -> ()

(** Graceful degradation on SIGTERM: stop accepting, drain, exit. *)
let install_sigterm t =
  Sys.set_signal Sys.sigterm
    (Sys.Signal_handle
       (fun _ ->
         Atomic.set t.stopping true;
         !(t.stop_listener) ();
         Pool.drain t.pool;
         exit 0))
