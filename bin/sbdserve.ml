(* sbdserve: persistent concurrent solver server over the
   symbolic-Boolean-derivative decision procedure (DESIGN.md §9).

   Two modes:
   - default: serve newline-delimited JSON requests on stdin/stdout
     (one session);
   - --socket PATH: serve a Unix-domain socket, one session per
     connection, until a client sends {"op":"shutdown"} or SIGTERM.

   Requests:  {"id":1, "op":"solve", "re":"a{2,3}&~(.*b)",
               "deadline_s":2, "budget":100000, "stats":true}
   also ops assert/check (session conjunction), stats, shutdown, and
   "smt2" instead of "re" for SMT-LIB scripts.  Throughput and latency
   are measured by perfbench (perfbench/README.md). *)

module Server = Sbd_service.Server

let run socket workers queue_cap cache_cap cache_shards memo_cap budget
    deadline =
  let cfg =
    {
      Server.workers;
      queue_cap;
      cache_cap;
      cache_shards;
      memo_cap;
      default_budget = budget;
      default_deadline = deadline;
    }
  in
  let t = Server.create cfg in
  Server.install_sigterm t;
  (match socket with
  | Some path ->
    Printf.eprintf "sbdserve: listening on %s (%d workers)\n%!" path
      cfg.Server.workers;
    Server.run_socket t ~path
  | None -> Server.run_stdio t);
  0

open Cmdliner

let () =
  let socket_t =
    Arg.(
      value
      & opt (some string) None
      & info [ "socket" ] ~docv:"PATH"
          ~doc:"Serve a Unix-domain socket at $(docv) instead of stdin/stdout.")
  in
  (* One domain per worker, and OCaml runs at most 128 domains at once,
     the main one included. *)
  let max_workers = 127 in
  let workers_conv =
    let parse s =
      match int_of_string_opt s with
      | Some n when n >= 1 && n <= max_workers -> Ok n
      | _ ->
        Error
          (`Msg
            (Printf.sprintf "expected an integer from 1 to %d, got %S"
               max_workers s))
    in
    Arg.conv (parse, Format.pp_print_int)
  in
  let workers_t =
    Arg.(
      value
      & opt workers_conv (Sbd_service.Pool.default_workers ())
      & info [ "workers" ]
          ~doc:
            "Size of the domain worker pool, from 1 to 127 (default: \
             recommended domain count minus one, at least 1).")
  in
  let queue_cap_t =
    Arg.(
      value & opt int 256
      & info [ "queue-cap" ]
          ~doc:
            "Bounded request-queue capacity; beyond it requests that need \
             a worker are rejected with {\"error\":\"overloaded\"}.")
  in
  let cache_cap_t =
    Arg.(
      value & opt int 4096
      & info [ "cache-cap" ] ~doc:"Entries in the shared LRU result cache.")
  in
  let cache_shards_t =
    Arg.(
      value & opt int Server.default_config.Server.cache_shards
      & info [ "cache-shards" ]
          ~doc:
            "Independently locked LRU shards (rounded up to a power of \
             two); keys are routed by canonical-pattern hash.")
  in
  let memo_cap_t =
    Arg.(
      value & opt int 200_000
      & info [ "memo-cap" ]
          ~doc:
            "Per-worker cap on the solver tower's memo entries plus \
             its interned terms; beyond it the worker drops the whole \
             tower (memos, intern and BDD tables, compiled engines) and \
             starts a new one.")
  in
  let budget_t =
    Arg.(
      value & opt int 1_000_000
      & info [ "budget" ] ~doc:"Default work budget per request.")
  in
  let deadline_t =
    Arg.(
      value
      & opt (some float) None
      & info [ "deadline" ] ~docv:"SECONDS"
          ~doc:
            "Default wall-clock deadline per request (requests may \
             override with \"deadline_s\").")
  in
  let cmd =
    Cmd.v
      (Cmd.info "sbdserve"
         ~doc:
           "Concurrent regex-constraint solver service (domain worker pool, \
            JSON session protocol, cross-query result cache)")
      Term.(
        const run $ socket_t $ workers_t $ queue_cap_t $ cache_cap_t
        $ cache_shards_t $ memo_cap_t $ budget_t $ deadline_t)
  in
  exit (Cmd.eval' cmd)
