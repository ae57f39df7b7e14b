(** The traced run: the same seeded request stream replayed in-process
    through the public functions the server calls, in the server's
    order, with a span around each call:

    {v request
         jsonin.lines     Jsonin.Lines.read
         protocol.parse   Protocol.parse_request
         lru.find         Lru.find (raw key, then canonical key)
         worker.cache_key Worker.cache_key / contain_cache_key
         worker.solve     Worker.solve_pattern
         worker.contain   Worker.contain_pattern
         engine.match     Worker.match_input (plain patterns)
         locmatch.match   Worker.match_input (located patterns)
         lru.put          Lru.put
         protocol.encode  Obs.Json.to_string of the reply v}

    Around each worker call it reads deltas of the program's own [Obs]
    counters and spans.  Spans are kept in memory and written out when
    the run ends.  One worker and one cache stand in for the pool, so
    the replay measures service time, not queueing. *)

module Obs = Sbd_obs.Obs
module J = Obs.Json
module Sv = Sbd_service
module Protocol = Sv.Protocol

type span = {
  name : string;
  req : int;  (** position of the request in the replay *)
  parent : int;  (** index of the parent span, -1 for a root *)
  start : float;
  stop : float;
}

(** Counters read around each worker call, by [Obs] name. *)
let counter_names =
  [
    "deriv.delta.memo_hit"; "deriv.delta.memo_miss"; "deriv.dnf.size_total";
    "tregex.intern.hit"; "tregex.intern.miss"; "solve.queries"; "solve.presolve_hits";
    "solve.expansions"; "solve.dead_hits"; "solve.deadline_hits"; "contain.expansions";
    "contain.memo_hits"; "engine.compiles"; "engine.states"; "engine.resets";
    "service.worker.memo_clears";
  ]

let span_names = [ "solve"; "deriv.dnf"; "contain" ]

type t = {
  mutable spans : span array;  (** the first [nspans] are recorded *)
  mutable nspans : int;
  counters : (string * Obs.Counter.t) list;
  obs_spans : (string * Obs.Span.t) list;
  deltas : (string, float) Hashtbl.t;  (** accumulated counter/span deltas *)
  mutable lru_puts : int;
  mutable requests : int;
  mutable answered_from_cache : int;
  mutable parse_bytes : int;
  mutable engine_bytes : int;
  mutable accel_bytes : float;
}

let create () =
  {
    spans = [||];
    nspans = 0;
    counters = List.map (fun n -> (n, Obs.Counter.make n)) counter_names;
    obs_spans = List.map (fun n -> (n, Obs.Span.make n)) span_names;
    deltas = Hashtbl.create 64;
    lru_puts = 0;
    requests = 0;
    answered_from_cache = 0;
    parse_bytes = 0;
    engine_bytes = 0;
    accel_bytes = 0.0;
  }

let now = Unix.gettimeofday

(** Record a span; returns its index. *)
let push t s =
  if t.nspans = Array.length t.spans then
    t.spans <- Array.append t.spans (Array.make (max 1024 t.nspans) s);
  t.spans.(t.nspans) <- s;
  t.nspans <- t.nspans + 1;
  t.nspans - 1

(** Run [f] as a span named [name] under [parent]; returns its result. *)
let span t ~req ~parent name f =
  let start = now () in
  let x = f () in
  ignore (push t { name; req; parent; start; stop = now () });
  x

let add t key v =
  Hashtbl.replace t.deltas key (v +. Option.value (Hashtbl.find_opt t.deltas key) ~default:0.0)

let delta t key = Option.value (Hashtbl.find_opt t.deltas key) ~default:0.0

(** Run [f], accumulating the deltas of every watched [Obs] counter and
    span across it. *)
let with_deltas t f =
  let cs = List.map (fun (n, c) -> (n, Obs.Counter.value c)) t.counters in
  let ss = List.map (fun (n, s) -> (n, Obs.Span.total s, Obs.Span.count s)) t.obs_spans in
  let x = f () in
  List.iter (fun (n, v) -> add t n (float_of_int (Obs.Counter.value (List.assoc n t.counters) - v))) cs;
  List.iter
    (fun (n, s0, c0) ->
      let s = List.assoc n t.obs_spans in
      add t (n ^ ".s") (Obs.Span.total s -. s0);
      add t (n ^ ".n") (float_of_int (Obs.Span.count s - c0)))
    ss;
  x

(** Replays requests against one worker and one result cache built like
    the server's defaults.  Each request line reaches the reader through
    a file in the output directory, read by [Jsonin.Lines] exactly as a
    session reads its channel. *)
type replay = {
  tr : t;
  worker : (module Sv.Worker.WORKER);
  cache : Protocol.verdict Sv.Lru.t;
  file : string;
}

let make_replay tr =
  Client.ensure_out_dir ();
  let cfg = Sv.Server.default_config in
  {
    tr;
    worker = Sv.Worker.create ~memo_cap:cfg.Sv.Server.memo_cap ();
    cache = Sv.Lru.create ~shards:cfg.Sv.Server.cache_shards ~cap:cfg.Sv.Server.cache_cap ();
    file = Printf.sprintf "%s/replay%d.ndjson" Client.out_dir (Unix.getpid ());
  }

let budget = Sv.Server.default_config.Sv.Server.default_budget

(** Replay one request line; returns the encoded reply. *)
let replay_one rp ~req (line : string) : string =
  let t = rp.tr in
  let (module W : Sv.Worker.WORKER) = rp.worker in
  Out_channel.with_open_bin rp.file (fun oc ->
      output_string oc line;
      output_char oc '\n');
  let ic = open_in_bin rp.file in
  let reader = Sv.Jsonin.Lines.create ic in
  t.requests <- t.requests + 1;
  let root_start = now () in
  (* reserve the root's slot so that children can point at it *)
  let root = push t { name = "request"; req; parent = -1; start = root_start; stop = root_start } in
  let sp name f = span t ~req ~parent:root name f in
  let find key = sp "lru.find" (fun () -> Sv.Lru.find rp.cache key) in
  let put key v =
    t.lru_puts <- t.lru_puts + 1;
    sp "lru.put" (fun () -> Sv.Lru.put rp.cache key v)
  in
  let cached () = t.answered_from_cache <- t.answered_from_cache + 1 in
  let encode doc = sp "protocol.encode" (fun () -> J.to_string doc) in
  let lines =
    match sp "jsonin.lines" (fun () -> Sv.Jsonin.Lines.read reader) with
    | Some [ l ] -> l
    | _ -> failwith "perfbench: replay reader did not return one line"
  in
  close_in ic;
  t.parse_bytes <- t.parse_bytes + String.length lines;
  let t0 = now () in
  let wall () = now () -. t0 in
  let reply =
    match sp "protocol.parse" (fun () -> Protocol.parse_request lines) with
    | Error (id, msg) -> encode (Protocol.error_response ~id msg)
    | Ok r -> (
      let id = r.Protocol.id and deadline = r.Protocol.deadline_s in
      match[@warning "-4"] r.Protocol.payload with
      | Protocol.Solve_re pat -> (
        let raw = "r:" ^ pat in
        match find raw with
        | Some v ->
          cached ();
          encode (Protocol.solve_response ~id ~cached:true ~wall_s:(wall ()) v)
        | None -> (
          match sp "worker.cache_key" (fun () -> W.cache_key pat) with
          | Error msg -> encode (Protocol.error_response ~id msg)
          | Ok key -> (
            match find key with
            | Some v ->
              cached ();
              put raw v;
              encode (Protocol.solve_response ~id ~cached:true ~wall_s:(wall ()) v)
            | None -> (
              match
                sp "worker.solve" (fun () ->
                    with_deltas t (fun () -> W.solve_pattern ?deadline ~budget pat))
              with
              | Error msg -> encode (Protocol.error_response ~id msg)
              | Ok (v, _) ->
                (match v with
                | Protocol.Sat _ | Protocol.Unsat ->
                  put key v;
                  put raw v
                | Protocol.Unknown _ -> ());
                encode (Protocol.solve_response ~id ~cached:false ~wall_s:(wall ()) v)))))
      | Protocol.Subset_re { left; right } | Protocol.Equiv_re { left; right } -> (
        let equiv = match[@warning "-4"] r.Protocol.payload with Protocol.Equiv_re _ -> true | _ -> false in
        match sp "worker.cache_key" (fun () -> W.contain_cache_key ~equiv left right) with
        | Error msg -> encode (Protocol.error_response ~id msg)
        | Ok key -> (
          match find key with
          | Some v ->
            cached ();
            encode (Protocol.contain_response ~id ~cached:true ~wall_s:(wall ()) v)
          | None -> (
            match
              sp "worker.contain" (fun () ->
                  with_deltas t (fun () -> W.contain_pattern ?deadline ~equiv left right))
            with
            | Error msg -> encode (Protocol.error_response ~id msg)
            | Ok (v, _) ->
              (match v with
              | Protocol.Sat _ | Protocol.Unsat -> put key v
              | Protocol.Unknown _ -> ());
              encode (Protocol.contain_response ~id ~cached:false ~wall_s:(wall ()) v))))
      | Protocol.Match_re { pattern; input } -> (
        let start = now () in
        let res = with_deltas t (fun () -> W.match_input ?deadline ~pattern ~input ()) in
        let stop = now () in
        let located =
          match res with
          | Ok (_, stats) -> List.mem_assoc "locmatch.atoms" stats
          | Error _ -> false
        in
        ignore
          (push t
             { name = (if located then "locmatch.match" else "engine.match"); req; parent = root; start; stop });
        match res with
        | Error msg -> encode (Protocol.error_response ~id msg)
        | Ok (v, stats) ->
          if not located then begin
            t.engine_bytes <- t.engine_bytes + String.length input;
            Option.iter
              (fun a -> t.accel_bytes <- Float.max t.accel_bytes a)
              (List.assoc_opt "engine.accel_bytes" stats)
          end;
          encode (Protocol.match_response ~id ~wall_s:(wall ()) v))
      | _ -> encode (Protocol.error_response ~id "perfbench: op not replayed"))
  in
  t.spans.(root) <- { (t.spans.(root)) with stop = now () };
  reply

(* -- reading the spans ---------------------------------------------------- *)

let spans_in_order t = Array.sub t.spans 0 t.nspans

(** Total duration of the spans named [name], in seconds. *)
let busy spans name =
  Array.fold_left
    (fun acc s -> if s.name = name then acc +. (s.stop -. s.start) else acc)
    0.0 spans

(** Per-request sums of the stage (child) spans, in ms. *)
let stage_sums_ms spans =
  let n = Array.fold_left (fun acc s -> max acc (s.req + 1)) 0 spans in
  let sums = Array.make n 0.0 in
  Array.iter
    (fun s -> if s.parent >= 0 then sums.(s.req) <- sums.(s.req) +. ((s.stop -. s.start) *. 1000.0))
    spans;
  sums

(** Each root's self time, in ms: its duration minus what its children
    cover. *)
let self_ms spans =
  let sums = stage_sums_ms spans in
  Array.of_list
    (List.filter_map
       (fun s -> if s.parent = -1 then Some (((s.stop -. s.start) *. 1000.0) -. sums.(s.req)) else None)
       (Array.to_list spans))

(** Write the spans as JSON, one array [name, req, parent, start, stop]
    per span (times in seconds from the first span). *)
let write_spans t ~path =
  let spans = spans_in_order t in
  let base = if Array.length spans = 0 then 0.0 else spans.(0).start in
  Out_channel.with_open_bin path (fun oc ->
      output_string oc "{\"fields\":[\"name\",\"req\",\"parent\",\"start_s\",\"stop_s\"],\"spans\":[";
      Array.iteri
        (fun i s ->
          if i > 0 then output_char oc ',';
          Printf.fprintf oc "[%S,%d,%d,%.7f,%.7f]" s.name s.req s.parent (s.start -. base)
            (s.stop -. base))
        spans;
      output_string oc "]}\n")

type traced = {
  tr : t;
  evictions : int;  (** result-cache evictions in the timed part *)
  minor_words : float;
  major_collections : int;
  heap_peak_mb : float;
}

(** Requests the traced replay covers: a fixed prefix of the timed
    stream, so that layer totals compare across commits (a faster
    program does not replay more). *)
let requests_of = function
  | "corpus-cold" -> 2000
  | "zipf-hot" -> 10_000
  | _ -> 2 * 21 * 8

(** Replay the warm-up untraced, then the first [requests] timed
    requests of [stream] with spans (stopping early, and reporting
    fewer requests, after [seconds]); writes the spans to
    [spans_path]. *)
let run ~(stream : Gen.stream) ~requests ~seconds ~spans_path : traced =
  let rp = ref (make_replay (create ())) in
  List.iteri (fun i (r : Gen.req) -> ignore (replay_one !rp ~req:i r.Gen.line)) stream.Gen.warm;
  let tr = create () in
  rp := { !rp with tr };
  let evictions = ref (-Sv.Lru.evictions !rp.cache) in
  let g0 = Gc.quick_stat () in
  let stop = now () +. seconds in
  let i = ref 0 in
  while !i < requests && now () < stop do
    (* a fresh worker and cache wherever the untraced run spawned a
       fresh server *)
    (match stream.Gen.round with
    | Some r when !i > 0 && !i mod r = 0 ->
      evictions := !evictions + Sv.Lru.evictions !rp.cache;
      rp := make_replay tr
    | _ -> ());
    ignore (replay_one !rp ~req:!i (stream.Gen.get !i).Gen.line);
    incr i
  done;
  let g1 = Gc.quick_stat () in
  if Sys.file_exists !rp.file then Sys.remove !rp.file;
  write_spans tr ~path:spans_path;
  {
    tr;
    evictions = !evictions + Sv.Lru.evictions !rp.cache;
    minor_words = g1.Gc.minor_words -. g0.Gc.minor_words;
    major_collections = g1.Gc.major_collections - g0.Gc.major_collections;
    heap_peak_mb = float_of_int (g1.Gc.top_heap_words * (Sys.word_size / 8)) /. 1_048_576.0;
  }

