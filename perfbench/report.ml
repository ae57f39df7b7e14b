(** From runs to metrics: the end-to-end metrics of an untraced run, the
    per-layer metrics of a traced one, run metadata, and the result
    line. *)

module J = Sbd_obs.Obs.Json

let mb = 1_048_576.0

type metric = { name : string; unit : string; value : float }

let m name unit value = { name; unit; value }

(* -- end to end ----------------------------------------------------------- *)

let bytes s = float_of_int s.Session.bytes

(** Per-segment rates of [f sample] summed over each segment. *)
let segment_rates segs f =
  List.map (fun (ss, dur) -> Array.fold_left (fun acc s -> acc +. f s) 0.0 ss /. dur) segs

(** Replies the pooled latencies must hold, so that p99 has ten samples
    beyond it. *)
let min_replies = 1000

(** The fastest quarter of the run's segments (see {!Session.segments}),
    more if they hold fewer than [min_replies] replies.  Segments have
    the same make-up, so one differs from another in duration mostly by
    how much of the machine the program got: on a shared host the other
    tenants slow the program down, by up to a half for stretches of
    seconds to a minute, and never speed it up.  The fastest quarter
    estimates the program on a quiet machine; a change to the program
    moves every segment alike, so it moves these too.  [[]] when the
    timed phase held no whole segment. *)
let quiet_segments r =
  let rate (ss, dur) = float_of_int (Array.length ss) /. dur in
  let segs =
    List.filter (fun (ss, _) -> Array.length ss > 0) (Session.segments r)
    |> List.stable_sort (fun a b -> compare (rate b) (rate a))
  in
  let quarter = (List.length segs + 3) / 4 in
  let rec take k n = function
    | [] -> []
    | ((ss, _) as seg) :: rest ->
      if k >= quarter && n >= min_replies then [] else seg :: take (k + 1) (n + Array.length ss) rest
  in
  take 0 0 segs

(** How much slower than the reference the machine ran code during the
    run: the median time of the reference kernel between segments (see
    {!Calib}) over {!Calib.reference_s}; 1 when the run timed no
    kernel.  A slow phase of the host that outlasts a whole run slows
    the kernel too, and dividing by this takes it out. *)
let slowdown r =
  match Array.to_list r.Session.cals with
  | [] -> 1.0
  | cs -> Stats.median cs /. Calib.reference_s

(** Sorted latencies (ms), request rate and byte rate as measured: over
    the quiet segments, with the rates as medians over them and the
    latencies pooled; over the whole timed phase when there are none. *)
let raw r =
  match quiet_segments r with
  | [] -> (Session.latencies_ms r, Session.rate r (fun _ -> 1.0), Session.rate r bytes)
  | segs ->
    ( Session.sorted_latencies_ms (Array.concat (List.map fst segs)),
      Stats.median (segment_rates segs (fun _ -> 1.0)),
      Stats.median (segment_rates segs bytes) )

(** What the end-to-end metrics are taken from: {!raw}, scaled to the
    reference machine speed by {!slowdown}. *)
let measured r =
  let lat, count, bytes = raw r in
  let k = slowdown r in
  (Array.map (fun x -> x /. k) lat, count *. k, bytes *. k)

let end_to_end (r : Session.result) : metric list =
  let lat, count, bytes = measured r in
  let attempted = r.Session.attempted in
  [
    m "throughput_rps" "1/s" count;
    m "latency_p50_ms" "ms" (Stats.percentile lat 50.0);
    m "latency_p99_ms" "ms" (Stats.percentile lat 99.0);
    m "input_mb_s" "MB/s" (bytes /. mb);
    m "failed_frac" "ratio" (float_of_int (Session.failed r) /. float_of_int (max 1 attempted));
    m "setup_s" "s" (Stats.median r.Session.setup);
    m "peak_rss_mb" "MB" (Stats.median r.Session.peak_rss_mb);
  ]

(** Median and quartiles of the request rates of all segments, of the
    kernel times and of the set-up samples, with the number of samples
    behind each; how many segments the metrics were taken over; and the
    slowdown with the throughput before scaling. *)
let spread (r : Session.result) : J.t =
  let q name xs =
    let q1, med, q3 = Stats.quartiles xs in
    ( name,
      J.Obj
        [
          ("samples", J.Int (List.length xs)); ("q1", J.Float q1); ("median", J.Float med);
          ("q3", J.Float q3);
        ] )
  in
  let _, raw_rps, _ = raw r in
  J.Obj
    [
      q "segment_rps" (segment_rates (Session.segments r) (fun _ -> 1.0));
      ("quiet_segments", J.Int (List.length (quiet_segments r)));
      ("unscaled_throughput_rps", J.Float raw_rps);
      q "kernel_s" (Array.to_list r.Session.cals);
      ("slowdown", J.Float (slowdown r));
      q "setup_s" r.Session.setup;
    ]

(* -- per layer ------------------------------------------------------------ *)

let ratio a b = if b > 0.0 then a /. b else 0.0

(** The per-layer metrics, and the list of predicted splits with
    whether each holds on this workload. *)
let per_layer ~workload (r : Session.result) (t : Trace.traced) : metric list * (string * bool) list =
  let tr = t.Trace.tr in
  let spans = Trace.spans_in_order tr in
  let busy = Trace.busy spans in
  let d = Trace.delta tr in
  let n = float_of_int (max 1 tr.Trace.requests) in
  let total = busy "request" in
  let solver = busy "worker.solve" +. busy "worker.contain" in
  let qw = Session.queue_wait_ms r in
  let untraced_p50 = Stats.percentile (Session.latencies_ms r) 50.0 in
  let stage = Trace.stage_sums_ms spans in
  Array.sort compare stage;
  let stat = r.Session.server_stat in
  let metrics =
    [
      m "jsonin.lines.busy_s" "s" (busy "jsonin.lines");
      m "protocol.parse.busy_s" "s" (busy "protocol.parse");
      m "protocol.parse.mb_s" "MB/s"
        (ratio (float_of_int tr.Trace.parse_bytes /. mb) (busy "protocol.parse"));
      m "protocol.encode.busy_s" "s" (busy "protocol.encode");
      m "lru.find.busy_s" "s" (busy "lru.find");
      m "lru.hit_ratio" "ratio" (float_of_int tr.Trace.answered_from_cache /. n);
      m "lru.puts" "count" (float_of_int tr.Trace.lru_puts);
      m "lru.evictions" "count" (float_of_int t.Trace.evictions);
      m "service.queue_wait_ms_p50" "ms" (Stats.percentile qw 50.0);
      m "service.queue_wait_ms_p99" "ms" (Stats.percentile qw 99.0);
      m "sched.steals" "count" (stat "service.sched.steals");
      m "sched.spills" "count" (stat "service.sched.spills");
      m "pool.rejected" "count" (stat "service.pool.rejected");
      m "worker.cache_key.busy_s" "s" (busy "worker.cache_key");
      m "worker.solve.busy_s" "s" (busy "worker.solve");
      m "worker.bookkeeping_s" "s" (busy "worker.solve" -. d "solve.s");
      m "worker.memo_clears" "count" (d "service.worker.memo_clears");
      m "absdom.presolve_hit_ratio" "ratio" (ratio (d "solve.presolve_hits") (d "solve.queries"));
      m "deriv.dnf.busy_s" "s" (d "deriv.dnf.s");
      m "deriv.dnf.calls" "count" (d "deriv.dnf.n");
      m "deriv.dnf.size_total" "count" (d "deriv.dnf.size_total");
      m "deriv.delta.memo_hit_ratio" "ratio"
        (ratio (d "deriv.delta.memo_hit") (d "deriv.delta.memo_hit" +. d "deriv.delta.memo_miss"));
      m "tregex.intern.hit_ratio" "ratio"
        (ratio (d "tregex.intern.hit") (d "tregex.intern.hit" +. d "tregex.intern.miss"));
      m "solve.busy_s" "s" (d "solve.s");
      m "solve.expansions" "count" (d "solve.expansions");
      m "solve.dead_hits" "count" (d "solve.dead_hits");
      m "solve.deadline_hits" "count" (d "solve.deadline_hits");
      m "contain.busy_s" "s" (d "contain.s");
      m "contain.expansions" "count" (d "contain.expansions");
      m "contain.memo_hits" "count" (d "contain.memo_hits");
      m "contain.share" "ratio" (ratio (busy "worker.contain") total);
      m "engine.match.busy_s" "s" (busy "engine.match");
      m "engine.scan_mb_s" "MB/s"
        (ratio (float_of_int tr.Trace.engine_bytes /. mb) (busy "engine.match"));
      m "engine.compiles" "count" (d "engine.compiles");
      m "engine.states" "count" (d "engine.states");
      m "engine.resets" "count" (d "engine.resets");
      m "engine.accel_bytes" "count" tr.Trace.accel_bytes;
      m "locmatch.busy_s" "s" (busy "locmatch.match");
      m "gc.minor_words_per_req" "words" (t.Trace.minor_words /. n);
      m "gc.major_collections" "count" (float_of_int t.Trace.major_collections);
      m "gc.heap_peak_mb" "MB" t.Trace.heap_peak_mb;
      m "unattributed_ms_p50" "ms" (untraced_p50 -. Stats.percentile stage 50.0);
      m "trace.requests" "count" n;
      m "trace.solver_share" "ratio" (ratio solver total);
    ]
  in
  let get name = (List.find (fun x -> x.name = name) metrics).value in
  let predictions =
    match workload with
    | "corpus-cold" -> [ ("lru.hit_ratio about 0 (<= 0.05)", get "lru.hit_ratio" <= 0.05) ]
    | "zipf-hot" ->
      [
        ("lru.hit_ratio high (>= 0.8)", get "lru.hit_ratio" >= 0.8);
        ("solver layers a minority of traced time (< 0.5)", get "trace.solver_share" < 0.5);
      ]
    | _ ->
      [
        ("solve.expansions = 0", get "solve.expansions" = 0.0);
        ("deriv.dnf.calls = 0", get "deriv.dnf.calls" = 0.0);
      ]
  in
  let held = List.length (List.filter snd predictions) in
  ( metrics
    @ [
        m "prediction.checked" "count" (float_of_int (List.length predictions));
        m "prediction.held" "count" (float_of_int held);
      ],
    predictions )

(* -- output --------------------------------------------------------------- *)

let json_metrics ms =
  J.Obj (List.map (fun x -> (x.name, J.Obj [ ("value", J.Float x.value); ("unit", J.Str x.unit) ])) ms)

(** The commit of the checkout, when it is a git work tree; read from
    [.git] directly so that nothing outside the checkout is consulted. *)
let commit () =
  let read p = try Some (String.trim (In_channel.with_open_bin p In_channel.input_all)) with Sys_error _ -> None in
  match read ".git/HEAD" with
  | Some head when String.length head > 5 && String.sub head 0 5 = "ref: " -> (
    match read (".git/" ^ String.sub head 5 (String.length head - 5)) with
    | Some c -> c
    | None -> "unknown")
  | Some c -> c
  | None -> "unknown"

let meta ~workload ~seed ~seconds ~trace (r : Session.result) =
  let lat, _, _ = measured r in
  let nlat = Array.length lat in
  J.Obj
    [
      ("workload", J.Str workload);
      ("seed", J.Int seed);
      ("seconds", J.Float seconds);
      ("trace", J.Bool trace);
      ("nproc", J.Int (Domain.recommended_domain_count ()));
      ("ocaml", J.Str Sys.ocaml_version);
      ("commit", J.Str (commit ()));
      ("server_flags", J.Arr (List.map (fun f -> J.Str f) r.Session.flags));
      ("connections", J.Int r.Session.conns);
      ("servers", J.Int (List.length r.Session.setup));
      ("timed_replies", J.Int (Array.length r.Session.samples));
      ("attempted", J.Int r.Session.attempted);
      ("failed", J.Int (Session.failed r));
      ( "failed_by_reason",
        J.Obj (List.map (fun (k, v) -> (Check.reason_name k, J.Int v)) r.Session.failures) );
      ( "latency_samples",
        J.Obj
          [
            ("n", J.Int nlat);
            ("beyond_p50", J.Int (Stats.beyond nlat 50.0));
            ("beyond_p99", J.Int (Stats.beyond nlat 99.0));
          ] );
      ("within_run", spread r);
    ]

let print_metrics title ms =
  Printf.printf "%s\n" title;
  List.iter (fun x -> Printf.printf "  %-28s %14.6g %s\n" x.name x.value x.unit) ms
