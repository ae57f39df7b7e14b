(* The benchmark's own tests: generator determinism, the order
   statistics, the reference constructions, a smoke run of every
   workload against a real sbdserve, and the trace accounting.

     python3 perfbench/run.py --test *)

open Perfbench

let failures = ref 0

let check name ok =
  Printf.printf "%s %s\n%!" (if ok then "ok  " else "FAIL") name;
  if not ok then incr failures

let lines ~workload ~seed =
  let s = Gen.stream ~workload ~seed in
  List.map (fun (r : Gen.req) -> r.Gen.line) s.Gen.warm
  @ List.init 40 (fun i -> (s.Gen.get i).Gen.line)

let close a b = Float.abs (a -. b) <= 1e-9 *. Float.max 1.0 (Float.abs b)

let () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  List.iter
    (fun workload ->
      let a = lines ~workload ~seed:7 in
      check (workload ^ ": same seed, same requests") (a = lines ~workload ~seed:7);
      check (workload ^ ": another seed, other requests") (a <> lines ~workload ~seed:8))
    Gen.workloads;
  let xs = Array.init 10 (fun i -> float_of_int (i + 1)) in
  check "percentile p50 of 1..10" (Stats.percentile xs 50.0 = 5.0);
  check "percentile p99 of 1..10" (Stats.percentile xs 99.0 = 10.0);
  check "percentile p90 of 1..10" (Stats.percentile xs 90.0 = 9.0);
  check "percentile of nothing is nan" (Float.is_nan (Stats.percentile [||] 50.0));
  check "ten samples beyond p99 of 1000" (Stats.beyond 1000 99.0 = 10);
  check "quartiles of 1..10 as Python's" (Stats.quartiles (Array.to_list xs) = (2.75, 5.5, 8.25));
  check "quartiles of 1..5 as Python's" (Stats.quartiles [ 1.; 2.; 3.; 4.; 5. ] = (1.5, 3.0, 4.5));
  (* blocks of [b] replies, block k taking [dur k] seconds *)
  let blocked ~b ~nblocks dur =
    let t = ref 0.0 in
    let samples =
      Array.init (b * nblocks) (fun j ->
          t := !t +. (dur (j / b) /. float_of_int b);
          { Session.latency = 0.001; wall = nan; bytes = 1; done_at = !t; ok = true })
    in
    {
      Session.flags = []; conns = 1; setup = [ 0.01 ]; samples; t0 = 0.0; seconds = !t;
      attempted = b * nblocks; failures = []; wrong = []; server_stat = (fun _ -> 0.0);
      peak_rss_mb = [ 1.0 ]; block = b; cals = [||];
    }
  in
  let dur k = 1.0 +. float_of_int ((k * 7) mod 40) in
  let quiet r n =
    let got = List.map snd (Report.quiet_segments r) in
    List.length got = n
    && List.for_all2 (fun d k -> close d (1.0 +. float_of_int k)) got (List.init n Fun.id)
  in
  check "quiet segments: the fastest quarter of 40 whole blocks" (quiet (blocked ~b:100 ~nblocks:40 dur) 10);
  check "quiet segments: more than a quarter to reach 1000 replies" (quiet (blocked ~b:50 ~nblocks:40 dur) 20);
  check "a kernel twice as slow as the reference doubles rates and halves latencies"
    (let r = blocked ~b:100 ~nblocks:40 dur in
     let lat, rps, mbs = Report.raw r in
     let slow = { r with Session.cals = Array.make 41 (2.0 *. Calib.reference_s) } in
     let lat', rps', mbs' = Report.measured slow in
     close rps' (2.0 *. rps) && close mbs' (2.0 *. mbs)
     && Array.for_all2 (fun a b -> close a (b /. 2.0)) lat' lat);
  let sizes_at ~seed =
    let s = Gen.stream ~workload:"match-large" ~seed in
    let b = s.Gen.block in
    List.init (2 * b) (fun i -> (s.Gen.get i).Gen.input_bytes)
  in
  check "match-large: blocks of the same size mix"
    (let sizes = sizes_at ~seed:5 in
     let b = List.length sizes / 2 in
     let stratum n = int_of_float (8.0 *. log (float_of_int n /. 4096.0) /. log 256.0) in
     let strata l = List.sort compare (List.map stratum l) in
     strata (List.filteri (fun i _ -> i < b) sizes) = strata (List.filteri (fun i _ -> i >= b) sizes));
  check "witness decoding"
    (Check.decode_witness "a\\\"\\\\\\u{00E9}z" = Some [ 97; 34; 92; 0xE9; 122 ]);
  List.iter
    (fun seed ->
      check
        (Printf.sprintf "match constructions agree with brute force (seed %d)" seed)
        (Check.probe_mismatches ~seed = []))
    [ 1; 2 ];
  List.iter
    (fun workload ->
      let stream = Gen.stream ~workload ~seed:3 in
      let r = Session.run ~workload ~stream ~seconds:0.5 () in
      let n = Array.length r.Session.samples in
      check
        (Printf.sprintf "%s smoke: %d replies, none failed" workload n)
        (n > 0 && Session.failed r = 0);
      let t =
        Trace.run ~stream ~requests:(min n 200) ~seconds:2.0
          ~spans_path:(Printf.sprintf "%s/spans-test-%s.json" Client.out_dir workload)
      in
      let metrics, _ = Report.per_layer ~workload r t in
      let get name = (List.find (fun m -> m.Report.name = name) metrics).Report.value in
      let stage = Trace.stage_sums_ms (Trace.spans_in_order t.Trace.tr) in
      Array.sort compare stage;
      let untraced = Stats.percentile (Session.latencies_ms r) 50.0 in
      check
        (workload ^ ": traced stage sum p50 + unattributed_ms_p50 = untraced p50")
        (close (Stats.percentile stage 50.0 +. get "unattributed_ms_p50") untraced);
      let self = Trace.self_ms (Trace.spans_in_order t.Trace.tr) in
      check (workload ^ ": every root span covers its stages")
        (Array.for_all (fun s -> s >= -1e-6) self))
    Gen.workloads;
  if !failures > 0 then begin
    Printf.printf "%d test(s) failed\n" !failures;
    exit 1
  end
  else print_endline "all perfbench tests passed"
