(* perfbench: the repository's benchmark.

     bench.exe --workload corpus-cold|zipf-hot|match-large --seed N
               --seconds S --trace 0|1

   Spawns the real sbdserve from the checkout's build tree and drives
   the workload closed loop for S seconds, checking every reply.  With
   --trace 0 the result line carries the end-to-end metrics; with
   --trace 1 it also replays the same stream in-process with spans
   around each layer and carries the per-layer metrics.  The last line
   of standard output is the result object; the exit code is non-zero
   on any wrong reply.  See perfbench/README.md. *)

open Perfbench

let usage () =
  prerr_endline
    "usage: bench.exe --workload corpus-cold|zipf-hot|match-large --seed N --seconds S --trace 0|1";
  exit 2

let () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  if Array.to_list Sys.argv = [ Sys.argv.(0); "--calibrate" ] then begin
    Calib.serve ();
    exit 0
  end;
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref false in
  let rec parse = function
    | "--workload" :: w :: rest ->
      workload := w;
      parse rest
    | "--seed" :: n :: rest ->
      seed := int_of_string n;
      parse rest
    | "--seconds" :: s :: rest ->
      seconds := float_of_string s;
      parse rest
    | "--trace" :: t :: rest ->
      trace := t = "1";
      parse rest
    | [] -> ()
    | _ -> usage ()
  in
  (try parse (List.tl (Array.to_list Sys.argv)) with Failure _ -> usage ());
  if not (List.mem !workload Gen.workloads) then usage ();
  let workload = !workload and seed = !seed and seconds = !seconds and trace = !trace in
  let bad_probes = if workload = "match-large" then Check.probe_mismatches ~seed else [] in
  List.iter (Printf.printf "probe construction disagrees with brute force: %s\n") bad_probes;
  let stream = Gen.stream ~workload ~seed in
  let gauge = Calib.start ~exe:Sys.executable_name in
  let r = Session.run ~gauge ~workload ~stream ~seconds () in
  Calib.stop gauge;
  let e2e = Report.end_to_end r in
  Printf.printf "perfbench %s seed=%d seconds=%g trace=%d\n" workload seed seconds
    (if trace then 1 else 0);
  Report.print_metrics "end-to-end (untraced run):" e2e;
  List.iter (Printf.printf "  wrong reply: %s\n") r.Session.wrong;
  let layer =
    if trace then begin
      let spans_path = Printf.sprintf "%s/spans-%s-%d.json" Client.out_dir workload seed in
      let t = Trace.run ~stream ~requests:(Trace.requests_of workload) ~seconds ~spans_path in
      Printf.printf "spans written to %s\n" spans_path;
      let metrics, predictions = Report.per_layer ~workload r t in
      Report.print_metrics "per-layer (traced replay):" metrics;
      List.iter
        (fun (p, held) -> Printf.printf "  prediction %-50s %s\n" p (if held then "holds" else "DOES NOT HOLD"))
        predictions;
      metrics
    end
    else []
  in
  print_endline
    (Sbd_obs.Obs.Json.to_string (Sbd_obs.Obs.Json.Obj [ ("meta", Report.meta ~workload ~seed ~seconds ~trace r) ]));
  let failed = Session.failed r in
  let correct = bad_probes = [] && List.assoc Check.Wrong r.Session.failures = 0 in
  (* failed_frac is printed above and carried by attempted/failed *)
  let reported =
    if trace then layer
    else List.filter (fun x -> x.Report.name <> "failed_frac") e2e
  in
  print_endline
    (Sbd_obs.Obs.Json.to_string
       (Sbd_obs.Obs.Json.Obj
          [
            ("correct", Sbd_obs.Obs.Json.Bool correct);
            ("attempted", Sbd_obs.Obs.Json.Int r.Session.attempted);
            ("failed", Sbd_obs.Obs.Json.Int failed);
            ("metrics", Report.json_metrics reported);
          ]));
  exit (if correct then 0 else 1)
