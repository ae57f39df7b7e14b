(* sbdsolve: a standalone solver binary backed by the
   symbolic-Boolean-derivative decision procedure.

   Two input modes:
   - SMT-LIB QF_S script (`sbdsolve file.smt2`, or "-" for stdin), in
     the style of `z3 file.smt2`: prints sat/unsat/unknown answers plus
     models on get-model;
   - a single ERE pattern (`sbdsolve 'a{2,3}&~(.*b)'`): decides
     satisfiability of the pattern and prints the result with a witness.
     Selected automatically when the argument is not an existing file;
     forced with --re.  A pattern the plain grammar rejects is read
     with the extended one: anchors are lowered and solved, a
     lookaround answers unknown.

   A third mode matches instead of solving: `sbdsolve --match PATTERN
   --input TEXT` (or --input-file FILE, or stdin) runs the byte-level
   match engine over the UTF-8 input and reports the
   full-match verdict and the leftmost-earliest match span.

   Containment modes: `sbdsolve --subset R S` decides L(R) ⊆ L(S) with
   the coinductive pair prover of lib/contain (no complement
   construction); `--equiv R S` decides language equality.  A refutation
   comes with a distinguishing word (printed with --witness or --json).

   `--lint PATTERN` prints the static analyzer's report.

   Every query runs on one service worker (Sbd_service.Worker), the
   code each sbdserve worker runs, so both front ends give the same
   answer to the same query.

   Exit codes, uniform across modes: 0 for a decided answer
   (sat/unsat/proved/refuted, match/no-match, a lint emptiness
   verdict), 2 for usage and parse errors (and a script that stops on
   an (error ...)), 3 for unknown (budget or deadline exhausted, or a
   script with an unknown check-sat) — so scripts and CI gates can tell
   timeouts apart from verdicts.

   Observability: --stats prints the counter/timer snapshot of the run
   (machine-readable names, see DESIGN.md); --json switches the whole
   output to one JSON document; --deadline bounds each query by wall
   clock (seconds), enforced inside the derivative/DNF machinery. *)

module D = Sbd_service.Default
module Protocol = Sbd_service.Protocol
module Obs = Sbd_obs.Obs
module J = Obs.Json

let read_file f = In_channel.with_open_bin f In_channel.input_all

(* -- rendering ----------------------------------------------------------- *)

(* Counters with observed activity; silent ones only add noise, and the
   service's own (the worker's query count) say nothing about one run. *)
let active_counters () =
  List.filter
    (fun (name, v) ->
      v <> 0.0 && not (String.starts_with ~prefix:"service." name))
    (Obs.snapshot ())

(* The CLI's JSON names a reply's "status" "result". *)
let as_result =
  List.map (fun (k, v) -> ((if k = "status" then "result" else k), v))

(* Print one answer and return its exit code: 0 when [decided], else 3.
   Under --json it is one document: [fields], wall_s, then with --stats
   [rows], the active counters and the wall time as [wall_key]; in text
   it is [text] on stdout and the same listing on stderr. *)
let answer ~json ~stats ?(wall_key = "query.wall_time_s") ~wall ~decided
    ~fields ~text rows =
  let rows = rows @ active_counters () @ [ (wall_key, wall) ] in
  if json then
    print_endline
      (J.to_string
         (J.Obj
            (fields
            @ [ ("wall_s", J.Float wall) ]
            @ Protocol.stats_fields (if stats then Some rows else None))))
  else begin
    print_string text;
    if stats then
      List.iter (fun (name, v) -> Printf.eprintf "%-32s %.6g\n" name v) rows
  end;
  if decided then 0 else 3

let print_error ~json msg =
  if json then
    print_endline
      (J.to_string (J.Obj [ ("result", J.Str "error"); ("error", J.Str msg) ]))
  else Printf.printf "(error \"%s\")\n" msg;
  2

(* Time one worker op: [Error] is printed as a parse error (exit 2),
   [Ok x] goes to [k ~wall x]. *)
let timed ~json f k =
  let t0 = Obs.now () in
  match f () with
  | Error msg -> print_error ~json msg
  | Ok x -> k ~wall:(Obs.now () -. t0) x

let is_decided = function Protocol.Unknown _ -> false | Sat _ | Unsat -> true

let unknown_text why = Printf.sprintf "unknown (%s)\n" why

(* -- the worker modes ---------------------------------------------------- *)

let run_pattern ~budget ~deadline ~stats ~json pattern =
  let (module W) = Sbd_service.Worker.create () in
  timed ~json
    (fun () -> W.solve_pattern ?deadline ~budget pattern)
    (fun ~wall (v, rows) ->
      answer ~json ~stats ~wall ~decided:(is_decided v)
        ~fields:
          (as_result (Protocol.verdict_fields v) @ [ ("pattern", J.Str pattern) ])
        ~text:
          (match v with
          | Protocol.Sat { witness; _ } ->
            Printf.sprintf "sat \"%s\"\n" witness
          | Unsat -> "unsat\n"
          | Unknown why -> unknown_text why)
        rows)

let run_match ~deadline ~stats ~json ~input pattern =
  let (module W) = Sbd_service.Worker.create () in
  timed ~json
    (fun () -> W.match_input ?deadline ~pattern ~input ())
    (fun ~wall (v, rows) ->
      answer ~json ~stats ~wall
        ~decided:
          (match v with Protocol.Matched _ -> true | Match_unknown _ -> false)
        ~fields:
          (as_result (Protocol.match_fields v)
          @ [
              ("pattern", J.Str pattern);
              ("input_bytes", J.Int (String.length input));
            ])
        ~text:
          (match v with
          | Protocol.Matched { full; span = Some (i, j); _ } ->
            Printf.sprintf "match [%d,%d) full=%b\n" i j full
          | Matched { full; found_end = Some j; _ } ->
            Printf.sprintf "match end=%d full=%b\n" j full
          | Matched { full; _ } -> Printf.sprintf "no-match full=%b\n" full
          | Match_unknown why -> unknown_text why)
        (* the verdict already carries the located match end *)
        (List.remove_assoc "locmatch.found_end" rows))

(* The contain --budget counts pair expansions, a much coarser unit than
   der-rule applications; rescale the solver default accordingly. *)
let contain_budget budget =
  if budget = 1_000_000 then D.C.default_budget else max 16 budget

let run_contain ~budget ~deadline ~stats ~json ~witness ~equiv left right =
  let (module W) = Sbd_service.Worker.create () in
  timed ~json
    (fun () ->
      W.contain_pattern ?deadline ~budget:(contain_budget budget) ~equiv left
        right)
    (fun ~wall (v, rows) ->
      answer ~json ~stats ~wall ~decided:(is_decided v)
        ~fields:
          (as_result (Protocol.contain_fields v)
          @ [
              ("relation", J.Str (if equiv then "equiv" else "subset"));
              ("left", J.Str left);
              ("right", J.Str right);
            ])
        ~text:
          (match v with
          | Protocol.Unsat -> "proved\n"
          | Sat { witness = w; _ } when witness ->
            Printf.sprintf "refuted witness=\"%s\"\n" w
          | Sat _ -> "refuted\n"
          | Unknown why -> unknown_text why)
        rows)

(* A script that stops on an (error ...) exits 2, one with an unknown
   check-sat 3. *)
let run_script ~budget ~deadline ~stats ~json file =
  let source = if file = "-" then In_channel.input_all stdin else read_file file in
  let (module W) = Sbd_service.Worker.create () in
  timed ~json
    (fun () -> W.run_smt2 ?deadline ~budget source)
    (fun ~wall (answers, output, stopped) ->
      let code =
        answer ~json ~stats ~wall_key:"script.wall_time_s" ~wall
          ~decided:(not (List.exists (fun (s, _) -> s = "unknown") answers))
          ~fields:
            [
              ( "answers",
                J.Arr
                  (List.map
                     (function
                       | status, None -> J.Str status
                       | status, Some why ->
                         J.Obj [ ("result", J.Str status); ("reason", J.Str why) ])
                     answers) );
              ("output", J.Str output);
            ]
          ~text:output []
      in
      if stopped then 2 else code)

(* -- lint mode ----------------------------------------------------------- *)

(* The solver --budget (der-rule applications, default 1M) is
   reinterpreted at analyzer scale: analysis is a pre-pass, so Layer 2
   gets 1% of a solve budget (default 10k state expansions). *)
let lint_budget budget = max 64 (min (budget / 100) 100_000)

(* Lint reads the extended grammar: the worker runs plain patterns
   through the full two-layer analyzer and located ones through the
   structural located analyzer (degenerate lookarounds, dead anchors,
   fragment).

   Exit codes follow the uniform 0/2/3 contract of the other modes:
   0 when the analyzer reached a decided semantic emptiness verdict
   (Proved/Refuted, including SBD304's whole-pattern emptiness theorem
   on located patterns), 2 on parse errors, 3 when the verdict stayed
   unknown (structural findings alone never count as decided). *)
let run_lint ~budget ~deadline ~json pattern =
  let (module W) = Sbd_service.Worker.create () in
  match W.analyze_pattern ?deadline ~budget:(lint_budget budget) pattern with
  | Error msg -> print_error ~json msg
  | Ok a ->
    if json then print_endline (J.to_string a.Sbd_service.Worker.report)
    else Printf.printf "pattern: %s\n%s" pattern a.text;
    if a.decided then 0 else 3

open Cmdliner

let usage msg =
  prerr_endline ("sbdsolve: " ^ msg);
  2

let run input input2 budget deadline force_re stats json do_match match_text
    match_file do_lint do_subset do_equiv witness =
  match (input, input2) with
  | _ when do_subset && do_equiv ->
    usage "--subset and --equiv are mutually exclusive"
  | Some l, Some r when do_subset || do_equiv ->
    run_contain ~budget ~deadline ~stats ~json ~witness ~equiv:do_equiv l r
  | _ when do_subset || do_equiv ->
    usage
      (Printf.sprintf "--%s needs two PATTERN arguments"
         (if do_subset then "subset" else "equiv"))
  | None, _ when do_lint -> usage "--lint needs a PATTERN"
  | None, _ -> usage "required argument FILE.smt2|PATTERN is missing"
  | Some pattern, _ when do_lint -> run_lint ~budget ~deadline ~json pattern
  | Some pattern, _ when do_match ->
    let input =
      match (match_text, match_file) with
      | Some s, _ -> s
      | None, Some f -> read_file f
      | None, None -> In_channel.input_all stdin
    in
    run_match ~deadline ~stats ~json ~input pattern
  | Some input, _ ->
    if force_re || (input <> "-" && not (Sys.file_exists input)) then
      run_pattern ~budget ~deadline ~stats ~json input
    else run_script ~budget ~deadline ~stats ~json input

let () =
  let input_t =
    Arg.(
      value
      & pos 0 (some string) None
      & info [] ~docv:"FILE.smt2|PATTERN"
          ~doc:
            "SMT-LIB script ($(b,-) for stdin), or an ERE pattern when the \
             argument is not an existing file (see $(b,--re)).")
  in
  let input2_t =
    Arg.(
      value
      & pos 1 (some string) None
      & info [] ~docv:"PATTERN2"
          ~doc:
            "Second ERE pattern, the right-hand side of $(b,--subset) / \
             $(b,--equiv).")
  in
  let budget_t =
    Arg.(
      value & opt int 1_000_000
      & info [ "budget" ] ~doc:"Work budget (der-rule applications).")
  in
  let deadline_t =
    Arg.(
      value
      & opt (some float) None
      & info [ "deadline" ] ~docv:"SECONDS"
          ~doc:
            "Wall-clock deadline per query, enforced inside the \
             derivative/DNF machinery; expiry answers unknown.")
  in
  let re_t =
    Arg.(
      value & flag
      & info [ "re" ] ~doc:"Force the argument to be read as an ERE pattern.")
  in
  let stats_t =
    Arg.(
      value & flag
      & info [ "stats" ]
          ~doc:"Report solver counters and timers (JSON under $(b,--json)).")
  in
  let json_t =
    Arg.(
      value & flag
      & info [ "json" ] ~doc:"Machine-readable JSON output on stdout.")
  in
  let match_t =
    Arg.(
      value & flag
      & info [ "match" ]
          ~doc:
            "Match instead of solve: run the byte-level engine over the \
             input (see $(b,--input)/$(b,--input-file); stdin otherwise) \
             and report the full-match verdict and leftmost-earliest span \
             (byte offsets).  The input is decoded as UTF-8, lossily.")
  in
  let match_input_t =
    Arg.(
      value
      & opt (some string) None
      & info [ "input" ] ~docv:"TEXT" ~doc:"Input text for $(b,--match).")
  in
  let match_file_t =
    Arg.(
      value
      & opt (some string) None
      & info [ "input-file" ] ~docv:"FILE"
          ~doc:"Read the $(b,--match) input from $(docv).")
  in
  let lint_t =
    Arg.(
      value & flag
      & info [ "lint" ]
          ~doc:
            "Analyze instead of solve: structural metrics, fragment \
             classification, lint findings (stable SBD* rule IDs with \
             error/warning/info severities), budgeted sound \
             emptiness/universality verdicts, and engine/solver routing \
             hints.  Findings never affect the exit code: it is 0 when \
             emptiness is proved or refuted, 3 when it stays undecided \
             within the budget, 2 on a parse error.")
  in
  let subset_t =
    Arg.(
      value & flag
      & info [ "subset" ]
          ~doc:
            "Decide language containment L(PATTERN) ⊆ L(PATTERN2) with the \
             coinductive pair prover (no complement construction).  Prints \
             proved/refuted/unknown; see $(b,--witness).")
  in
  let equiv_t =
    Arg.(
      value & flag
      & info [ "equiv" ]
          ~doc:
            "Decide language equality L(PATTERN) = L(PATTERN2); the answer \
             is independent of argument order.")
  in
  let witness_t =
    Arg.(
      value & flag
      & info [ "witness" ]
          ~doc:
            "With $(b,--subset)/$(b,--equiv): on refutation, print the \
             distinguishing word (always present under $(b,--json)).")
  in
  let cmd =
    Cmd.v
      (Cmd.info "sbdsolve"
         ~doc:"Solve, match and lint regex (ERE / SMT-LIB QF_S) constraints")
      Term.(
        const run $ input_t $ input2_t $ budget_t $ deadline_t $ re_t
        $ stats_t $ json_t $ match_t $ match_input_t $ match_file_t $ lint_t
        $ subset_t $ equiv_t $ witness_t)
  in
  exit (Cmd.eval' cmd)
