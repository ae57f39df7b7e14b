(* Experiment driver: regenerates every table and figure of the paper's
   evaluation (Section 6, Figure 4) plus the ablation studies listed in
   DESIGN.md.  See EXPERIMENTS.md for the paper-vs-measured record.
   Service throughput and latency are not measured here: perfbench
   drives a real sbdserve for those (see perfbench/README.md).

   Usage:
     experiments table [-c nb|b|h|all]    Figure 4(a) rows
     experiments fig4b [-c ...]           Figure 4(b) cumulative series
     experiments fig4c                    Figure 4(c) benchmark counts
     experiments ablation-dead            dead-state elimination on/off
     experiments ablation-algebra         BDD vs range-list alphabet algebra
     experiments states                   lazy vs eager state-space sizes
     experiments dump-smt2 DIR            write the corpus as .smt2 files
     experiments engine-bench             match-engine throughput vs the
                                          per-position scan and DP oracle
     experiments analyze-bench            static-analyzer throughput and
                                          predicted-vs-measured difficulty
     experiments deriv-bench              derivation/DNF throughput on the
                                          Boolean + handwritten generators
     experiments contain-bench            containment prover throughput and
                                          reduction agreement on the pair corpus
     experiments lookaround-bench         located engine vs oracle vs labels on
                                          the anchored/lookaround corpus
     experiments all                      everything above (except dump)
*)

open Sbd_harness
module I = Sbd_benchgen.Instance
module Std = Sbd_benchgen.Standard

let fmt = Format.std_formatter

type cat = NB | B | H

let cat_instances = function
  | NB -> Std.non_boolean ()
  | B -> Std.boolean ()
  | H -> Std.handwritten ()

let cat_title = function
  | NB -> "Figure 4(a): non-Boolean benchmarks"
  | B -> "Figure 4(a): Boolean benchmarks"
  | H -> "Figure 4(a): handwritten benchmarks"

let cats_of_string = function
  | "nb" -> [ NB ]
  | "b" -> [ B ]
  | "h" -> [ H ]
  | "all" -> [ NB; B; H ]
  | s -> invalid_arg (Printf.sprintf "unknown category %S (use nb|b|h|all)" s)

let labeled ~budget cat =
  Harness.reset_sessions ();
  let instances = cat_instances cat in
  let labeled = Harness.label_all ~budget instances in
  Harness.reset_sessions ();
  labeled

let run_rows ~budget ~timeout ~solvers cat =
  let labeled = labeled ~budget cat in
  List.map
    (fun id ->
      Harness.reset_sessions ();
      Harness.run_suite ~budget ~timeout id labeled)
    solvers

let table ~budget ~timeout cats =
  List.iter
    (fun cat ->
      let rows = run_rows ~budget ~timeout ~solvers:Harness.default_solvers cat in
      Harness.pp_table_header fmt (cat_title cat);
      List.iter (Harness.pp_row fmt) rows;
      Format.fprintf fmt "@.")
    cats

let fig4b ~budget ~timeout cats =
  List.iter
    (fun cat ->
      let rows = run_rows ~budget ~timeout ~solvers:Harness.default_solvers cat in
      Format.fprintf fmt "== Figure 4(b) cumulative series (%s) ==@."
        (match cat with NB -> "non-Boolean" | B -> "Boolean" | H -> "handwritten");
      Harness.pp_cumulative_ascii fmt rows;
      Format.fprintf fmt "@.-- CSV --@.";
      Harness.pp_cumulative_csv fmt rows;
      Format.fprintf fmt "@.")
    cats

let fig4c () =
  Format.fprintf fmt "== Figure 4(c): benchmark counts ==@.";
  let count name l = Format.fprintf fmt "%-20s %5d@." name (List.length l) in
  count "Kaluza-like" (Std.kaluza ());
  count "Slog-like" (Std.slog ());
  count "Norn-like" (Std.norn ());
  count "SyGuS-qgen-like" (Std.sygus ());
  count "Total Non-Boolean" (Std.non_boolean ());
  Format.fprintf fmt "@.";
  count "RegExLib-Inter" (Std.regexlib_intersection ());
  count "RegExLib-Subset" (Std.regexlib_subset ());
  count "Norn-Boolean" (Std.norn_boolean ());
  count "Total Boolean" (Std.boolean ());
  Format.fprintf fmt "@.";
  count "Date" (Sbd_benchgen.Handwritten.date ());
  count "Password" (Sbd_benchgen.Handwritten.password ());
  count "Boolean+Loops" (Sbd_benchgen.Handwritten.loops ());
  count "Determ.-Blowup" (Sbd_benchgen.Handwritten.blowup ());
  count "Total Handwritten" (Std.handwritten ());
  Format.fprintf fmt "@."

let ablation_dead ~budget ~timeout =
  Format.fprintf fmt
    "== Ablation: dead-state elimination (handwritten, unsat-heavy) ==@.";
  let labeled = labeled ~budget H in
  let unsat_only =
    List.filter (fun ((i : I.t), _) -> i.expected = I.Unsat) labeled
  in
  Harness.pp_table_header fmt "unsat handwritten instances";
  List.iter
    (fun id ->
      Harness.reset_sessions ();
      Harness.pp_row fmt (Harness.run_suite ~budget ~timeout id unsat_only))
    [ Harness.Dz3; Harness.Dz3_no_dead ];
  Format.fprintf fmt "@."

let ablation_simplify ~budget ~timeout =
  Format.fprintf fmt "== Ablation: pre-simplification of the input regex ==@.";
  let labeled = labeled ~budget H in
  Harness.pp_table_header fmt "handwritten instances";
  List.iter
    (fun id ->
      Harness.reset_sessions ();
      Harness.pp_row fmt (Harness.run_suite ~budget ~timeout id labeled))
    [ Harness.Dz3; Harness.Dz3_simplify ];
  Format.fprintf fmt "@."

let ablation_algebra ~budget ~timeout =
  Format.fprintf fmt "== Ablation: BDD vs range-list character algebra ==@.";
  List.iter
    (fun cat ->
      let labeled = labeled ~budget cat in
      Harness.pp_table_header fmt
        (match cat with NB -> "non-Boolean" | B -> "Boolean" | H -> "handwritten");
      List.iter
        (fun id ->
          Harness.reset_sessions ();
          Harness.pp_row fmt (Harness.run_suite ~budget ~timeout id labeled))
        [ Harness.Dz3; Harness.Dz3_ranges ];
      Format.fprintf fmt "@.")
    [ B; H ]

(* Lazy vs eager state spaces on the blowup family: the succinctness story
   of Sections 1 and 7 in numbers. *)
let states () =
  Format.fprintf fmt
    "== State spaces: lazy derivative exploration vs eager automata ==@.";
  Format.fprintf fmt "%-28s %14s %14s@." "instance" "dz3-explored" "eager-states";
  let module E = Sbd_sfa.Eager.Make (Harness.R) in
  List.iter
    (fun (inst : I.t) ->
      match Harness.P.parse inst.pattern with
      | Error _ -> ()
      | Ok r ->
        let session = Harness.S.create_session () in
        ignore (Harness.S.solve ~budget:2_000_000 session r);
        let explored = Harness.S.G.num_vertices session.Harness.S.graph in
        let eager =
          match E.state_count ~budget:200_000 r with
          | Some n -> string_of_int n
          | None -> ">200000"
        in
        Format.fprintf fmt "%-28s %14d %14s@." inst.pattern explored eager)
    (Sbd_benchgen.Handwritten.blowup ());
  Format.fprintf fmt "@."

let dump_smt2 dir =
  let module T = Sbd_smtlib.To_smt.Make (Harness.R) in
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let written = ref 0 in
  List.iter
    (fun (inst : I.t) ->
      match Harness.P.parse inst.pattern with
      | Error _ -> ()
      | Ok r ->
        let path = Filename.concat dir (inst.id ^ ".smt2") in
        let oc = open_out path in
        output_string oc
          (Printf.sprintf "; suite: %s, expected: %s\n%s" inst.suite
             (I.string_of_expected inst.expected)
             (T.script r));
        close_out oc;
        incr written)
    (Std.all ());
  Format.fprintf fmt "wrote %d .smt2 files to %s@." !written dir

(* -- command line --------------------------------------------------------- *)

open Cmdliner

let budget_t =
  Arg.(value & opt int 400_000 & info [ "budget" ] ~doc:"Work budget per instance.")

let timeout_t =
  Arg.(
    value & opt float 10.0
    & info [ "timeout" ] ~doc:"Time charged to unsolved instances (seconds).")

let cat_t =
  Arg.(value & opt string "all" & info [ "c"; "category" ] ~doc:"nb|b|h|all")

let cmd name doc f = Cmd.v (Cmd.info name ~doc) f

let table_cmd =
  cmd "table" "Figure 4(a) solver comparison table"
    Term.(
      const (fun budget timeout c -> table ~budget ~timeout (cats_of_string c))
      $ budget_t $ timeout_t $ cat_t)

let fig4b_cmd =
  cmd "fig4b" "Figure 4(b) cumulative plots"
    Term.(
      const (fun budget timeout c -> fig4b ~budget ~timeout (cats_of_string c))
      $ budget_t $ timeout_t $ cat_t)

let fig4c_cmd = cmd "fig4c" "Figure 4(c) benchmark counts" Term.(const fig4c $ const ())

let ablation_simplify_cmd =
  cmd "ablation-simplify" "pre-simplification ablation"
    Term.(
      const (fun b t -> ablation_simplify ~budget:b ~timeout:t) $ budget_t $ timeout_t)

let ablation_dead_cmd =
  cmd "ablation-dead" "dead-state elimination ablation"
    Term.(const (fun b t -> ablation_dead ~budget:b ~timeout:t) $ budget_t $ timeout_t)

let ablation_algebra_cmd =
  cmd "ablation-algebra" "character algebra ablation"
    Term.(const (fun b t -> ablation_algebra ~budget:b ~timeout:t) $ budget_t $ timeout_t)

let states_cmd = cmd "states" "lazy vs eager state spaces" Term.(const states $ const ())

let dump_cmd =
  cmd "dump-smt2" "write the benchmark corpus as .smt2 files"
    Term.(
      const dump_smt2
      $ Arg.(required & pos 0 (some string) None & info [] ~docv:"DIR"))

let engine_bench no_bench out gate =
  let report =
    if no_bench then Engine_bench.run ()
    else Engine_bench.run_and_append ?path:out ()
  in
  Engine_bench.pp fmt report;
  if not report.Engine_bench.all_agree then
    failwith "engine-bench: engine and per-position scan spans disagree";
  if not no_bench then
    Format.fprintf fmt "appended engine run to %s@."
      (match out with
      | Some p -> p
      | None -> Harness.default_bench_path ());
  if gate then begin
    match Engine_bench.check report with
    | [] -> Format.fprintf fmt "engine-bench gates: ok@."
    | fails ->
      List.iter (Format.fprintf fmt "engine-bench gate FAILED: %s@.") fails;
      failwith "engine-bench: per-class throughput floor failed"
  end

let engine_bench_cmd =
  cmd "engine-bench"
    "match-engine throughput matrix vs the per-position scan and the DP oracle"
    Term.(
      const engine_bench
      $ Arg.(
          value & flag
          & info [ "no-bench" ]
              ~doc:"Do not append the report to the BENCH trajectory.")
      $ Arg.(
          value
          & opt (some string) None
          & info [ "out" ] ~docv:"FILE"
              ~doc:"Trajectory file (default BENCH_<date>.json).")
      $ Arg.(
          value & flag
          & info [ "check" ]
              ~doc:
                "Enforce the per-pattern-class steady-state MB/s floors \
                 (literal / class / boolean / counter); non-zero exit on \
                 violation."))

let analyze_bench no_bench out =
  let report =
    if no_bench then Analysis_bench.run ()
    else Analysis_bench.run_and_append ?path:out ()
  in
  Analysis_bench.pp fmt report;
  if report.Analysis_bench.unsound > 0 then
    failwith "analyze-bench: analyzer verdict contradicted by the solver";
  if not no_bench then
    Format.fprintf fmt "appended analysis run to %s@."
      (match out with
      | Some p -> p
      | None -> Harness.default_bench_path ())

let analyze_bench_cmd =
  cmd "analyze-bench"
    "static-analyzer throughput and predicted-vs-measured difficulty"
    Term.(
      const analyze_bench
      $ Arg.(
          value & flag
          & info [ "no-bench" ]
              ~doc:"Do not append the report to the BENCH trajectory.")
      $ Arg.(
          value
          & opt (some string) None
          & info [ "out" ] ~docv:"FILE"
              ~doc:"Trajectory file (default BENCH_<date>.json)."))

let deriv_bench no_bench out label gate =
  let report =
    if no_bench then Deriv_bench.run ?label ()
    else Deriv_bench.run_and_append ?label ?path:out ()
  in
  Deriv_bench.pp fmt report;
  if not no_bench then
    Format.fprintf fmt "appended deriv run to %s@."
      (match out with
      | Some p -> p
      | None -> Harness.default_bench_path ());
  if gate then begin
    match Deriv_bench.check report with
    | [] -> Format.fprintf fmt "deriv-bench gates: ok@."
    | fails ->
      List.iter (Format.fprintf fmt "deriv-bench gate FAILED: %s@.") fails;
      failwith "deriv-bench: regression gate failed"
  end

let deriv_bench_cmd =
  cmd "deriv-bench"
    "derivation/DNF throughput and memo hit rates on the Boolean and \
     handwritten generators"
    Term.(
      const deriv_bench
      $ Arg.(
          value & flag
          & info [ "no-bench" ]
              ~doc:"Do not append the report to the BENCH trajectory.")
      $ Arg.(
          value
          & opt (some string) None
          & info [ "out" ] ~docv:"FILE"
              ~doc:"Trajectory file (default BENCH_<date>.json).")
      $ Arg.(
          value
          & opt (some string) None
          & info [ "label" ] ~docv:"LABEL"
              ~doc:"Variant label recorded in the report (default hashcons).")
      $ Arg.(
          value & flag
          & info [ "check" ]
              ~doc:
                "Enforce the pinned regression floors (boolean dz3 solved%, \
                 warm deriv.dnf memo hit rate); non-zero exit on violation."))

let contain_bench no_bench out label gate =
  let report =
    if no_bench then Contain_bench.run ?label ()
    else Contain_bench.run_and_append ?label ?path:out ()
  in
  Contain_bench.pp fmt report;
  if not no_bench then
    Format.fprintf fmt "appended contain run to %s@."
      (match out with
      | Some p -> p
      | None -> Harness.default_bench_path ());
  if gate then begin
    match Contain_bench.check report with
    | [] -> Format.fprintf fmt "contain-bench gates: ok@."
    | fails ->
      List.iter (Format.fprintf fmt "contain-bench gate FAILED: %s@.") fails;
      failwith "contain-bench: regression gate failed"
  end

let contain_bench_cmd =
  cmd "contain-bench"
    "containment prover throughput, witness validity and agreement with the \
     emptiness reduction on the pair corpus"
    Term.(
      const contain_bench
      $ Arg.(
          value & flag
          & info [ "no-bench" ]
              ~doc:"Do not append the report to the BENCH trajectory.")
      $ Arg.(
          value
          & opt (some string) None
          & info [ "out" ] ~docv:"FILE"
              ~doc:"Trajectory file (default BENCH_<date>.json).")
      $ Arg.(
          value
          & opt (some string) None
          & info [ "label" ] ~docv:"LABEL"
              ~doc:"Variant label recorded in the report (default contain).")
      $ Arg.(
          value & flag
          & info [ "check" ]
              ~doc:
                "Enforce the pinned gates (decided%, pairs/s floor, zero \
                 disagreements / invalid witnesses); non-zero exit on \
                 violation."))

let lookaround_bench no_bench out label gate =
  let report =
    if no_bench then Lookaround_bench.run ?label ()
    else Lookaround_bench.run_and_append ?label ?path:out ()
  in
  Lookaround_bench.pp fmt report;
  if not no_bench then
    Format.fprintf fmt "appended lookaround run to %s@."
      (match out with
      | Some p -> p
      | None -> Harness.default_bench_path ());
  if gate then begin
    match Lookaround_bench.check report with
    | [] -> Format.fprintf fmt "lookaround-bench gates: ok@."
    | fails ->
      List.iter
        (Format.fprintf fmt "lookaround-bench gate FAILED: %s@.")
        fails;
      failwith "lookaround-bench: regression gate failed"
  end

let lookaround_bench_cmd =
  cmd "lookaround-bench"
    "located engine / all-splits oracle / hand-label agreement over the \
     anchored and lookaround corpus"
    Term.(
      const lookaround_bench
      $ Arg.(
          value & flag
          & info [ "no-bench" ]
              ~doc:"Do not append the report to the BENCH trajectory.")
      $ Arg.(
          value
          & opt (some string) None
          & info [ "out" ] ~docv:"FILE"
              ~doc:"Trajectory file (default BENCH_<date>.json).")
      $ Arg.(
          value
          & opt (some string) None
          & info [ "label" ] ~docv:"LABEL"
              ~doc:"Variant label recorded in the report (default lookaround).")
      $ Arg.(
          value & flag
          & info [ "check" ]
              ~doc:
                "Enforce the pinned gates (zero parse failures, zero \
                 engine/oracle/label/sat mismatches); non-zero exit on \
                 violation."))

let absdom_bench no_bench out label gate =
  let report =
    if no_bench then Absdom_bench.run ?label ()
    else Absdom_bench.run_and_append ?label ?path:out ()
  in
  Absdom_bench.pp fmt report;
  if not no_bench then
    Format.fprintf fmt "appended absdom run to %s@."
      (match out with
      | Some p -> p
      | None -> Harness.default_bench_path ());
  if gate then begin
    match Absdom_bench.check report with
    | [] -> Format.fprintf fmt "absdom-bench gates: ok@."
    | fails ->
      List.iter (Format.fprintf fmt "absdom-bench gate FAILED: %s@.") fails;
      failwith "absdom-bench: regression gate failed"
  end

let absdom_bench_cmd =
  cmd "absdom-bench"
    "abstract-domain pre-solver hit-rate, soundness sweep and time-saved on \
     the satisfiability and containment corpora"
    Term.(
      const absdom_bench
      $ Arg.(
          value & flag
          & info [ "no-bench" ]
              ~doc:"Do not append the report to the BENCH trajectory.")
      $ Arg.(
          value
          & opt (some string) None
          & info [ "out" ] ~docv:"FILE"
              ~doc:"Trajectory file (default BENCH_<date>.json).")
      $ Arg.(
          value
          & opt (some string) None
          & info [ "label" ] ~docv:"LABEL"
              ~doc:"Variant label recorded in the report (default absdom).")
      $ Arg.(
          value & flag
          & info [ "check" ]
              ~doc:
                "Enforce the pinned gates (corpus and pair hit-rate floors, \
                 zero unsound verdicts, zero invalid witnesses); non-zero \
                 exit on violation."))

let all_cmd =
  cmd "all" "run every table, figure and ablation"
    Term.(
      const (fun budget timeout ->
          table ~budget ~timeout [ NB; B; H ];
          fig4b ~budget ~timeout [ NB; B; H ];
          fig4c ();
          ablation_dead ~budget ~timeout;
          ablation_simplify ~budget ~timeout;
          ablation_algebra ~budget ~timeout;
          states ())
      $ budget_t $ timeout_t)

let () =
  let info = Cmd.info "experiments" ~doc:"Reproduce the paper's evaluation" in
  exit
    (Cmd.eval
       (Cmd.group info
          [ table_cmd; fig4b_cmd; fig4c_cmd; ablation_dead_cmd
          ; ablation_simplify_cmd; ablation_algebra_cmd; states_cmd; dump_cmd
          ; engine_bench_cmd; analyze_bench_cmd; deriv_bench_cmd
          ; contain_bench_cmd; lookaround_bench_cmd; absdom_bench_cmd
          ; all_cmd ]))
