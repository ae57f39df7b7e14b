(* Experiment driver: regenerates every table and figure of the paper's
   evaluation (Section 6, Figure 4) plus the ablation studies listed in
   DESIGN.md, and runs the bench sections whose runs make up the
   BENCH_<date>.json trajectory.  See EXPERIMENTS.md for the
   paper-vs-measured record.  Service throughput and latency are not
   measured here: perfbench drives a real sbdserve for those (see
   perfbench/README.md).

   Usage:
     experiments table [-c nb|b|h|all]    Figure 4(a) rows
     experiments fig4b [-c ...]           Figure 4(b) cumulative series
     experiments fig4c                    Figure 4(c) benchmark counts
     experiments ablation-dnf             A1: clean vs raw DNF sizes
     experiments ablation-dead            A2: dead-state elimination on/off
     experiments ablation-algebra         A3: BDD vs range-list alphabet algebra
     experiments ablation-simplify        A4: pre-simplification on/off
     experiments states                   lazy vs eager state-space sizes
     experiments all                      all of the above; appends the
                                          Figure 4(a) rows to the trajectory
                                          as a "fig4" run
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
     experiments absdom-bench             abstract pre-solver hit rates and
                                          soundness on both corpora
*)

open Sbd_harness
module I = Sbd_benchgen.Instance
module Std = Sbd_benchgen.Standard
module Hw = Sbd_benchgen.Handwritten
module J = Harness.Obs.Json

let fmt = Format.std_formatter

let die msg =
  Format.kasprintf
    (fun s ->
      prerr_endline ("experiments: " ^ s);
      exit 1)
    msg

type cat = NB | B | H

(* Also the [suite] value of the Figure 4(a) rows in the trajectory. *)
let cat_name = function
  | NB -> "non-boolean"
  | B -> "boolean"
  | H -> "handwritten"

let cat_instances = function
  | NB -> Std.non_boolean ()
  | B -> Std.boolean ()
  | H -> Std.handwritten ()

(* The eager automaton's state cap in the state-space table. *)
let eager_state_budget = 100_000

(* One run's budgets plus everything computed under them: a category is
   labeled once, and its Figure 4(a) rows are computed once and shared by
   the table, the cumulative series and the trajectory. *)
type run = {
  budget : int;
  timeout : float;
  labeled : cat -> (I.t * I.expected) list;
  fig4_rows : cat -> Harness.row list;
}

let memo f =
  let tbl = Hashtbl.create 3 in
  fun k ->
    match Hashtbl.find_opt tbl k with
    | Some v -> v
    | None ->
      let v = f k in
      Hashtbl.add tbl k v;
      v

let rows ~budget ~timeout solvers labeled =
  List.map
    (fun id ->
      Harness.reset_sessions ();
      Harness.run_suite ~budget ~timeout id labeled)
    solvers

let make_run ~budget ~timeout =
  let labeled =
    memo (fun cat ->
        Harness.reset_sessions ();
        Harness.label_all ~budget (cat_instances cat))
  in
  let fig4_rows =
    memo (fun cat -> rows ~budget ~timeout Harness.default_solvers (labeled cat))
  in
  { budget; timeout; labeled; fig4_rows }

let pp_rows title rows =
  Harness.pp_table_header fmt title;
  List.iter (Harness.pp_row fmt) rows;
  Format.fprintf fmt "@."

let fig4a run cats =
  List.iter
    (fun cat ->
      pp_rows
        (Printf.sprintf "Figure 4(a): %s benchmarks" (cat_name cat))
        (run.fig4_rows cat))
    cats

let fig4b run cats =
  List.iter
    (fun cat ->
      let rows = run.fig4_rows cat in
      Format.fprintf fmt "== Figure 4(b) cumulative series (%s) ==@." (cat_name cat);
      Harness.pp_cumulative_ascii fmt rows;
      Format.fprintf fmt "@.-- CSV --@.";
      Harness.pp_cumulative_csv fmt rows;
      Format.fprintf fmt "@.")
    cats

let fig4c () =
  Format.fprintf fmt "== Figure 4(c): benchmark counts ==@.";
  let count name l = Format.fprintf fmt "  %-20s %5d@." name (List.length l) in
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
  count "Date" (Hw.date ());
  count "Password" (Hw.password ());
  count "Boolean+Loops" (Hw.loops ());
  count "Determ.-Blowup" (Hw.blowup ());
  count "Total Handwritten" (Std.handwritten ());
  Format.fprintf fmt "@."

(* Average transition-regex size of each handwritten suite's top-level
   derivative, with and without the sat-pruned branches. *)
let ablation_dnf () =
  Format.fprintf fmt "== Ablation A1: clean DNF vs raw DNF (transition regex sizes) ==@.";
  Format.fprintf fmt "  %-34s %10s %10s@." "suite" "clean" "raw";
  let module Tr = Harness.D.Tr in
  List.iter
    (fun (suite, gen) ->
      let sizes =
        List.filter_map
          (fun (inst : I.t) ->
            match Harness.P.parse inst.pattern with
            | Error _ -> None
            | Ok r ->
              let d = Harness.D.delta r in
              Some (Tr.size (Tr.dnf d), Tr.size (Tr.dnf ~clean:false d)))
          (gen ())
      in
      let n = List.length sizes in
      let avg f =
        float_of_int (List.fold_left (fun acc s -> acc + f s) 0 sizes) /. float_of_int n
      in
      if n > 0 then Format.fprintf fmt "  %-34s %10.1f %10.1f@." suite (avg fst) (avg snd))
    [ ("date", Hw.date); ("password", Hw.password); ("loops", Hw.loops)
    ; ("blowup", Hw.blowup) ];
  Format.fprintf fmt "@."

let ablation_dead run =
  Format.fprintf fmt "== Ablation A2: dead-state elimination (unsat handwritten) ==@.";
  let unsat_only =
    List.filter (fun ((i : I.t), _) -> i.expected = I.Unsat) (run.labeled H)
  in
  pp_rows "unsat handwritten instances (wall clock)"
    (rows ~budget:run.budget ~timeout:run.timeout
       [ Harness.Dz3; Harness.Dz3_no_dead ] unsat_only);
  (* work measured in der-rule expansions; the second pass re-queries the
     same constraints against the persistent graph *)
  Format.fprintf fmt "  %-14s %14s %14s %12s@." "variant" "1st-pass-exp"
    "requery-exp" "bot-hits";
  List.iter
    (fun (name, dead) ->
      let first, second, hits =
        Harness.dz3_work ~budget:run.budget ~dead_state_elim:dead unsat_only
      in
      Format.fprintf fmt "  %-14s %14d %14d %12d@." name first second hits)
    [ ("dz3", true); ("dz3-nodead", false) ];
  Format.fprintf fmt "@."

let ablation_algebra run =
  Format.fprintf fmt "== Ablation A3: BDD vs range-list character algebra ==@.";
  List.iter
    (fun cat ->
      pp_rows
        (cat_name cat ^ " instances")
        (rows ~budget:run.budget ~timeout:run.timeout
           [ Harness.Dz3; Harness.Dz3_ranges ] (run.labeled cat)))
    [ B; H ]

let ablation_simplify run =
  Format.fprintf fmt "== Ablation A4: pre-simplification of the input regex ==@.";
  pp_rows "handwritten instances"
    (rows ~budget:run.budget ~timeout:run.timeout
       [ Harness.Dz3; Harness.Dz3_simplify ] (run.labeled H))

(* Lazy vs eager state spaces on the blowup family: the succinctness story
   of Sections 1 and 7 in numbers. *)
let states () =
  Format.fprintf fmt
    "== Theorem 7.3 evidence: lazy derivative exploration vs eager automata ==@.";
  Format.fprintf fmt "  %-28s %14s %14s@." "instance" "dz3-explored" "eager-states";
  List.iter
    (fun (inst : I.t) ->
      match Harness.P.parse inst.pattern with
      | Error _ -> ()
      | Ok r ->
        let session = Harness.S.create_session () in
        ignore (Harness.S.solve ~budget:2_000_000 session r);
        let explored = Harness.S.G.num_vertices session.Harness.S.graph in
        let eager =
          match Harness.Eager.state_count ~budget:eager_state_budget r with
          | Some n -> string_of_int n
          | None -> Printf.sprintf ">%d" eager_state_budget
        in
        Format.fprintf fmt "  %-28s %14d %14s@." inst.pattern explored eager)
    (Hw.blowup ());
  Format.fprintf fmt "@."

(* Every table, figure and ablation; the Figure 4(a) rows are appended to
   the trajectory file as a "fig4" run. *)
let all run =
  let cats = [ NB; B; H ] in
  fig4c ();
  fig4a run cats;
  fig4b run cats;
  let path = Harness.default_bench_path () in
  let json =
    J.Obj
      [
        ("budget", J.Int run.budget);
        ("timeout_s", J.Float run.timeout);
        ( "rows",
          J.Arr
            (List.concat_map
               (fun cat ->
                 List.map (Harness.row_json ~suite:(cat_name cat)) (run.fig4_rows cat))
               cats) );
      ]
  in
  (match Harness.append_bench ~section:"fig4" ~path json with
  | Ok () -> Format.fprintf fmt "appended fig4 run to %s@.@." path
  | Error e -> die "%s" e);
  ablation_dnf ();
  ablation_dead run;
  ablation_algebra run;
  ablation_simplify run;
  states ()

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

(* A bench section's run: appended to the trajectory unless [no_bench];
   a fatal failure fails it always, a gate only under [--check]. *)
let bench (s : Harness.section) no_bench out check =
  let r = s.run () in
  r.pp fmt;
  if not no_bench then begin
    let path = Option.value out ~default:(Harness.default_bench_path ()) in
    match Harness.append_bench ~section:s.key ~path r.json with
    | Ok () -> Format.fprintf fmt "appended %s run to %s@." s.key path
    | Error e -> die "%s" e
  end;
  if r.fatal <> [] then die "%s: %s" s.name (String.concat "; " r.fatal);
  if check then
    match r.failures with
    | [] -> Format.fprintf fmt "%s gates: ok@." s.name
    | fails ->
      List.iter (Format.fprintf fmt "%s gate FAILED: %s@." s.name) fails;
      die "%s: regression gate failed" s.name

(* -- command line --------------------------------------------------------- *)

open Cmdliner

let budget_t =
  Arg.(value & opt int 400_000 & info [ "budget" ] ~doc:"Work budget per instance.")

let timeout_t =
  Arg.(
    value & opt float 10.0
    & info [ "timeout" ] ~doc:"Time charged to unsolved instances (seconds).")

let run_t = Term.(const (fun budget timeout -> make_run ~budget ~timeout) $ budget_t $ timeout_t)

let cats_t =
  let cats = [ ("nb", [ NB ]); ("b", [ B ]); ("h", [ H ]); ("all", [ NB; B; H ]) ] in
  Arg.(value & opt (enum cats) [ NB; B; H ] & info [ "c"; "category" ] ~doc:"nb|b|h|all")

let cmd name doc term = Cmd.v (Cmd.info name ~doc) term

let bench_cmd (s : Harness.section) =
  let check_t =
    match s.gates with
    | None -> Term.const false
    | Some gates ->
      Arg.(
        value & flag
        & info [ "check" ] ~doc:("Enforce " ^ gates ^ "; non-zero exit on violation."))
  in
  cmd s.name s.doc
    Term.(
      const (bench s)
      $ Arg.(
          value & flag
          & info [ "no-bench" ] ~doc:"Do not append the report to the BENCH trajectory.")
      $ Arg.(
          value
          & opt (some string) None
          & info [ "out" ] ~docv:"FILE" ~doc:"Trajectory file (default BENCH_<date>.json).")
      $ check_t)

let () =
  let info = Cmd.info "experiments" ~doc:"Reproduce the paper's evaluation" in
  exit
    (Cmd.eval
       (Cmd.group info
          ([ cmd "table" "Figure 4(a) solver comparison table"
               Term.(const fig4a $ run_t $ cats_t)
           ; cmd "fig4b" "Figure 4(b) cumulative plots" Term.(const fig4b $ run_t $ cats_t)
           ; cmd "fig4c" "Figure 4(c) benchmark counts" Term.(const fig4c $ const ())
           ; cmd "ablation-dnf" "clean vs raw DNF ablation (sizes only)"
               Term.(const ablation_dnf $ const ())
           ; cmd "ablation-dead" "dead-state elimination ablation"
               Term.(const ablation_dead $ run_t)
           ; cmd "ablation-algebra" "character algebra ablation"
               Term.(const ablation_algebra $ run_t)
           ; cmd "ablation-simplify" "pre-simplification ablation"
               Term.(const ablation_simplify $ run_t)
           ; cmd "states" "lazy vs eager state spaces" Term.(const states $ const ())
           ; cmd "all" "run every table, figure and ablation" Term.(const all $ run_t)
           ; cmd "dump-smt2" "write the benchmark corpus as .smt2 files"
               Term.(
                 const dump_smt2
                 $ Arg.(required & pos 0 (some string) None & info [] ~docv:"DIR"))
           ]
          @ List.map bench_cmd
              [ Engine_bench.section; Analysis_bench.section; Deriv_bench.section
              ; Contain_bench.section; Lookaround_bench.section; Absdom_bench.section
              ])))
