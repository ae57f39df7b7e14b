(* Benchmark executable: regenerates every table and figure of the
   paper's evaluation (Section 6, Figure 4) and runs Bechamel
   micro-benchmarks, one Test.make per experiment id (see DESIGN.md's
   per-experiment index).

   Layout of a run:
     1. Figure 4(c)  - benchmark counts
     2. Figure 4(a)  - solver comparison tables (NB / B / H)
     3. Figure 4(b)  - cumulative solved-vs-time series
     4. Ablations    - dead-state elimination, character algebra,
                       lazy-vs-eager state spaces (Thm 7.3 evidence)
     5. Bechamel     - micro-benchmarks of the core operations backing
                       each experiment

   The work budget per instance is deliberately smaller than
   bin/experiments' default; the baselines still burn most of it on the
   Boolean suites, so a full run takes on the order of twenty minutes,
   almost all of it in the comparison baselines.  bin/experiments
   reproduces the same tables at larger budgets. *)

open Sbd_harness
module I = Sbd_benchgen.Instance
module Std = Sbd_benchgen.Standard
module Obs = Harness.Obs

let fmt = Format.std_formatter

(* Minimal flag parsing: [--budget N] scales the per-instance work
   budget (smaller = quicker smoke runs), [--skip-bechamel] drops the
   micro-benchmark pass, [--out FILE] overrides the trajectory file
   path. *)
let budget = ref 150_000
let timeout = 10.0
let skip_bechamel = ref false
let out_path = ref None

let () =
  let rec parse = function
    | [] -> ()
    | "--budget" :: n :: rest ->
      budget := int_of_string n;
      parse rest
    | "--skip-bechamel" :: rest ->
      skip_bechamel := true;
      parse rest
    | "--out" :: path :: rest ->
      out_path := Some path;
      parse rest
    | arg :: _ ->
      Printf.eprintf
        "usage: bench [--budget N] [--skip-bechamel] [--out FILE]\n\
         unknown argument: %s\n"
        arg;
      exit 2
  in
  parse (List.tl (Array.to_list Sys.argv))

let budget = !budget

(* -- table / figure regeneration ---------------------------------------- *)

let categories =
  [ ("non-boolean", Std.non_boolean)
  ; ("boolean", Std.boolean)
  ; ("handwritten", Std.handwritten) ]

let labeled_suites =
  lazy
    (List.map
       (fun (name, gen) ->
         Harness.reset_sessions ();
         let labeled = Harness.label_all ~budget (gen ()) in
         (name, labeled))
       categories)

(* Solver-comparison rows are computed once per category and shared by
   the Figure 4(a) table and the Figure 4(b) series. *)
let rows_per_category =
  lazy
    (List.map
       (fun (name, labeled) ->
         let rows =
           List.map
             (fun id ->
               Harness.reset_sessions ();
               Harness.run_suite ~budget ~timeout ~suite:name id labeled)
             Harness.default_solvers
         in
         (name, rows))
       (Lazy.force labeled_suites))

(* The machine-readable perf trajectory: one BENCH_<date>.json per run,
   so successive PRs leave a comparable series of solved counts and
   times (see DESIGN.md for the schema). *)
let bench_date = lazy (Harness.today ())

let trajectory_path () =
  match !out_path with
  | Some p -> p
  | None -> Printf.sprintf "BENCH_%s.json" (Lazy.force bench_date)

let write_trajectory () =
  let path = trajectory_path () in
  Harness.write_bench_json ~path ~date:(Lazy.force bench_date) ~budget ~timeout
    (Lazy.force rows_per_category);
  Format.fprintf fmt "trajectory written to %s@." path

(* The match-engine throughput rows land in the same trajectory file,
   under an "engine" section (DESIGN.md §10). *)
let engine_bench () =
  let path = trajectory_path () in
  let report = Engine_bench.run_and_append ~path () in
  Engine_bench.pp fmt report;
  Format.fprintf fmt "engine run appended to %s@.@." path

let fig4c () =
  Format.fprintf fmt "== Figure 4(c): benchmark counts ==@.";
  let count name l = Format.fprintf fmt "  %-20s %5d@." name (List.length l) in
  count "Kaluza-like" (Std.kaluza ());
  count "Slog-like" (Std.slog ());
  count "Norn-like" (Std.norn ());
  count "SyGuS-qgen-like" (Std.sygus ());
  count "RegExLib-Inter" (Std.regexlib_intersection ());
  count "RegExLib-Subset" (Std.regexlib_subset ());
  count "Norn-Boolean" (Std.norn_boolean ());
  count "Date" (Sbd_benchgen.Handwritten.date ());
  count "Password" (Sbd_benchgen.Handwritten.password ());
  count "Boolean+Loops" (Sbd_benchgen.Handwritten.loops ());
  count "Determ.-Blowup" (Sbd_benchgen.Handwritten.blowup ());
  Format.fprintf fmt "@."

let fig4a () =
  List.iter
    (fun (name, rows) ->
      Harness.pp_table_header fmt (Printf.sprintf "Figure 4(a): %s benchmarks" name);
      List.iter (Harness.pp_row fmt) rows;
      Format.fprintf fmt "@.")
    (Lazy.force rows_per_category)

let fig4b () =
  List.iter
    (fun (name, rows) ->
      Format.fprintf fmt "== Figure 4(b) cumulative series (%s) ==@." name;
      Harness.pp_cumulative_ascii fmt rows;
      Format.fprintf fmt "@.")
    (Lazy.force rows_per_category)

let ablation_dead () =
  Format.fprintf fmt "== Ablation A2: dead-state elimination (unsat handwritten) ==@.";
  let labeled = List.assoc "handwritten" (Lazy.force labeled_suites) in
  let unsat_only = List.filter (fun ((i : I.t), _) -> i.expected = I.Unsat) labeled in
  Harness.pp_table_header fmt "unsat handwritten instances (wall clock)";
  List.iter
    (fun id ->
      Harness.reset_sessions ();
      Harness.pp_row fmt (Harness.run_suite ~budget ~timeout id unsat_only))
    [ Harness.Dz3; Harness.Dz3_no_dead ];
  (* work measured in der-rule expansions; the second pass re-queries the
     same constraints against the persistent graph *)
  Format.fprintf fmt "  %-14s %14s %14s %12s@." "variant" "1st-pass-exp"
    "requery-exp" "bot-hits";
  List.iter
    (fun (name, dead) ->
      let first, second, hits = Harness.dz3_work ~budget ~dead_state_elim:dead unsat_only in
      Format.fprintf fmt "  %-14s %14d %14d %12d@." name first second hits)
    [ ("dz3", true); ("dz3-nodead", false) ];
  Format.fprintf fmt "@."

let ablation_dnf () =
  Format.fprintf fmt
    "== Ablation A1: clean DNF vs raw DNF (transition regex sizes) ==@.";
  let module Dd = Sbd_core.Deriv.Make (Harness.R) in
  let module Tr = Dd.Tr in
  Format.fprintf fmt "  %-34s %10s %10s@." "suite" "clean" "raw";
  List.iter
    (fun (suite_name, instances) ->
      let clean_total = ref 0 and raw_total = ref 0 and n = ref 0 in
      List.iter
        (fun (inst : I.t) ->
          match Harness.P.parse inst.pattern with
          | Error _ -> ()
          | Ok r ->
            let d = Dd.delta r in
            clean_total := !clean_total + Tr.size (Tr.dnf d);
            raw_total := !raw_total + Tr.size (Tr.dnf ~clean:false d);
            incr n)
        instances;
      if !n > 0 then
        Format.fprintf fmt "  %-34s %10.1f %10.1f@." suite_name
          (float_of_int !clean_total /. float_of_int !n)
          (float_of_int !raw_total /. float_of_int !n))
    [ ("date", Sbd_benchgen.Handwritten.date ())
    ; ("password", Sbd_benchgen.Handwritten.password ())
    ; ("loops", Sbd_benchgen.Handwritten.loops ())
    ; ("blowup", Sbd_benchgen.Handwritten.blowup ()) ];
  Format.fprintf fmt "@."

let ablation_simplify () =
  Format.fprintf fmt "== Ablation A4: pre-simplification of the input regex ==@.";
  let labeled = List.assoc "handwritten" (Lazy.force labeled_suites) in
  Harness.pp_table_header fmt "handwritten instances";
  List.iter
    (fun id ->
      Harness.reset_sessions ();
      Harness.pp_row fmt (Harness.run_suite ~budget ~timeout id labeled))
    [ Harness.Dz3; Harness.Dz3_simplify ];
  Format.fprintf fmt "@."

let ablation_algebra () =
  Format.fprintf fmt "== Ablation A3: BDD vs range-list character algebra ==@.";
  let labeled = List.assoc "handwritten" (Lazy.force labeled_suites) in
  Harness.pp_table_header fmt "handwritten instances";
  List.iter
    (fun id ->
      Harness.reset_sessions ();
      Harness.pp_row fmt (Harness.run_suite ~budget ~timeout id labeled))
    [ Harness.Dz3; Harness.Dz3_ranges ];
  Format.fprintf fmt "@."

let states_table () =
  Format.fprintf fmt
    "== Theorem 7.3 evidence: lazy derivative exploration vs eager automata ==@.";
  Format.fprintf fmt "  %-28s %14s %14s@." "instance" "dz3-explored" "eager-states";
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
          match E.state_count ~budget:100_000 r with
          | Some n -> string_of_int n
          | None -> ">100000"
        in
        Format.fprintf fmt "  %-28s %14d %14s@." inst.pattern explored eager)
    (Sbd_benchgen.Handwritten.blowup ());
  Format.fprintf fmt "@."

(* -- Bechamel micro-benchmarks ------------------------------------------- *)

open Bechamel
open Toolkit

module R = Harness.R
module P = Harness.P
module S = Harness.S
module D = Sbd_core.Deriv.Make (R)
module Sbfa = Sbd_core.Sbfa.Make (R)
module A = Sbd_alphabet.Bdd

let re = P.parse_exn

(* representative instances per experiment id *)
let password_re = ".*\\d.*&~(.*01.*)&.{8,128}&.*[a-z].*"
let date_re = "\\d{4}-[a-zA-Z]{3}-\\d{2}&(2019.*|2020.*)"
let blowup_unsat = "(.*a.{10})&(.*b.{10})"
let blowup_compl = "~(.*a.{30})&.{31,}"

let solve_fresh pattern () =
  let session = S.create_session () in
  ignore (S.solve ~budget session (re pattern))

let bench_solver name pattern =
  Test.make ~name (Staged.stage (solve_fresh pattern))

let sample_suite gen n =
  let all = gen () in
  let stride = max 1 (List.length all / n) in
  List.filteri (fun i _ -> i mod stride = 0) all
  |> List.filteri (fun i _ -> i < n)

let bench_suite name gen n =
  let sample = sample_suite gen n in
  Test.make ~name
    (Staged.stage (fun () ->
         Harness.reset_sessions ();
         List.iter
           (fun (inst : I.t) ->
             match P.parse inst.pattern with
             | Ok r -> ignore (S.solve ~budget:20_000 !Harness.dz3_session r)
             | Error _ -> ())
           sample))

let tests =
  Test.make_grouped ~name:"sbd"
    [ (* T4a rows: the dz3 backend on a sample of each category *)
      Test.make_grouped ~name:"fig4a"
        [ bench_suite "non_boolean" Std.non_boolean 40
        ; bench_suite "boolean" Std.boolean 30
        ; bench_suite "handwritten" Std.handwritten 30 ]
    ; (* F2: the Section 2 running example, end to end *)
      Test.make_grouped ~name:"fig2"
        [ bench_solver "password" password_re; bench_solver "date" date_re ]
    ; (* F4b/blowup: the families behind the cumulative plots *)
      Test.make_grouped ~name:"blowup"
        [ bench_solver "intersection_unsat" blowup_unsat
        ; bench_solver "complement_sat" blowup_compl ]
    ; (* T7.3: SBFA construction stays linear on B(RE) *)
      Test.make ~name:"thm73_sbfa_build"
        (Staged.stage (fun () -> ignore (Sbfa.build ~max_states:2000 (re date_re))))
    ; (* core operator costs *)
      Test.make_grouped ~name:"core"
        [ Test.make ~name:"delta_dnf"
            (Staged.stage (fun () ->
                 D.clear ();
                 ignore (D.delta_dnf (re password_re))))
        ; Test.make ~name:"derive_word"
            (Staged.stage (fun () ->
                 ignore (D.matches_string (re password_re) "xy12za9bc0")))
        ; Test.make ~name:"bdd_ops"
            (Staged.stage (fun () ->
                 let d = A.of_ranges Sbd_alphabet.Charclass.digit_ranges in
                 let w = A.of_ranges Sbd_alphabet.Charclass.word_ranges in
                 ignore (A.conj (A.neg d) w)))
        ]
    ]

let run_bechamel () =
  Format.fprintf fmt "== Bechamel micro-benchmarks (ns per run) ==@.";
  let cfg = Benchmark.cfg ~limit:1000 ~quota:(Time.second 0.3) () in
  let raw = Benchmark.all cfg Instance.[ monotonic_clock ] tests in
  let results =
    Analyze.all
      (Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |])
      Instance.monotonic_clock raw
  in
  let rows = ref [] in
  Hashtbl.iter
    (fun name ols ->
      let value =
        match Analyze.OLS.estimates ols with
        | Some [ est ] -> Printf.sprintf "%14.1f" est
        | _ -> Printf.sprintf "%14s" "n/a"
      in
      rows := (name, value) :: !rows)
    results;
  List.iter
    (fun (name, value) -> Format.fprintf fmt "  %-32s %s@." name value)
    (List.sort compare !rows);
  Format.fprintf fmt "@."

let () =
  fig4c ();
  fig4a ();
  fig4b ();
  write_trajectory ();
  engine_bench ();
  ablation_dead ();
  ablation_dnf ();
  ablation_simplify ();
  ablation_algebra ();
  states_table ();
  if not !skip_bechamel then run_bechamel ()
