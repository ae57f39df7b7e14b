(** Experiment harness reproducing the evaluation of Section 6.

    Four solver backends are compared (see DESIGN.md for the mapping to
    the paper's competitors):

    - [Dz3]: the symbolic-Boolean-derivative decision procedure of this
      library (the paper's contribution);
    - [Minterm]: upfront mintermization + classical Brzozowski
      derivatives (the finite-alphabet school: Ostrich / Z3str3 /
      Z3-Trau stand-in);
    - [Eager]: eager symbolic automata with product/complement (the
      pre-derivative Z3 architecture);
    - [Antimirov]: lazy Antimirov sets for the positive fragment with
      eager complement elimination (the CVC4 architecture).

    Each instance is a single ERE satisfiability problem (Boolean
    combinations already folded, as dZ3's preprocessing does).  Every
    solver gets a deterministic work budget calibrated to ~1s of work;
    the dz3 backends additionally run under a {e real} wall-clock
    deadline of [timeout] seconds (enforced inside the derivative/DNF
    machinery, see [Sbd_obs.Obs.Deadline]), so a pathological instance
    stops near the deadline instead of overshooting its budget
    unboundedly.  Following the paper's methodology, wrong answers,
    unsupported cases and budget/deadline exhaustion count as timeouts,
    charged at the [timeout] value in the time statistics. *)

(* The shared default instantiation (Sbd_service.Default) provides the
   core tower; the comparison baselines are applied here. *)
module A = Sbd_service.Default.A
module R = Sbd_service.Default.R
module P = Sbd_service.Default.P
module S = Sbd_service.Default.S
module D = Sbd_service.Default.D
module Simp = Sbd_service.Default.Simp
module MSolve = Sbd_classic.Minterm_solver.Make (R)
module Eager = Sbd_sfa.Eager.Make (R)
module AntS = Sbd_sfa.Antimirov_solver.Make (R)

(* The ranges-algebra stack, for the algebra ablation. *)
module Rs =
  Sbd_service.Default.Make (Sbd_regex.Regex.Make (Sbd_alphabet.Ranges))
module Pr = Rs.P
module Sr = Rs.S

type solver_id =
  | Dz3
  | Minterm
  | Eager_sfa
  | Antimirov
  | Dz3_no_dead
  | Dz3_ranges
  | Dz3_simplify

let solver_name = function
  | Dz3 -> "dz3"
  | Minterm -> "minterm"
  | Eager_sfa -> "eager-sfa"
  | Antimirov -> "antimirov"
  | Dz3_no_dead -> "dz3-nodead"
  | Dz3_ranges -> "dz3-ranges"
  | Dz3_simplify -> "dz3-simplify"

let default_solvers = [ Dz3; Minterm; Eager_sfa; Antimirov ]

type answer = Ans_sat | Ans_unsat | Ans_unknown

type outcome = {
  answer : answer;
  time : float;  (** wall-clock seconds for this instance *)
  solved : bool;  (** answered, and consistent with the label *)
}

let now () = Unix.gettimeofday ()

(* Sessions are shared per solver across a run, like a real solver
   process; dz3's derivative graph persistence is part of the design. *)
let dz3_session = ref (S.create_session ())
let dz3_ranges_session = ref (Sr.create_session ())

let reset_sessions () =
  dz3_session := S.create_session ();
  dz3_ranges_session := Sr.create_session ()

(** Run one solver on one pattern, returning its raw answer.
    [deadline] (wall-clock seconds) is honored by the dz3 backends; the
    comparison baselines only understand work budgets. *)
let raw_answer ~budget ?deadline (id : solver_id) (pattern : string) : answer =
  match id with
  | Dz3 | Dz3_no_dead | Dz3_simplify -> (
    match P.parse pattern with
    | Error _ -> Ans_unknown
    | Ok r -> (
      let r = if id = Dz3_simplify then Simp.simplify r else r in
      match
        S.solve ~budget ?deadline ~dead_state_elim:(id <> Dz3_no_dead)
          !dz3_session r
      with
      | S.Sat _ -> Ans_sat
      | S.Unsat -> Ans_unsat
      | S.Unknown _ -> Ans_unknown))
  | Dz3_ranges -> (
    match Pr.parse pattern with
    | Error _ -> Ans_unknown
    | Ok r -> (
      match Sr.solve ~budget ?deadline !dz3_ranges_session r with
      | Sr.Sat _ -> Ans_sat
      | Sr.Unsat -> Ans_unsat
      | Sr.Unknown _ -> Ans_unknown))
  | Minterm -> (
    match P.parse pattern with
    | Error _ -> Ans_unknown
    | Ok r -> (
      match MSolve.solve ~budget r with
      | MSolve.Sat _ -> Ans_sat
      | MSolve.Unsat -> Ans_unsat
      | MSolve.Unknown _ -> Ans_unknown))
  | Eager_sfa -> (
    match P.parse pattern with
    | Error _ -> Ans_unknown
    | Ok r -> (
      match Eager.solve ~budget:(budget / 4) r with
      | Eager.Sat _ -> Ans_sat
      | Eager.Unsat -> Ans_unsat
      | Eager.Unknown _ -> Ans_unknown))
  | Antimirov -> (
    match P.parse pattern with
    | Error _ -> Ans_unknown
    | Ok r -> (
      match AntS.solve ~budget r with
      | AntS.Sat _ -> Ans_sat
      | AntS.Unsat -> Ans_unsat
      | AntS.Unknown _ -> Ans_unknown))

(** Resolve labels: instances generated without a ground-truth label are
    labeled by the dz3 backend with a large budget (the paper similarly
    labels unlabeled suites with a trained baseline solver and marks
    them "unchecked"). *)
let resolve_label ~budget (inst : Sbd_benchgen.Instance.t) :
    Sbd_benchgen.Instance.expected =
  match inst.expected with
  | (Sat | Unsat) as e -> e
  | Unlabeled -> (
    match raw_answer ~budget:(budget * 4) Dz3 inst.pattern with
    | Ans_sat -> Sat
    | Ans_unsat -> Unsat
    | Ans_unknown -> Unlabeled)

let run_one ~budget ~timeout (id : solver_id) (inst : Sbd_benchgen.Instance.t)
    ~(label : Sbd_benchgen.Instance.expected) : outcome =
  let t0 = now () in
  let answer = raw_answer ~budget ~deadline:timeout id inst.pattern in
  let elapsed = now () -. t0 in
  let solved =
    match (answer, label) with
    | Ans_sat, (Sat | Unlabeled) -> true
    | Ans_unsat, (Unsat | Unlabeled) -> true
    | Ans_sat, Unsat | Ans_unsat, Sat ->
      false (* wrong answer: counted as timeout, per the methodology *)
    | Ans_unknown, _ -> false
  in
  { answer; time = (if solved then elapsed else timeout); solved }

(* -- aggregation -------------------------------------------------------- *)

type row = {
  solver : solver_id;
  total : int;
  solved : int;
  avg_time : float;  (** over all instances, timeouts charged at [timeout] *)
  median_time : float;  (** idem *)
  times : float list;  (** times of the {e solved} instances, for Figure 4b *)
}

let percent row = 100.0 *. float_of_int row.solved /. float_of_int (max row.total 1)

(** Median with the usual convention: for even-length lists, the average
    of the two middle elements (the upper-middle alone would bias the
    Figure 4(a) [med(s)] column upward). *)
let median xs =
  match List.sort compare xs with
  | [] -> 0.0
  | sorted ->
    let n = List.length sorted in
    if n mod 2 = 1 then List.nth sorted (n / 2)
    else (List.nth sorted ((n / 2) - 1) +. List.nth sorted (n / 2)) /. 2.0

module Obs = Sbd_obs.Obs

(** One row as a JSON object, for the [BENCH_*.json] trajectory files. *)
let row_json ~(suite : string) (row : row) : Obs.Json.t =
  Obs.Json.Obj
    [
      ("suite", Obs.Json.Str suite);
      ("solver", Obs.Json.Str (solver_name row.solver));
      ("total", Obs.Json.Int row.total);
      ("solved", Obs.Json.Int row.solved);
      ("percent", Obs.Json.Float (percent row));
      ("avg_s", Obs.Json.Float row.avg_time);
      ("median_s", Obs.Json.Float row.median_time);
    ]

(** Run a solver over a labeled instance list. *)
let run_suite ~budget ~timeout (id : solver_id)
    (instances : (Sbd_benchgen.Instance.t * Sbd_benchgen.Instance.expected) list) : row
    =
  let outcomes =
    List.map (fun (inst, label) -> run_one ~budget ~timeout id inst ~label) instances
  in
  let charged = List.map (fun o -> o.time) outcomes in
  let solved_times =
    List.filter_map (fun (o : outcome) -> if o.solved then Some o.time else None) outcomes
  in
  {
    solver = id;
    total = List.length outcomes;
    solved = List.length solved_times;
    avg_time =
      List.fold_left ( +. ) 0.0 charged /. float_of_int (max 1 (List.length charged));
    median_time = median charged;
    times = solved_times;
  }

(** Label a raw instance list once (shared across solvers). *)
let label_all ~budget instances =
  List.map (fun inst -> (inst, resolve_label ~budget inst)) instances

(* -- reports ------------------------------------------------------------- *)

let pp_table_header ppf title =
  Format.fprintf ppf "== %s ==@." title;
  Format.fprintf ppf "%-12s %8s %10s %10s %10s@." "solver" "solved" "percent"
    "avg(s)" "med(s)"

let pp_row ppf row =
  Format.fprintf ppf "%-12s %4d/%-4d %9.1f%% %10.4f %10.4f@."
    (solver_name row.solver) row.solved row.total (percent row) row.avg_time
    row.median_time

(** The cumulative-solved series of Figure 4(b): for each solve time in
    increasing order, how many instances were solved within it. *)
let cumulative (row : row) : (float * int) list =
  List.mapi (fun i t -> (t, i + 1)) (List.sort compare row.times)

let pp_cumulative_csv ppf (rows : row list) =
  Format.fprintf ppf "solver,time_s,solved@.";
  List.iter
    (fun row ->
      List.iter
        (fun (t, n) ->
          Format.fprintf ppf "%s,%.6f,%d@." (solver_name row.solver) t n)
        (cumulative row))
    rows

(** Simple ASCII rendition of a Figure 4(b) cumulative plot. *)
let pp_cumulative_ascii ppf (rows : row list) =
  let thresholds = [ 0.0001; 0.0003; 0.001; 0.003; 0.01; 0.03; 0.1; 0.3; 1.0 ] in
  Format.fprintf ppf "%-12s" "solver";
  List.iter (fun t -> Format.fprintf ppf " %8s" (Printf.sprintf "<%gs" t)) thresholds;
  Format.fprintf ppf "@.";
  List.iter
    (fun row ->
      Format.fprintf ppf "%-12s" (solver_name row.solver);
      List.iter
        (fun thr ->
          let n = List.length (List.filter (fun t -> t <= thr) row.times) in
          Format.fprintf ppf " %8d" n)
        thresholds;
      Format.fprintf ppf "@.")
    rows

(** Measured work (der-rule expansions) of the dz3 backend over a labeled
    instance list, run twice in the same session: the second pass shows
    what the persistent graph's dead/alive facts save on re-queries (the
    bot rule of Figure 3a).  Returns (first-pass expansions, second-pass
    expansions, dead-rule hits). *)
let dz3_work ~budget ~dead_state_elim
    (instances : (Sbd_benchgen.Instance.t * Sbd_benchgen.Instance.expected) list) :
    int * int * int =
  reset_sessions ();
  let session = !dz3_session in
  let run_all () =
    List.iter
      (fun ((inst : Sbd_benchgen.Instance.t), _) ->
        match P.parse inst.pattern with
        | Ok r -> ignore (S.solve ~budget ~dead_state_elim session r)
        | Error _ -> ())
      instances
  in
  run_all ();
  let first = session.S.expansions in
  run_all ();
  (first, session.S.expansions - first, session.S.dead_hits)

(* -- machine-readable trajectory files ----------------------------------- *)

let today () =
  let tm = Unix.localtime (Unix.time ()) in
  Printf.sprintf "%04d-%02d-%02d" (tm.Unix.tm_year + 1900) (tm.Unix.tm_mon + 1)
    tm.Unix.tm_mday

let default_bench_path () = Printf.sprintf "BENCH_%s.json" (today ())

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(** Append a run to the given section of the [BENCH_<date>.json]
    trajectory document (schema in DESIGN.md §8), keeping every other
    section; creates the file if absent.  A file that does not parse as
    such a document is an error naming it, and is left untouched: the
    new document goes to a temporary file renamed over [path], so a
    crash mid-write never truncates it either. *)
let append_bench ~section ~path (report : Obs.Json.t) : (unit, string) result =
  let module J = Obs.Json in
  let report =
    match[@warning "-4"] report with
    | J.Obj kvs -> J.Obj (("date", J.Str (today ())) :: kvs)
    | other -> other
  in
  let doc =
    if not (Sys.file_exists path) then
      Ok
        (J.Obj
           [
             ("schema", J.Str "sbd-bench/1");
             ("date", J.Str (today ()));
             (section, J.Arr [ report ]);
           ])
    else
      match[@warning "-4"] Sbd_service.Jsonin.parse (read_file path) with
      | exception Sys_error e -> Error e
      | Error e -> Error (Printf.sprintf "%s: not a trajectory file: %s" path e)
      | Ok (J.Obj kvs) -> (
        match[@warning "-4"] List.assoc_opt section kvs with
        | None -> Ok (J.Obj (kvs @ [ (section, J.Arr [ report ]) ]))
        | Some (J.Arr runs) ->
          Ok
            (J.Obj
               (List.remove_assoc section kvs
               @ [ (section, J.Arr (runs @ [ report ])) ]))
        | Some _ ->
          Error (Printf.sprintf "%s: section %S is not an array" path section))
      | Ok _ -> Error (Printf.sprintf "%s: not a JSON object" path)
  in
  Result.bind doc (fun doc ->
      let tmp = path ^ ".tmp" in
      match
        let oc = open_out tmp in
        Fun.protect
          ~finally:(fun () -> close_out_noerr oc)
          (fun () ->
            output_string oc (J.to_string_pretty doc);
            output_char oc '\n';
            close_out oc);
        Sys.rename tmp path
      with
      | () -> Ok ()
      | exception Sys_error e -> Error e)

(* -- bench sections ---------------------------------------------------------- *)

(** What one run of a bench section produced. *)
type report = {
  json : Obs.Json.t;  (** the run appended to the trajectory file *)
  pp : Format.formatter -> unit;
  fatal : string list;
      (** correctness failures: the run fails on them with or without
          [--check] *)
  failures : string list;  (** the gates [--check] enforces; [] = pass *)
}

(** A bench section: one [*-bench] subcommand of [bin/experiments] and
    one section of the trajectory file. *)
type section = {
  name : string;  (** the subcommand *)
  key : string;  (** the trajectory section its runs are appended to *)
  doc : string;
  gates : string option;
      (** what [--check] enforces; [None]: the subcommand has no [--check] *)
  run : unit -> report;
}
