(** Abstract-domain pre-solver benchmark phase: hit-rate, soundness and
    time-saved of [Sbd_absdom.Absdom.presolve] over the standard
    satisfiability corpus ([Sbd_benchgen.Standard]) and the containment
    pair corpus ([Sbd_benchgen.Pairs], via the emptiness reduction).

    For every corpus pattern the pre-solver runs alone (timed), then the
    full derivative solver runs with [presolve:false] (timed) as ground
    truth.  The phase is a soundness sweep as much as a benchmark:

    - an [Unsat_proved] on an instance the solver (or the corpus label)
      shows satisfiable is {b unsound} and fails the run; one the timed
      solve leaves undecided is solved again at 200 000 expansions and
      2 s;
    - every [Sat_witnessed] word is replayed through the independent
      reference matcher ([Sbd_classic.Refmatch]) and cross-checked
      against solver/label [Unsat] verdicts;
    - the same discipline applies to containment pairs: the pre-solver
      runs on the reduction [l & ~r] (symmetric difference for equiv)
      and its verdicts are checked against the coinductive prover with
      [presolve:false] plus the ground-truth labels.

    Time-saved is the summed wall-time difference (full solve minus
    pre-solve) over the instances the pre-solver decides.  The
    password-rule suite additionally gets an end-to-end A/B: whole-suite
    solve wall time with the fast path on vs off.

    [check] enforces the pinned gates (hit-rate floors on both corpora,
    zero unsound verdicts, zero invalid witnesses); the report is
    appended to the trajectory file as an ["absdom"] run. *)

module R = Harness.R
module P = Harness.P
module S = Harness.S
module C = Sbd_service.Default.C
module Ab = Sbd_service.Default.Ab
module Ref = Sbd_service.Default.Ref
module Obs = Sbd_obs.Obs
module J = Obs.Json
module I = Sbd_benchgen.Instance
module Std = Sbd_benchgen.Standard
module Pairs = Sbd_benchgen.Pairs

(* A fresh solver tower per A/B arm (cold derivative and abstract
   memos) over the shared [R]. *)
module type SOLVER = Sbd_solver.Solve.S with module Ab.D.R = R

(* Pinned regression gates (bin/ci.sh gates on these via [check]). *)
let corpus_hit_floor_pct = 25.0
let pair_hit_floor_pct = 15.0

(* Deterministic ground-truth budget (no wall deadline), so verdicts are
   machine-independent. *)
let solver_budget = 50_000
let prover_budget = Sbd_service.Default.C.default_budget

(* Times each A/B arm solves the whole password suite. *)
let password_reps = 25

(* The variant label recorded in every run. *)
let label = "absdom"

type row = {
  suite : string;
  n : int;
  unsat_proved : int;
  sat_witnessed : int;
  unknown : int;
  presolve_wall_s : float;
  solver_wall_s : float;  (** full solver, [presolve:false], same instances *)
}

type report = {
  rows : row list;
  total : int;
  hits : int;  (** corpus instances the pre-solver decides *)
  hit_pct : float;
  time_saved_s : float;
      (** [solver_wall - presolve_wall] summed over decided instances *)
  pair_total : int;
  pair_hits : int;
  pair_hit_pct : float;
  unsound : int;
      (** pre-solver verdict contradicting the solver, the prover or a
          ground-truth label *)
  invalid_witnesses : int;
  solver_undecided : int;  (** ground truth ran out of budget *)
  solver_rechecked : int;
      (** [Unsat_proved] verdicts the timed solve left undecided, solved
          again at 200 000 expansions *)
  password_wall_on_s : float;
  password_wall_off_s : float;
  password_speedup : float;
  json : J.t;
}

let word_of_witness (w : string) : int list =
  List.init (String.length w) (fun i -> Char.code w.[i])

let run () : report =
  Sbd_service.Default.clear ();
  let corpus = Std.all () in
  let ssession = S.create_session () in
  let unsound = ref 0 in
  let invalid_witnesses = ref 0 in
  let solver_undecided = ref 0 in
  let solver_rechecked = ref 0 in
  let time_saved = ref 0.0 in
  let suites = ref [] in
  let suite_rows : (string, row) Hashtbl.t = Hashtbl.create 8 in
  let record suite verdict pre_wall full_wall =
    if not (Hashtbl.mem suite_rows suite) then begin
      suites := suite :: !suites;
      Hashtbl.add suite_rows suite
        { suite; n = 0; unsat_proved = 0; sat_witnessed = 0; unknown = 0;
          presolve_wall_s = 0.0; solver_wall_s = 0.0 }
    end;
    let row = Hashtbl.find suite_rows suite in
    let du, ds, dk =
      match verdict with
      | Ab.Unsat_proved -> (1, 0, 0)
      | Ab.Sat_witnessed _ -> (0, 1, 0)
      | Ab.Unknown -> (0, 0, 1)
    in
    Hashtbl.replace suite_rows suite
      { row with
        n = row.n + 1;
        unsat_proved = row.unsat_proved + du;
        sat_witnessed = row.sat_witnessed + ds;
        unknown = row.unknown + dk;
        presolve_wall_s = row.presolve_wall_s +. pre_wall;
        solver_wall_s = row.solver_wall_s +. full_wall;
      }
  in
  List.iter
    (fun (inst : I.t) ->
      match P.parse inst.I.pattern with
      | Error _ -> ()
      | Ok r ->
        let t0 = Obs.now () in
        let verdict = Ab.presolve r in
        let pre_wall = Obs.now () -. t0 in
        let t1 = Obs.now () in
        let full =
          S.solve ~budget:solver_budget ~presolve:false ssession r
        in
        let full_wall = Obs.now () -. t1 in
        record inst.I.suite verdict pre_wall full_wall;
        (match verdict with
        | Ab.Unknown -> ()
        | Ab.Unsat_proved ->
          time_saved := !time_saved +. (full_wall -. pre_wall);
          let full =
            match full with
            | S.Unknown _ ->
              incr solver_rechecked;
              S.solve ~budget:200_000 ~deadline:2.0 ~presolve:false ssession
                r
            | S.Sat _ | S.Unsat -> full
          in
          (match full with
          | S.Sat _ -> incr unsound
          | S.Unsat -> ()
          | S.Unknown _ -> incr solver_undecided);
          (match inst.I.expected with
          | I.Sat -> incr unsound
          | I.Unsat | I.Unlabeled -> ())
        | Ab.Sat_witnessed w ->
          time_saved := !time_saved +. (full_wall -. pre_wall);
          if not (Ref.matches r (word_of_witness w)) then
            incr invalid_witnesses;
          (match full with
          | S.Unsat -> incr unsound
          | S.Sat _ -> ()
          | S.Unknown _ -> incr solver_undecided);
          (match inst.I.expected with
          | I.Unsat -> incr unsound
          | I.Sat | I.Unlabeled -> ())))
    corpus;
  let rows =
    List.rev_map (fun suite -> Hashtbl.find suite_rows suite) !suites
  in
  let total = List.fold_left (fun acc r -> acc + r.n) 0 rows in
  let hits =
    List.fold_left (fun acc r -> acc + r.unsat_proved + r.sat_witnessed) 0 rows
  in
  let hit_pct = 100.0 *. float_of_int hits /. float_of_int (max total 1) in
  (* -- containment pairs, via the emptiness reduction ------------------- *)
  let pair_total = ref 0 in
  let pair_hits = ref 0 in
  let csession = C.create_session () in
  List.iter
    (fun (p : Pairs.t) ->
      match (P.parse p.Pairs.left, P.parse p.Pairs.right) with
      | Error _, _ | _, Error _ -> ()
      | Ok l, Ok r ->
        incr pair_total;
        let verdict =
          Ab.presolve (Contain_bench.reduction_regex p.Pairs.mode l r)
        in
        (match verdict with
        | Ab.Unknown -> ()
        | Ab.Unsat_proved | Ab.Sat_witnessed _ -> incr pair_hits);
        (* witness validity: a member of the reduction distinguishes the
           pair *)
        (match verdict with
        | Ab.Sat_witnessed w ->
          if not (Contain_bench.witness_ok p.Pairs.mode l r (word_of_witness w))
          then incr invalid_witnesses
        | Ab.Unsat_proved | Ab.Unknown -> ());
        (* coinductive prover with the fast path off, as ground truth *)
        (match verdict with
        | Ab.Unknown -> ()
        | Ab.Unsat_proved | Ab.Sat_witnessed _ -> (
          let truth =
            match p.Pairs.mode with
            | Pairs.Subset ->
              C.subset csession ~budget:prover_budget ~presolve:false l r
            | Pairs.Equiv ->
              C.equiv csession ~budget:prover_budget ~presolve:false l r
          in
          match (verdict, truth) with
          | Ab.Unsat_proved, C.Refuted _ | Ab.Sat_witnessed _, C.Proved ->
            incr unsound
          | (Ab.Unsat_proved | Ab.Sat_witnessed _ | Ab.Unknown), C.Unknown _
            ->
            incr solver_undecided
          | ( (Ab.Unsat_proved | Ab.Sat_witnessed _ | Ab.Unknown),
              (C.Proved | C.Refuted _) ) -> ()));
        (* ground-truth labels *)
        (match (verdict, p.Pairs.expected) with
        | Ab.Unsat_proved, Pairs.Fails | Ab.Sat_witnessed _, Pairs.Holds ->
          incr unsound
        | ( (Ab.Unsat_proved | Ab.Sat_witnessed _ | Ab.Unknown),
            (Pairs.Holds | Pairs.Fails | Pairs.Unlabeled) ) -> ()))
    (Pairs.all ());
  let pair_hit_pct =
    100.0 *. float_of_int !pair_hits /. float_of_int (max !pair_total 1)
  in
  (* -- password-rule end-to-end A/B -------------------------------------
     Each arm gets its own freshly applied solver functor, so both start
     with cold derivative memos: the shared [S] above has already solved
     the whole corpus and would hand the second arm a warm cache.  The
     suite is solved [password_reps] times per arm — the service resolves
     recurring patterns, and the pre-solver's verdict memo is part of
     what is being measured. *)
  let password =
    List.filter (fun (i : I.t) -> i.I.suite = "password") corpus
  in
  let run_password (module Arm : SOLVER) ~presolve =
    let s = Arm.create_session () in
    let t0 = Obs.now () in
    for _ = 1 to password_reps do
      List.iter
        (fun (inst : I.t) ->
          match P.parse inst.I.pattern with
          | Error _ -> ()
          | Ok r ->
            ignore
              (Arm.solve ~budget:solver_budget ~presolve s r : Arm.result))
        password
    done;
    Obs.now () -. t0
  in
  let arm () =
    (module Sbd_solver.Solve.Make
              (Sbd_absdom.Absdom.Make (Sbd_core.Deriv.Make (R))) : SOLVER)
  in
  let module S_on = (val arm ()) in
  let module S_off = (val arm ()) in
  let password_wall_off_s = run_password (module S_off) ~presolve:false in
  let password_wall_on_s = run_password (module S_on) ~presolve:true in
  let password_speedup =
    password_wall_off_s /. Float.max password_wall_on_s 1e-9
  in
  let json_of_row (r : row) =
    J.Obj
      [
        ("suite", J.Str r.suite);
        ("n", J.Int r.n);
        ("unsat_proved", J.Int r.unsat_proved);
        ("sat_witnessed", J.Int r.sat_witnessed);
        ("unknown", J.Int r.unknown);
        ("presolve_wall_s", J.Float r.presolve_wall_s);
        ("solver_wall_s", J.Float r.solver_wall_s);
      ]
  in
  let json =
    J.Obj
      [
        ("label", J.Str label);
        ("solver_budget", J.Int solver_budget);
        ("rows", J.Arr (List.map json_of_row rows));
        ("total", J.Int total);
        ("hits", J.Int hits);
        ("hit_pct", J.Float hit_pct);
        ("time_saved_s", J.Float !time_saved);
        ("pair_total", J.Int !pair_total);
        ("pair_hits", J.Int !pair_hits);
        ("pair_hit_pct", J.Float pair_hit_pct);
        ("unsound", J.Int !unsound);
        ("invalid_witnesses", J.Int !invalid_witnesses);
        ("solver_undecided", J.Int !solver_undecided);
        ("solver_rechecked", J.Int !solver_rechecked);
        ("password_wall_on_s", J.Float password_wall_on_s);
        ("password_wall_off_s", J.Float password_wall_off_s);
        ("password_speedup", J.Float password_speedup);
        ("memo_entries", J.Int (Ab.memo_entries ()));
      ]
  in
  {
    rows;
    total;
    hits;
    hit_pct;
    time_saved_s = !time_saved;
    pair_total = !pair_total;
    pair_hits = !pair_hits;
    pair_hit_pct;
    unsound = !unsound;
    invalid_witnesses = !invalid_witnesses;
    solver_undecided = !solver_undecided;
    solver_rechecked = !solver_rechecked;
    password_wall_on_s;
    password_wall_off_s;
    password_speedup;
    json;
  }

(** Regression gates for CI.  Returns the violated gates (empty = pass). *)
let check (r : report) : string list =
  let fails = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> fails := s :: !fails) fmt in
  if r.hit_pct < corpus_hit_floor_pct then
    fail "corpus hit-rate %.2f%% below floor %.2f%%" r.hit_pct
      corpus_hit_floor_pct;
  if r.pair_hit_pct < pair_hit_floor_pct then
    fail "pair hit-rate %.2f%% below floor %.2f%%" r.pair_hit_pct
      pair_hit_floor_pct;
  if r.unsound > 0 then fail "%d unsound abstract verdict(s)" r.unsound;
  if r.invalid_witnesses > 0 then
    fail "%d invalid witness(es)" r.invalid_witnesses;
  List.rev !fails

let pp fmt (r : report) =
  Format.fprintf fmt "== abstract-domain pre-solver benchmark (%s) ==@."
    label;
  Format.fprintf fmt "  %-12s %6s %7s %6s %8s %12s %12s@." "suite" "n"
    "unsat" "sat" "unknown" "presolve(s)" "solver(s)";
  List.iter
    (fun row ->
      Format.fprintf fmt "  %-12s %6d %7d %6d %8d %12.4f %12.4f@." row.suite
        row.n row.unsat_proved row.sat_witnessed row.unknown
        row.presolve_wall_s row.solver_wall_s)
    r.rows;
  Format.fprintf fmt
    "  corpus %d/%d decided (%.1f%%), pairs %d/%d (%.1f%%), %.4fs saved, %d \
     unsound, %d invalid witnesses, %d solver-undecided (%d unsat \
     rechecked at 200k expansions)@."
    r.hits r.total r.hit_pct r.pair_hits r.pair_total r.pair_hit_pct
    r.time_saved_s r.unsound r.invalid_witnesses r.solver_undecided
    r.solver_rechecked;
  Format.fprintf fmt
    "  password suite: %.4fs with fast path, %.4fs without (%.2fx)@."
    r.password_wall_on_s r.password_wall_off_s r.password_speedup

let section =
  {
    Harness.name = "absdom-bench";
    key = "absdom";
    doc =
      "abstract-domain pre-solver hit-rate, soundness sweep and time-saved \
       on the satisfiability and containment corpora";
    gates =
      Some
        "the pinned gates (corpus and pair hit-rate floors, zero unsound \
         verdicts, zero invalid witnesses)";
    run =
      (fun () ->
        let r = run () in
        {
          Harness.json = r.json;
          pp = (fun fmt -> pp fmt r);
          fatal = [];
          failures = check r;
        });
  }
