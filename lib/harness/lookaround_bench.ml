(** Lookaround/anchor corpus phase: end-to-end agreement of the
    location-aware pipeline over the labeled corpus
    ({!Sbd_benchgen.Lookaround}).

    Every corpus case is pushed through the whole located stack and the
    verdicts are cross-checked two ways:

    - {b engine vs label}: {!Sbd_engine.Locmatch} full-match verdicts
      must equal the hand labels;
    - {b engine vs oracle}: full-match {e and} earliest-match-end must
      agree with the brute-force all-splits oracle
      ({!Sbd_locregex.Locref}) — a disagreement is an unsoundness, not
      a regression.

    Additionally, cases whose pattern is lookaround-free are lowered to
    plain regexes ({!Sbd_locregex.Locregex.S.lower}) and their
    [expected_sat] label is re-derived with the solver — exercising the
    anchor-elimination translation against ground truth.

    [check] gates on zero parse failures, zero mismatches of any kind
    and a (deliberately loose) throughput floor; the report lands in
    the ["lookaround"] section of the trajectory file. *)

module S = Harness.S
module L = Sbd_service.Default.LR
module LP = Sbd_service.Default.LP
module LRef = Sbd_service.Default.LRef
module LM = Sbd_service.Default.LM
module LA = Sbd_service.Default.LA
module Byteclass = Sbd_engine.Byteclass
module Lk = Sbd_benchgen.Lookaround
module Obs = Sbd_obs.Obs
module J = Obs.Json

let inputs_per_s_floor = 50.0
let solve_budget = 50_000

(* The variant label recorded in every run. *)
let label = "lookaround"

(* Lossy-decode exactly as the engine segments: scalar values plus the
   byte offset of every scalar boundary. *)
let segment s =
  let n = String.length s in
  let cps = ref [] and bnd = ref [ 0 ] and pos = ref 0 in
  while !pos < n do
    let cp, pos' = Byteclass.scalar_forward s !pos n in
    cps := cp :: !cps;
    bnd := pos' :: !bnd;
    pos := pos'
  done;
  (Array.of_list (List.rev !cps), Array.of_list (List.rev !bnd))

type mismatch = { case : string; input : string; detail : string }

type report = {
  cases : int;
  inputs : int;
  parse_failures : int;
  label_mismatches : mismatch list;  (** engine verdict vs hand label *)
  oracle_mismatches : mismatch list;  (** engine vs all-splits oracle *)
  sat_mismatches : mismatch list;  (** lowered satisfiability vs label *)
  sat_checked : int;  (** cases lowered and solved *)
  sat_undecided : int;
  lint_findings : int;  (** located lint findings over the corpus *)
  inputs_per_s : float;
  json : J.t;
}

let run () : report =
  let corpus = Lk.cases () in
  let ssession = S.create_session () in
  let parse_failures = ref 0 in
  let label_mm = ref [] and oracle_mm = ref [] in
  let sat_mm = ref [] in
  let sat_checked = ref 0 and sat_undecided = ref 0 in
  let lint_findings = ref 0 in
  let n_inputs = ref 0 in
  let t0 = Obs.now () in
  List.iter
    (fun (c : Lk.case) ->
      match LP.parse c.Lk.pattern with
      | Error (pos, msg) ->
        incr parse_failures;
        oracle_mm :=
          { case = c.Lk.id
          ; input = c.Lk.pattern
          ; detail = Printf.sprintf "parse error at %d: %s" pos msg }
          :: !oracle_mm
      | Ok t ->
        let eng = LM.create t in
        lint_findings :=
          !lint_findings + List.length (LA.analyze t).LA.findings;
        (* lowered satisfiability vs the corpus label *)
        (match L.lower t with
        | None -> ()
        | Some p ->
          incr sat_checked;
          (match S.solve ~budget:solve_budget ssession p with
          | S.Unknown _ -> incr sat_undecided
          | S.Sat _ when c.Lk.expected_sat = Sbd_benchgen.Instance.Unsat ->
            sat_mm :=
              { case = c.Lk.id
              ; input = c.Lk.pattern
              ; detail = "lowered pattern is satisfiable, label says unsat" }
              :: !sat_mm
          | S.Unsat when c.Lk.expected_sat = Sbd_benchgen.Instance.Sat ->
            sat_mm :=
              { case = c.Lk.id
              ; input = c.Lk.pattern
              ; detail = "lowered pattern is unsatisfiable, label says sat" }
              :: !sat_mm
          | S.Sat _ | S.Unsat -> ()));
        List.iter
          (fun (input, expect) ->
            incr n_inputs;
            let res = LM.run eng input in
            if res.LM.full <> expect then
              label_mm :=
                { case = c.Lk.id
                ; input
                ; detail =
                    Printf.sprintf "engine says %b, label says %b"
                      res.LM.full expect }
                :: !label_mm;
            let cps, bnd = segment input in
            let o = LRef.make t cps in
            if LRef.full o <> res.LM.full then
              oracle_mm :=
                { case = c.Lk.id
                ; input
                ; detail =
                    Printf.sprintf "full: engine %b, oracle %b" res.LM.full
                      (LRef.full o) }
                :: !oracle_mm;
            let oracle_end =
              Option.map (fun e -> bnd.(e)) (LRef.earliest_end o)
            in
            if oracle_end <> res.LM.found_end then
              oracle_mm :=
                { case = c.Lk.id
                ; input
                ; detail = "found_end: engine and oracle disagree" }
                :: !oracle_mm)
          c.Lk.inputs)
    corpus;
  let wall = Obs.now () -. t0 in
  let inputs_per_s = float_of_int !n_inputs /. Float.max wall 1e-9 in
  let json_of_mm (m : mismatch) =
    J.Obj
      [ ("case", J.Str m.case)
      ; ("input", J.Str m.input)
      ; ("detail", J.Str m.detail) ]
  in
  let json =
    J.Obj
      [ ("label", J.Str label)
      ; ("cases", J.Int (List.length corpus))
      ; ("inputs", J.Int !n_inputs)
      ; ("parse_failures", J.Int !parse_failures)
      ; ("label_mismatches", J.Arr (List.map json_of_mm !label_mm))
      ; ("oracle_mismatches", J.Arr (List.map json_of_mm !oracle_mm))
      ; ("sat_mismatches", J.Arr (List.map json_of_mm !sat_mm))
      ; ("sat_checked", J.Int !sat_checked)
      ; ("sat_undecided", J.Int !sat_undecided)
      ; ("lint_findings", J.Int !lint_findings)
      ; ("wall_s", J.Float wall)
      ; ("inputs_per_s", J.Float inputs_per_s) ]
  in
  { cases = List.length corpus
  ; inputs = !n_inputs
  ; parse_failures = !parse_failures
  ; label_mismatches = List.rev !label_mm
  ; oracle_mismatches = List.rev !oracle_mm
  ; sat_mismatches = List.rev !sat_mm
  ; sat_checked = !sat_checked
  ; sat_undecided = !sat_undecided
  ; lint_findings = !lint_findings
  ; inputs_per_s
  ; json }

(** Regression gates for CI.  Returns the violated gates (empty = pass). *)
let check (r : report) : string list =
  let fails = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> fails := s :: !fails) fmt in
  if r.parse_failures > 0 then
    fail "%d corpus pattern(s) failed to parse" r.parse_failures;
  if r.label_mismatches <> [] then
    fail "%d engine verdict(s) contradict hand labels"
      (List.length r.label_mismatches);
  if r.oracle_mismatches <> [] then
    fail "UNSOUND: %d disagreement(s) with the all-splits oracle"
      (List.length r.oracle_mismatches);
  if r.sat_mismatches <> [] then
    fail "%d lowered-satisfiability label mismatch(es)"
      (List.length r.sat_mismatches);
  if r.inputs_per_s < inputs_per_s_floor then
    fail "throughput %.1f inputs/s below floor %.1f" r.inputs_per_s
      inputs_per_s_floor;
  List.rev !fails

let pp fmt (r : report) =
  Format.fprintf fmt "== lookaround corpus (%s) ==@." label;
  Format.fprintf fmt
    "  %d cases, %d labeled inputs, %.0f inputs/s, %d lint findings@."
    r.cases r.inputs r.inputs_per_s r.lint_findings;
  Format.fprintf fmt
    "  sat cross-check: %d lowered+solved, %d undecided@." r.sat_checked
    r.sat_undecided;
  let dump name = function
    | [] -> ()
    | ms ->
      Format.fprintf fmt "  %s:@." name;
      List.iter
        (fun m ->
          Format.fprintf fmt "    %s %S: %s@." m.case m.input m.detail)
        ms
  in
  dump "label mismatches" r.label_mismatches;
  dump "oracle mismatches" r.oracle_mismatches;
  dump "sat mismatches" r.sat_mismatches;
  if
    r.parse_failures = 0 && r.label_mismatches = []
    && r.oracle_mismatches = [] && r.sat_mismatches = []
  then Format.fprintf fmt "  all verdicts agree@."

let section =
  {
    Harness.name = "lookaround-bench";
    key = "lookaround";
    doc =
      "located engine / all-splits oracle / hand-label agreement over the \
       anchored and lookaround corpus";
    gates =
      Some
        "the pinned gates (zero parse failures, zero engine/oracle/label/sat \
         mismatches)";
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
