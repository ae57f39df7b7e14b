(** Static-analyzer benchmark phase ({!Sbd_analysis.Analyze}) over the
    full benchmark corpus ({!Sbd_benchgen.Standard.all}):

    - throughput: patterns analyzed per second, Layer 1 + budgeted
      Layer 2, shared memo, at the budget of [sbdsolve --lint]'s
      default (10 000 expansions, 0.25 s per pattern);
    - soundness: every [Proved]/[Refuted] emptiness verdict is
      cross-checked against the solver ({!Sbd_solver.Solve}; a [Proved]
      the effort solve leaves undecided is solved again at 200 000
      expansions and 2 s on the shared session), every
      [Refuted] witness and every [Proved] universality (on ε and "a")
      against the reference matcher ({!Sbd_classic.Refmatch}), and
      every SBD203–SBD206 replacement is solver-checked to be
      equivalent to its pattern; any disagreement is counted in
      [unsound], named in the fatal failure, and must stay zero;
    - calibration: Spearman rank correlation between the analyzer's
      O(|r|) [difficulty] score and the solver's measured effort
      (derivative expansions, and wall time) on the same pattern, each
      solved in a fresh session so per-pattern counters are honest.

    The report is appended to the [BENCH_<date>.json] trajectory as an
    ["analysis"] run, recording whether the cheap static score actually
    predicts where the solver spends its time. *)

module R = Harness.R
module P = Harness.P
module S = Harness.S
module An = Sbd_service.Default.An
module Ref = Sbd_service.Default.Ref
module Obs = Sbd_obs.Obs
module J = Obs.Json

type row = {
  id : string;
  suite : string;
  difficulty : float;  (** analyzer's static prediction *)
  expansions : int;  (** solver der-rule applications, fresh session *)
  solve_wall_s : float;
}

type report = {
  patterns : int;
  analyze_wall_s : float;
  patterns_per_s : float;
  errors : int;
  warnings : int;
  infos : int;
  proved_empty : int;
  refuted_empty : int;
  proved_universal : int;
  unknown : int;
  unsound : string list;
      (** analyzer verdicts contradicted by the solver or the reference
          matcher, one line each *)
  replacements : int;  (** SBD203–SBD206 suggestions, each solver-checked *)
  replacement_unknown : int;  (** checks the solver left undecided *)
  proved_rechecked : int;
      (** [Proved] emptiness verdicts the effort solve left undecided,
          solved again at the replacement check's strength *)
  proved_unchecked : int;  (** of those, still undecided *)
  spearman_expansions : float;
  spearman_wall : float;
  rows : row list;
  json : J.t;
}

(* -- Spearman rank correlation -------------------------------------------- *)

(* Ranks with ties averaged (the standard "fractional ranking"), then
   Pearson on the ranks.  Tie handling matters here: hundreds of corpus
   patterns share small difficulty scores and expansion counts. *)
let ranks (xs : float array) : float array =
  let n = Array.length xs in
  let idx = Array.init n (fun i -> i) in
  Array.sort (fun a b -> compare xs.(a) xs.(b)) idx;
  let r = Array.make n 0.0 in
  let i = ref 0 in
  while !i < n do
    let j = ref !i in
    while !j + 1 < n && xs.(idx.(!j + 1)) = xs.(idx.(!i)) do
      incr j
    done;
    (* positions !i..!j (0-based) all tie: average rank, 1-based *)
    let avg = float_of_int (!i + !j + 2) /. 2.0 in
    for k = !i to !j do
      r.(idx.(k)) <- avg
    done;
    i := !j + 1
  done;
  r

let pearson (xs : float array) (ys : float array) : float =
  let n = Array.length xs in
  if n < 2 then 0.0
  else begin
    let mean a = Array.fold_left ( +. ) 0.0 a /. float_of_int n in
    let mx = mean xs and my = mean ys in
    let sxy = ref 0.0 and sxx = ref 0.0 and syy = ref 0.0 in
    for i = 0 to n - 1 do
      let dx = xs.(i) -. mx and dy = ys.(i) -. my in
      sxy := !sxy +. (dx *. dy);
      sxx := !sxx +. (dx *. dx);
      syy := !syy +. (dy *. dy)
    done;
    let d = sqrt (!sxx *. !syy) in
    if d < 1e-12 then 0.0 else !sxy /. d
  end

let spearman (xs : float array) (ys : float array) : float =
  pearson (ranks xs) (ranks ys)

(* -- the run -------------------------------------------------------------- *)

let parse_ok pattern =
  match P.parse pattern with Ok r -> Some r | Error _ -> None

(* Fresh session per pattern: [session.expansions] then measures this
   query alone, not whatever the shared graph already amortized. *)
let solver_effort ~budget ~timeout (r : R.t) : S.result * int * float =
  let session = S.create_session () in
  let t0 = Obs.now () in
  let res = S.solve ~budget ~deadline:timeout session r in
  (res, session.S.expansions, Obs.now () -. t0)

(* The solver's work budget and deadline per pattern, and the analyzer's
   Layer 2 budget ([sbdsolve --lint]'s default). *)
let budget = 50_000
let timeout = 0.5
let analyze_budget = 10_000

(* The strength of every check that must decide, not time: replacement
   equivalence and [Proved] emptiness verdicts the effort solve left
   undecided. *)
let check_solve session r = S.solve ~budget:200_000 ~deadline:2.0 session r

(* A replacement must denote its pattern's language: the symmetric
   difference is unsatisfiable. *)
let check_replacement session (r : R.t) rep =
  match P.parse rep with
  | Error (pos, msg) ->
    `Unsound (Printf.sprintf "does not parse (at %d: %s): %s" pos msg rep)
  | Ok r' -> (
    let sym = R.alt (R.inter r (R.compl r')) (R.inter r' (R.compl r)) in
    match check_solve session sym with
    | S.Sat _ -> `Unsound ("is not equivalent: " ^ rep)
    | S.Unsat -> `Equivalent
    | S.Unknown _ -> `Undecided)

let run () : report =
  Sbd_service.Default.clear ();
  let errors = ref 0 and warnings = ref 0 and infos = ref 0 in
  let proved_empty = ref 0
  and refuted_empty = ref 0
  and proved_universal = ref 0
  and unknown = ref 0
  and unsound = ref []
  and replacements = ref 0
  and replacement_unknown = ref 0
  and proved_rechecked = ref 0
  and proved_unchecked = ref 0 in
  let session = S.create_session () in
  let rows = ref [] in
  let analyze_wall = ref 0.0 in
  let n = ref 0 in
  List.iter
    (fun (inst : Sbd_benchgen.Instance.t) ->
      match parse_ok inst.pattern with
      | None -> ()
      | Some r ->
        incr n;
        let flag what =
          unsound := Printf.sprintf "%s on %s" what inst.id :: !unsound
        in
        let t0 = Obs.now () in
        let rep =
          An.analyze ~source:inst.pattern ~budget:analyze_budget
            ~deadline:(Obs.Deadline.of_seconds 0.25) r
        in
        analyze_wall := !analyze_wall +. (Obs.now () -. t0);
        List.iter
          (fun (f : An.finding) ->
            match f.An.severity with
            | An.Error -> incr errors
            | An.Warning -> incr warnings
            | An.Info -> incr infos)
          rep.An.findings;
        List.iter
          (fun (f : An.finding) ->
            Option.iter
              (fun rep ->
                incr replacements;
                match check_replacement session r rep with
                | `Unsound why -> flag (f.An.rule ^ " replacement " ^ why)
                | `Equivalent -> ()
                | `Undecided -> incr replacement_unknown)
              f.An.replacement)
          rep.An.findings;
        let res, expansions, solve_wall_s =
          solver_effort ~budget ~timeout r
        in
        (match rep.An.semantic with
        | None -> incr unknown
        | Some sem -> (
          (match sem.An.empty with
          | An.Proved ->
            incr proved_empty;
            let res =
              match res with
              | S.Unknown _ ->
                incr proved_rechecked;
                check_solve session r
              | S.Sat _ | S.Unsat -> res
            in
            (match res with
            | S.Sat _ -> flag "proved-empty contradicted by the solver"
            | S.Unsat -> ()
            | S.Unknown _ -> incr proved_unchecked)
          | An.Refuted ->
            incr refuted_empty;
            (match res with
            | S.Unsat -> flag "refuted-empty contradicted by the solver"
            | S.Sat _ | S.Unknown _ -> ());
            (match sem.An.witness with
            | Some w when Ref.matches r w -> ()
            | Some _ | None ->
              flag "refuted-empty witness rejected by the reference matcher")
          | An.Unknown -> incr unknown);
          match sem.An.universal with
          | An.Proved ->
            incr proved_universal;
            if not (Ref.matches r [] && Ref.matches r [ Char.code 'a' ]) then
              flag "proved-universal rejected by the reference matcher on ε or \"a\""
          | An.Refuted | An.Unknown -> ()));
        let difficulty = An.difficulty rep.An.metrics in
        rows :=
          { id = inst.id; suite = inst.suite; difficulty; expansions
          ; solve_wall_s }
          :: !rows)
    (Sbd_benchgen.Standard.all ());
  let rows = List.rev !rows in
  let diff = Array.of_list (List.map (fun r -> r.difficulty) rows) in
  let exp_a =
    Array.of_list (List.map (fun r -> float_of_int r.expansions) rows)
  in
  let wall_a = Array.of_list (List.map (fun r -> r.solve_wall_s) rows) in
  let spearman_expansions = spearman diff exp_a in
  let spearman_wall = spearman diff wall_a in
  let patterns = !n in
  let unsound = List.rev !unsound in
  let analyze_wall_s = !analyze_wall in
  let patterns_per_s =
    float_of_int patterns /. Float.max analyze_wall_s 1e-9
  in
  let json =
    J.Obj
      [
        ("patterns", J.Int patterns);
        ("analyze_wall_s", J.Float analyze_wall_s);
        ("patterns_per_s", J.Float patterns_per_s);
        ("errors", J.Int !errors);
        ("warnings", J.Int !warnings);
        ("infos", J.Int !infos);
        ("proved_empty", J.Int !proved_empty);
        ("refuted_empty", J.Int !refuted_empty);
        ("proved_universal", J.Int !proved_universal);
        ("unknown", J.Int !unknown);
        ("unsound", J.Int (List.length unsound));
        ("replacements", J.Int !replacements);
        ("replacement_unknown", J.Int !replacement_unknown);
        ("proved_rechecked", J.Int !proved_rechecked);
        ("proved_unchecked", J.Int !proved_unchecked);
        ("solver_budget", J.Int budget);
        ("solver_timeout_s", J.Float timeout);
        ("spearman_difficulty_vs_expansions", J.Float spearman_expansions);
        ("spearman_difficulty_vs_wall", J.Float spearman_wall);
      ]
  in
  {
    patterns;
    analyze_wall_s;
    patterns_per_s;
    errors = !errors;
    warnings = !warnings;
    infos = !infos;
    proved_empty = !proved_empty;
    refuted_empty = !refuted_empty;
    proved_universal = !proved_universal;
    unknown = !unknown;
    unsound;
    replacements = !replacements;
    replacement_unknown = !replacement_unknown;
    proved_rechecked = !proved_rechecked;
    proved_unchecked = !proved_unchecked;
    spearman_expansions;
    spearman_wall;
    rows;
    json;
  }

let pp fmt (r : report) =
  Format.fprintf fmt "== static analyzer vs solver, %d corpus patterns ==@."
    r.patterns;
  Format.fprintf fmt "  throughput      %8.0f patterns/s (%.2f s total)@."
    r.patterns_per_s r.analyze_wall_s;
  Format.fprintf fmt "  findings        %d error, %d warning, %d info@."
    r.errors r.warnings r.infos;
  Format.fprintf fmt
    "  verdicts        %d proved-empty, %d refuted-empty, %d universal, %d \
     unknown@."
    r.proved_empty r.refuted_empty r.proved_universal r.unknown;
  Format.fprintf fmt "  replacements    %d solver-checked, %d undecided@."
    r.replacements r.replacement_unknown;
  Format.fprintf fmt
    "  proved-empty    %d rechecked at 200k expansions, %d decided, %d \
     undecided@."
    r.proved_rechecked
    (r.proved_rechecked - r.proved_unchecked)
    r.proved_unchecked;
  Format.fprintf fmt "  unsound         %d%s@." (List.length r.unsound)
    (if r.unsound = [] then "" else "  <-- ANALYZER BUG");
  Format.fprintf fmt
    "  correlation     difficulty vs expansions %.3f, vs wall %.3f \
     (Spearman)@."
    r.spearman_expansions r.spearman_wall

let section =
  {
    Harness.name = "analyze-bench";
    key = "analysis";
    doc = "static-analyzer throughput and predicted-vs-measured difficulty";
    gates = None;
    run =
      (fun () ->
        let r = run () in
        {
          Harness.json = r.json;
          pp = (fun fmt -> pp fmt r);
          fatal = r.unsound;
          failures = [];
        });
  }
