(** Containment benchmark phase: throughput and agreement of the
    dedicated coinductive prover ([Sbd_contain]) over the pair corpus
    ([Sbd_benchgen.Pairs] — textbook inclusions, counter nestings,
    Boolean-heavy pairs, realistic regexlib cross pairs).

    Beyond raw throughput (pairs decided per second under the default
    expansion budget), the phase is a soundness sweep:

    - every verdict is {b cross-checked} against the complement-based
      reduction — [subset l r] iff [is_empty (l & ~r)], [equiv] via the
      symmetric difference — wherever the reduction finishes in budget;
      a single disagreement fails the run (and CI);
    - every [Refuted] witness is replayed through the independent
      reference matcher ([Sbd_classic.Refmatch]): it must be accepted on
      the left and rejected on the right (XOR for [equiv]);
    - pairs with a ground-truth label must come out as labeled.

    [check] enforces the pinned gates (decided%%, pairs/s floor, zero
    disagreements / invalid witnesses / label mismatches); the report is
    appended to the trajectory file as a ["contain"] run. *)

module R = Harness.R
module P = Harness.P
module S = Harness.S
module C = Sbd_service.Default.C
module Ref = Sbd_service.Default.Ref
module Obs = Sbd_obs.Obs
module J = Obs.Json
module Pairs = Sbd_benchgen.Pairs

(* Pinned regression gates (bin/ci.sh gates on these via [check]).  The
   throughput floor is deliberately conservative — the seed machine
   decides the whole corpus in well under a second. *)
let decided_floor_pct = 95.0
let pairs_per_s_floor = 20.0

(* Deterministic work budgets (no wall deadline), so runs and verdicts
   are machine-independent. *)
let budget = C.default_budget
let reduction_budget = 50_000

(* The variant label recorded in every run. *)
let label = "contain"

type row = {
  family : string;
  pairs : int;
  proved : int;
  refuted : int;
  unknown : int;
  wall_s : float;
  pairs_per_s : float;
}

type report = {
  rows : row list;
  total : int;
  decided : int;
  decided_pct : float;
  pairs_per_s : float;  (** whole-corpus throughput *)
  disagreements : int;  (** prover vs [l & ~r] reduction, both decided *)
  reduction_undecided : int;  (** reduction ran out of budget *)
  invalid_witnesses : int;
  label_mismatches : int;
  memo_entries : int;
  json : J.t;
}

(* The reduction regex whose emptiness is equivalent to the pair:
   [l & ~r] for subset, the symmetric difference for equiv. *)
let reduction_regex (mode : Pairs.mode) (l : R.t) (r : R.t) : R.t =
  match mode with
  | Pairs.Subset -> R.inter l (R.compl r)
  | Pairs.Equiv ->
    R.alt (R.inter l (R.compl r)) (R.inter r (R.compl l))

let witness_ok (mode : Pairs.mode) (l : R.t) (r : R.t) (w : int list) : bool =
  let in_l = Ref.matches l w and in_r = Ref.matches r w in
  match mode with
  | Pairs.Subset -> in_l && not in_r
  | Pairs.Equiv -> in_l <> in_r

let run () : report =
  let corpus = Pairs.all () in
  let session = C.create_session () in
  let ssession = S.create_session () in
  let disagreements = ref 0 in
  let reduction_undecided = ref 0 in
  let invalid_witnesses = ref 0 in
  let label_mismatches = ref 0 in
  let families = ref [] in
  let family_rows : (string, row) Hashtbl.t = Hashtbl.create 8 in
  let record family verdict wall =
    if not (Hashtbl.mem family_rows family) then begin
      families := family :: !families;
      Hashtbl.add family_rows family
        { family; pairs = 0; proved = 0; refuted = 0; unknown = 0;
          wall_s = 0.0; pairs_per_s = 0.0 }
    end;
    let row = Hashtbl.find family_rows family in
    let dp, dr, du =
      match verdict with
      | C.Proved -> (1, 0, 0)
      | C.Refuted _ -> (0, 1, 0)
      | C.Unknown _ -> (0, 0, 1)
    in
    let row =
      { row with
        pairs = row.pairs + 1;
        wall_s = row.wall_s +. wall;
        proved = row.proved + dp;
        refuted = row.refuted + dr;
        unknown = row.unknown + du;
      }
    in
    Hashtbl.replace family_rows family row
  in
  List.iter
    (fun (p : Pairs.t) ->
      match (P.parse p.Pairs.left, P.parse p.Pairs.right) with
      | Error _, _ | _, Error _ -> ()
      | Ok l, Ok r ->
        let t0 = Obs.now () in
        let verdict =
          match p.Pairs.mode with
          | Pairs.Subset -> C.subset session ~budget l r
          | Pairs.Equiv -> C.equiv session ~budget l r
        in
        let wall = Obs.now () -. t0 in
        record p.Pairs.family verdict wall;
        (* witness validity *)
        (match verdict with
        | C.Refuted w ->
          if not (witness_ok p.Pairs.mode l r w) then incr invalid_witnesses
        | C.Proved | C.Unknown _ -> ());
        (* ground-truth labels *)
        (match (verdict, p.Pairs.expected) with
        | C.Proved, Pairs.Fails | C.Refuted _, Pairs.Holds ->
          incr label_mismatches
        | (C.Proved | C.Refuted _), (Pairs.Holds | Pairs.Fails | Pairs.Unlabeled)
        | C.Unknown _, (Pairs.Holds | Pairs.Fails | Pairs.Unlabeled) -> ());
        (* reduction cross-check, wherever the reduction decides *)
        (match verdict with
        | C.Unknown _ -> ()
        | C.Proved | C.Refuted _ -> (
          match
            S.solve ~budget:reduction_budget ssession
              (reduction_regex p.Pairs.mode l r)
          with
          | S.Unknown _ -> incr reduction_undecided
          | S.Sat _ ->
            (match[@warning "-4"] verdict with
            | C.Proved -> incr disagreements
            | _ -> ())
          | S.Unsat -> (
            match[@warning "-4"] verdict with
            | C.Refuted _ -> incr disagreements
            | _ -> ()))))
    corpus;
  let rows =
    List.rev_map
      (fun family ->
        let row = Hashtbl.find family_rows family in
        { row with
          pairs_per_s =
            float_of_int row.pairs /. Float.max row.wall_s 1e-9 })
      !families
  in
  let total = List.fold_left (fun acc r -> acc + r.pairs) 0 rows in
  let decided =
    List.fold_left (fun acc r -> acc + r.proved + r.refuted) 0 rows
  in
  let wall = List.fold_left (fun acc r -> acc +. r.wall_s) 0.0 rows in
  let decided_pct = 100.0 *. float_of_int decided /. float_of_int (max total 1) in
  let pairs_per_s = float_of_int total /. Float.max wall 1e-9 in
  let memo_entries = C.memo_entries session in
  let json_of_row (r : row) =
    J.Obj
      [
        ("family", J.Str r.family);
        ("pairs", J.Int r.pairs);
        ("proved", J.Int r.proved);
        ("refuted", J.Int r.refuted);
        ("unknown", J.Int r.unknown);
        ("wall_s", J.Float r.wall_s);
        ("pairs_per_s", J.Float r.pairs_per_s);
      ]
  in
  let json =
    J.Obj
      [
        ("label", J.Str label);
        ("budget", J.Int budget);
        ("reduction_budget", J.Int reduction_budget);
        ("rows", J.Arr (List.map json_of_row rows));
        ("total_pairs", J.Int total);
        ("decided", J.Int decided);
        ("decided_pct", J.Float decided_pct);
        ("pairs_per_s", J.Float pairs_per_s);
        ("disagreements", J.Int !disagreements);
        ("reduction_undecided", J.Int !reduction_undecided);
        ("invalid_witnesses", J.Int !invalid_witnesses);
        ("label_mismatches", J.Int !label_mismatches);
        ("memo_entries", J.Int memo_entries);
      ]
  in
  {
    rows;
    total;
    decided;
    decided_pct;
    pairs_per_s;
    disagreements = !disagreements;
    reduction_undecided = !reduction_undecided;
    invalid_witnesses = !invalid_witnesses;
    label_mismatches = !label_mismatches;
    memo_entries;
    json;
  }

(** Regression gates for CI.  Returns the violated gates (empty = pass). *)
let check (r : report) : string list =
  let fails = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> fails := s :: !fails) fmt in
  if r.decided_pct < decided_floor_pct then
    fail "decided %.2f%% below floor %.2f%%" r.decided_pct decided_floor_pct;
  if r.pairs_per_s < pairs_per_s_floor then
    fail "throughput %.1f pairs/s below floor %.1f" r.pairs_per_s
      pairs_per_s_floor;
  if r.disagreements > 0 then
    fail "%d disagreement(s) with the l & ~r reduction" r.disagreements;
  if r.invalid_witnesses > 0 then
    fail "%d invalid witness(es)" r.invalid_witnesses;
  if r.label_mismatches > 0 then
    fail "%d ground-truth label mismatch(es)" r.label_mismatches;
  List.rev !fails

let pp fmt (r : report) =
  Format.fprintf fmt "== containment benchmark (%s) ==@." label;
  Format.fprintf fmt "  %-10s %6s %7s %8s %8s %10s@." "family" "pairs"
    "proved" "refuted" "unknown" "pairs/s";
  List.iter
    (fun row ->
      Format.fprintf fmt "  %-10s %6d %7d %8d %8d %10.0f@." row.family
        row.pairs row.proved row.refuted row.unknown row.pairs_per_s)
    r.rows;
  Format.fprintf fmt
    "  decided %d/%d (%.1f%%), %.0f pairs/s, %d disagreements, %d invalid \
     witnesses, %d label mismatches, %d reduction-undecided, %d memo entries@."
    r.decided r.total r.decided_pct r.pairs_per_s r.disagreements
    r.invalid_witnesses r.label_mismatches r.reduction_undecided r.memo_entries

let section =
  {
    Harness.name = "contain-bench";
    key = "contain";
    doc =
      "containment prover throughput, witness validity and agreement with \
       the emptiness reduction on the pair corpus";
    gates =
      Some
        "the pinned gates (decided%, pairs/s floor, zero disagreements / \
         invalid witnesses)";
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
