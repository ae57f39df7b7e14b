(** Throughput matrix of the byte-level streaming match engine
    ({!Sbd_engine}) across pattern classes, cross-checked against the
    classic lazy DFA's per-position scan
    ({!Sbd_classic.Brzozowski.Make.Dfa}) and the DP oracle.

    Rows are grouped into four {e pattern classes} that exercise
    different engine paths (DESIGN.md §13):

    - {e literal}: a forced literal drives the required-factor
      prefilter and the accelerated states' skips — sublinear
      substring search, the DFA barely runs;
    - {e class}: character-class patterns where every byte takes the
      flat-table DFA hot path (one table read + one transition per
      byte);
    - {e boolean}: intersection/complement patterns whose product
      states stress the transition table;
    - {e counter}: bounded loops (counting) under boolean connectives.

    Each row reports two rates: [cold_mb_s] — a fresh engine's first
    pass, paying lazy DFA construction — and [hot_mb_s] — best of
    several passes on the warmed engine, the steady-state figure the
    per-class CI floors gate ({!check}).  The classic lazy DFA's
    per-position scan and the DP oracle run on much smaller inputs for
    the speedup and agreement columns; the report is appended to the
    [BENCH_<date>.json] trajectory as an ["engine"] run.

    A separate {e located} class ([located_rows]) runs the located
    engine on a lookahead, a lookbehind, a [^] and a [$] shape, each
    gated against the plain pattern of the same shape and checked
    against the located oracle on short inputs. *)

module R = Harness.R
module P = Harness.P
module Obs = Sbd_obs.Obs
module J = Obs.Json
module Eng = Sbd_service.Default.Eng
module Brz = Sbd_classic.Brzozowski.Make (R)
module Ref = Sbd_service.Default.Ref
module LP = Sbd_service.Default.LP
module LM = Sbd_service.Default.LM
module LRef = Sbd_service.Default.LRef

(* -- corpora -------------------------------------------------------------- *)

(* Filler text deliberately avoids digits, 'a', 'b' and 'n': no pattern
   below matches anywhere in it, which keeps every timed pass an honest
   full scan (and is the worst case for the per-position scan: every
   start position is re-scanned to the end of the input).  The scramble
   also never emits two adjacent [c-h] letters, so the class-heavy
   counter pattern stays unmatched too.  Deterministic, so runs are
   comparable. *)
let filler n =
  let chars = "cdefgh qrstuv wxyz CDEFGH." in
  let m = String.length chars in
  String.init n (fun i -> chars.[(i * 7 + (i / m)) mod m])

(* Same filler with a short matching fragment planted past the middle:
   every pattern below finds a span here, exercising the backward +
   forward pass pair (not just the all-dead fast path). *)
let planted n =
  let plant = " needle cdefghcd ab2026-Jan-15 " in
  let half = (n - String.length plant) / 2 in
  filler half ^ plant ^ filler (n - half - String.length plant)

(* -- patterns ------------------------------------------------------------- *)

type pattern_class = Literal | Class_heavy | Boolean | Counter

let class_name = function
  | Literal -> "literal"
  | Class_heavy -> "class"
  | Boolean -> "boolean"
  | Counter -> "counter"

(* Steady-state MB/s floor per class, gated by {!check}.  Deliberately
   far below locally measured rates (see DESIGN.md §13 for the
   measured matrix): shared CI runners are several times slower than a
   quiet machine, and the gate exists to catch order-of-magnitude
   regressions (a lost prefilter, a de-flattened table), not 20%
   noise. *)
let floor_mb_s = function
  | Literal -> 300.0
  | Class_heavy -> 50.0
  | Boolean -> 50.0
  | Counter -> 50.0

(* Search variants of the handwritten families (DESIGN.md §8) plus two
   direct class probes.  [live] marks patterns whose derivative stays
   alive at every position (leading [.*] / complement): on those the
   per-position scan re-reads the rest of the input from every start —
   quadratic — and the ≥10× speedup acceptance bar applies.  The other
   patterns die within a few bytes of a bad start, so the scan is
   linear there and the speedup column is informational. *)
let patterns =
  [
    ("needle", "needle", Literal, false);
    ("dotstar-needle", ".*needle.*", Literal, true);
    ("word", "[c-h]{8}", Class_heavy, false);
    ("date", "\\d{4}-[a-zA-Z]{3}-\\d{2}", Class_heavy, false);
    ("date-or-word", "\\d{4}-[a-zA-Z]{3}-\\d{2}|[c-h]{8}", Class_heavy, false);
    ("password", ".*\\d.*&~(.*01.*)", Boolean, true);
    ("blowup", "(.*a.{6})&(.*b.{6})", Boolean, true);
    ("loops", ".*c{7}.*&~(.*01.*)", Counter, true);
  ]

let parse_exn pattern =
  match P.parse pattern with
  | Ok r -> r
  | Error (pos, msg) ->
    failwith (Printf.sprintf "engine_bench: parse %S: %d: %s" pattern pos msg)

(* -- timing --------------------------------------------------------------- *)

let mb = 1_048_576.0

let time_once ~bytes (f : unit -> unit) : float =
  let t0 = Obs.now () in
  f ();
  let dt = Obs.now () -. t0 in
  float_of_int bytes /. mb /. Float.max dt 1e-9

(* Best of [reps] runs; MB/s over the bytes actually scanned. *)
let time_mb_s ~reps ~bytes (f : unit -> unit) : float =
  let best = ref infinity in
  for _ = 1 to reps do
    let t0 = Obs.now () in
    f ();
    let dt = Obs.now () -. t0 in
    if dt < !best then best := dt
  done;
  float_of_int bytes /. mb /. Float.max !best 1e-9

type row = {
  label : string;
  pattern : string;
  klass : pattern_class;
  live : bool;  (** scan is quadratic here; the ≥10× bar applies *)
  cold_mb_s : float;  (** fresh engine: first pass pays DFA construction *)
  hot_mb_s : float;  (** steady state: best warm pass; the gated figure *)
  contains_mb_s : float;
  scan_mb_s : float;
  refmatch_mb_s : float;
  speedup : float;  (** engine hot find vs per-position scan, MB/s ratio *)
  span : (int * int) option;  (** engine span on the planted corpus *)
  agree : bool;
  states : int;
  resets : int;
  accel_bytes : int;  (** exit bytes of the unanchored start state; 0 = no skip *)
  factor_len : int;  (** required-factor prefilter length; 0 = off *)
}

let bench_pattern ~big ~small ~planted_mid ~tiny (label, pattern, klass, live) :
    row =
  let r = parse_exn pattern in
  (* cold: a fresh engine's very first unanchored pass over the big
     input, lazy DFA materialization and all *)
  let eng = Eng.create ~mode:Sbd_engine.Byteclass.Byte r in
  let cold_mb_s =
    time_once ~bytes:(String.length big) (fun () ->
        ignore (Eng.find eng big : (int * int) option))
  in
  (* hot: the same engine, tables warm.  Nothing matches in the filler,
     so every pass is an honest full scan (anchored full-match would
     early-exit on a dead state within a few bytes and report a
     meaningless rate). *)
  let hot_mb_s =
    time_mb_s ~reps:5 ~bytes:(String.length big) (fun () ->
        ignore (Eng.find eng big : (int * int) option))
  in
  let contains_mb_s =
    time_mb_s ~reps:3 ~bytes:(String.length big) (fun () ->
        ignore (Eng.contains eng big : int option))
  in
  (* the classic lazy DFA's per-position scan: quadratic on live
     patterns, so the input is three orders of magnitude smaller *)
  let m = Brz.Dfa.create r in
  let scan_mb_s =
    time_mb_s ~reps:1 ~bytes:(String.length small) (fun () ->
        ignore (Brz.Dfa.find_scan m small : (int * int) option))
  in
  (* DP oracle: full match only, tiny input *)
  let refmatch_mb_s =
    time_mb_s ~reps:1 ~bytes:(String.length tiny) (fun () ->
        ignore (Ref.matches_string r tiny : bool))
  in
  (* span agreement: engine vs scan on a no-match and a planted corpus *)
  let agree_on s = Eng.find eng s = Brz.Dfa.find_scan m s in
  let agree =
    agree_on small && agree_on planted_mid
    && Eng.count_matching_prefixes eng small
       = Brz.Dfa.count_matching_prefixes_scan m small
  in
  let span = Eng.find eng planted_mid in
  let st = Eng.stats eng in
  {
    label;
    pattern;
    klass;
    live;
    cold_mb_s;
    hot_mb_s;
    contains_mb_s;
    scan_mb_s;
    refmatch_mb_s;
    speedup = hot_mb_s /. Float.max scan_mb_s 1e-9;
    span;
    agree;
    states = st.Eng.fwd_states + st.Eng.unanch_states + st.Eng.back_states;
    resets = st.Eng.resets;
    accel_bytes = st.Eng.accel_bytes;
    factor_len = st.Eng.factor_len;
  }

(* -- located rows ---------------------------------------------------------- *)

(* The located engine ({!Sbd_engine.Locmatch}) on one shape per kind of
   zero-width atom, each against the plain pattern of the same shape
   with the atom made consuming (or dropped): the median over the
   interleaved passes of the located rate over its plain partner's is
   gated at [located_ratio_floor].  A pass pair shares its machine's
   spell, so its ratio is steadier than one of two best rates taken in
   different spells.
   The shapes are class-heavy on purpose: a literal would let the plain
   engine's prefilter skip the input, and the ratio would then measure
   the prefilter, not the walk. *)
let located_patterns =
  [
    ("lookahead", "[a-zA-Z]{3}(?=[-/]\\d{2})", "[a-zA-Z]{3}[-/]\\d{2}");
    ("lookbehind", "(?<=\\d{4}[-/])[a-zA-Z]{3}", "\\d{4}[-/][a-zA-Z]{3}");
    ("begin", "(^|[^a-z])[c-h]{8}", "[^a-z][c-h]{8}");
    ("end", "[c-h]{8}([^a-z]|$)", "[c-h]{8}[^a-z]");
  ]

let located_ratio_floor = 0.25

type located_row = {
  llabel : string;
  lpattern : string;
  plain : string;
  lhot_mb_s : float;  (** located run, warm tables: the best pass *)
  plain_hot_mb_s : float;  (** the plain partner's, likewise *)
  lratio : float;
      (** the gated figure: the median over the interleaved pass pairs
          of the located rate over the plain one *)
  found_end : int option;  (** located earliest end on the planted corpus *)
  lagree : bool;  (** located engine vs {!Sbd_locregex.Locref} *)
}

let bench_located ~big ~planted_mid ~shorts (llabel, lpattern, plain) :
    located_row =
  let t =
    match LP.parse lpattern with
    | Ok t -> t
    | Error (pos, msg) ->
      failwith
        (Printf.sprintf "engine_bench: parse %S: %d: %s" lpattern pos msg)
  in
  let leng = LM.create ~mode:Sbd_engine.Byteclass.Byte t in
  let run s = LM.run leng s in
  let eng = Eng.create ~mode:Sbd_engine.Byteclass.Byte (parse_exn plain) in
  ignore (run big : LM.result);
  ignore (Eng.find eng big : (int * int) option);
  (* the two engines take turns, so a slow spell of a shared machine
     hits both sides of a pass pair's ratio alike *)
  let bytes = String.length big in
  let pairs =
    Array.init 15 (fun _ ->
        let l = time_mb_s ~reps:1 ~bytes (fun () -> ignore (run big : LM.result)) in
        let p =
          time_mb_s ~reps:1 ~bytes (fun () -> ignore (Eng.find eng big : (int * int) option))
        in
        (l, p))
  in
  let best f = Array.fold_left (fun acc x -> Float.max acc (f x)) 0.0 pairs in
  let lhot_mb_s = best fst and plain_hot_mb_s = best snd in
  let ratios = Array.map (fun (l, p) -> l /. Float.max p 1e-9) pairs in
  Array.sort compare ratios;
  let lratio = ratios.(Array.length ratios / 2) in
  (* Byte mode: byte offsets are scalar indices *)
  let agree_on s =
    let o = LRef.make t (Array.init (String.length s) (fun i -> Char.code s.[i])) in
    let r = run s in
    r.LM.full = LRef.full o && r.LM.found_end = LRef.earliest_end o
  in
  {
    llabel;
    lpattern;
    plain;
    lhot_mb_s;
    plain_hot_mb_s;
    lratio;
    found_end = (run planted_mid).LM.found_end;
    lagree = List.for_all agree_on shorts;
  }

let json_of_located (r : located_row) : J.t =
  J.Obj
    [
      ("label", J.Str r.llabel);
      ("pattern", J.Str r.lpattern);
      ("plain_pattern", J.Str r.plain);
      ("hot_mb_s", J.Float r.lhot_mb_s);
      ("plain_hot_mb_s", J.Float r.plain_hot_mb_s);
      ("ratio", J.Float r.lratio);
      ( "planted_found_end",
        match r.found_end with Some j -> J.Int j | None -> J.Null );
      ("agree", J.Bool r.lagree);
    ]

let json_of_row (r : row) : J.t =
  J.Obj
    [
      ("label", J.Str r.label);
      ("pattern", J.Str r.pattern);
      ("class", J.Str (class_name r.klass));
      ("scan_quadratic", J.Bool r.live);
      ("cold_mb_s", J.Float r.cold_mb_s);
      ("hot_mb_s", J.Float r.hot_mb_s);
      ("engine_contains_mb_s", J.Float r.contains_mb_s);
      ("matcher_scan_mb_s", J.Float r.scan_mb_s);
      ("refmatch_mb_s", J.Float r.refmatch_mb_s);
      ("speedup_vs_scan", J.Float r.speedup);
      ( "planted_span",
        match r.span with
        | Some (i, j) -> J.Arr [ J.Int i; J.Int j ]
        | None -> J.Null );
      ("agree", J.Bool r.agree);
      ("dfa_states", J.Int r.states);
      ("dfa_resets", J.Int r.resets);
      ("accel_bytes", J.Int r.accel_bytes);
      ("factor_len", J.Int r.factor_len);
    ]

type report = {
  rows : row list;
  located : located_row list;
  json : J.t;
  min_speedup : float;
  all_agree : bool;
}

(* Worst (minimum) steady-state rate per pattern class, over the rows
   present; the gated matrix. *)
let class_matrix (rows : row list) : (pattern_class * float) list =
  List.filter_map
    (fun k ->
      match List.filter (fun r -> r.klass = k) rows with
      | [] -> None
      | rs ->
        Some
          (k, List.fold_left (fun acc r -> Float.min acc r.hot_mb_s) infinity rs))
    [ Literal; Class_heavy; Boolean; Counter ]

(* Input sizes: the engine's, the per-position scan's (quadratic on live
   patterns) and the DP oracle's. *)
let engine_bytes = 1 lsl 20
let scan_bytes = 8_192
let ref_bytes = 160

let run () : report =
  let big = filler engine_bytes in
  let small = filler scan_bytes in
  let planted_mid = planted scan_bytes in
  let tiny = filler ref_bytes in
  let rows = List.map (bench_pattern ~big ~small ~planted_mid ~tiny) patterns in
  (* the oracle splits every span: short inputs only *)
  let shorts =
    [ ""; tiny; String.sub (planted 96) 24 48; "2026-Jan-15"; "x2026-Jan-15";
      "cdefghcd"; " cdefghcd."; "Jan-15" ]
  in
  let located =
    List.map (bench_located ~big ~planted_mid ~shorts) located_patterns
  in
  (* the acceptance bar is over the scan-quadratic patterns *)
  let min_speedup =
    List.fold_left
      (fun acc r -> if r.live then Float.min acc r.speedup else acc)
      infinity rows
  in
  let all_agree = List.for_all (fun r -> r.agree) rows in
  let json =
    J.Obj
      [
        ("engine_input_bytes", J.Int engine_bytes);
        ("scan_input_bytes", J.Int scan_bytes);
        ("refmatch_input_bytes", J.Int ref_bytes);
        ("rows", J.Arr (List.map json_of_row rows));
        ( "class_hot_mb_s",
          J.Obj
            (List.map
               (fun (k, v) -> (class_name k, J.Float v))
               (class_matrix rows)) );
        ("min_speedup_vs_scan", J.Float min_speedup);
        ("all_spans_agree", J.Bool all_agree);
        ("located_rows", J.Arr (List.map json_of_located located));
      ]
  in
  { rows; located; json; min_speedup; all_agree }

(** Gate the per-class steady-state floors: one message per pattern
    class whose worst [hot_mb_s] is below {!floor_mb_s}, plus one per
    span disagreement.  Empty list = pass. *)
let check (r : report) : string list =
  let floor_failures =
    List.filter_map
      (fun (k, v) ->
        let fl = floor_mb_s k in
        if v < fl then
          Some
            (Printf.sprintf "%s class hot rate %.1f MB/s below the %.0f floor"
               (class_name k) v fl)
        else None)
      (class_matrix r.rows)
  in
  let agree_failures =
    List.filter_map
      (fun row ->
        if row.agree then None
        else Some (Printf.sprintf "%s: engine and scan spans disagree" row.label))
      r.rows
  in
  let located_failures =
    List.concat_map
      (fun l ->
        (if l.lratio < located_ratio_floor then
           [
             Printf.sprintf
               "located %s: median rate %.2f of its plain partner's, below \
                %.2f (best passes %.1f and %.1f MB/s)"
               l.llabel l.lratio located_ratio_floor l.lhot_mb_s l.plain_hot_mb_s;
           ]
         else [])
        @
        if l.lagree then []
        else [ Printf.sprintf "located %s: engine and oracle disagree" l.llabel ])
      r.located
  in
  floor_failures @ agree_failures @ located_failures

let pp fmt (r : report) =
  Format.fprintf fmt
    "== engine throughput matrix vs per-position scan (MB/s) ==@.";
  Format.fprintf fmt "  %-15s %-8s %9s %9s %9s %10s %9s@." "pattern" "class"
    "cold" "hot" "contains" "scan" "speedup";
  List.iter
    (fun (row : row) ->
      Format.fprintf fmt "  %-15s %-8s %9.1f %9.1f %9.1f %10.5f %8.0fx%s%s@."
        row.label (class_name row.klass) row.cold_mb_s row.hot_mb_s
        row.contains_mb_s row.scan_mb_s row.speedup
        (if row.live then "" else "  (scan linear here)")
        (if row.agree then "" else "  SPAN MISMATCH"))
    r.rows;
  List.iter
    (fun (k, v) ->
      Format.fprintf fmt "  class %-8s worst hot %9.1f MB/s (floor %.0f)@."
        (class_name k) v (floor_mb_s k))
    (class_matrix r.rows);
  Format.fprintf fmt "  min speedup %.0fx on scan-quadratic patterns, spans %s@."
    r.min_speedup
    (if r.all_agree then "agree" else "DISAGREE");
  Format.fprintf fmt "  %-15s %-26s %9s %9s %7s@." "located" "pattern" "hot"
    "plain" "ratio";
  List.iter
    (fun l ->
      Format.fprintf fmt "  %-15s %-26s %9.1f %9.1f %7.2f%s@." l.llabel
        l.lpattern l.lhot_mb_s l.plain_hot_mb_s l.lratio
        (if l.lagree then "" else "  ORACLE MISMATCH"))
    r.located

let section =
  {
    Harness.name = "engine-bench";
    key = "engine";
    doc = "match-engine throughput matrix vs the per-position scan and the DP oracle";
    gates =
      Some
        "the per-pattern-class steady-state MB/s floors (literal / class / \
         boolean / counter), the located-vs-plain rate ratio floor and span \
         agreement with the scan and the oracle";
    run =
      (fun () ->
        let r = run () in
        {
          Harness.json = r.json;
          pp = (fun fmt -> pp fmt r);
          fatal =
            (if r.all_agree then []
             else [ "engine and per-position scan spans disagree" ]);
          failures = check r;
        });
  }
