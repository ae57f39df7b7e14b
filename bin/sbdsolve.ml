(* sbdsolve: a standalone solver binary backed by the
   symbolic-Boolean-derivative decision procedure.

   Two input modes:
   - SMT-LIB QF_S script (`sbdsolve file.smt2`, or "-" for stdin), in
     the style of `z3 file.smt2`: prints sat/unsat/unknown answers plus
     models on get-model;
   - a single ERE pattern (`sbdsolve 'a{2,3}&~(.*b)'`): decides
     satisfiability of the pattern and prints the result with a witness.
     Selected automatically when the argument is not an existing file;
     forced with --re.

   A third mode matches instead of solving: `sbdsolve --match PATTERN
   --input TEXT` (or --input-file FILE, or stdin) runs the byte-level
   match engine over the UTF-8 input and reports the
   full-match verdict and the leftmost-earliest match span.

   Containment modes: `sbdsolve --subset R S` decides L(R) ⊆ L(S) with
   the coinductive pair prover of lib/contain (no complement
   construction); `--equiv R S` decides language equality.  A refutation
   comes with a distinguishing word (printed with --witness or --json).

   Exit codes, uniform across modes: 0 for a decided answer
   (sat/unsat/proved/refuted, match/no-match), 2 for usage and parse
   errors, 3 for unknown (budget or deadline exhausted) — so scripts
   and CI gates can tell timeouts apart from verdicts.  --lint --corpus
   keeps exit 1 for unsoundness findings.

   Observability: --stats prints the counter/timer snapshot of the run
   (machine-readable names, see DESIGN.md); --json switches the whole
   output to one JSON document; --deadline bounds each query by wall
   clock (seconds), enforced inside the derivative/DNF machinery. *)

module P = Sbd_service.Default.P
module S = Sbd_service.Default.S
module E = Sbd_service.Default.E
module Ref = Sbd_service.Default.Ref
module C = Sbd_service.Default.C
module R = Sbd_service.Default.R
module L = Sbd_service.Default.LR
module LP = Sbd_service.Default.LP
module LM = Sbd_service.Default.LM
module LA = Sbd_service.Default.LA
module Eng = Sbd_service.Default.Eng
module An = Sbd_service.Default.An
module Ab = Sbd_service.Default.Ab
module Obs = Sbd_obs.Obs

let read_all ic =
  let buf = Buffer.create 4096 in
  (try
     while true do
       Buffer.add_channel buf ic 4096
     done
   with End_of_file -> ());
  Buffer.contents buf

let json_of_stats (stats : (string * float) list) : Obs.Json.t =
  Obs.Json.Obj
    (List.map
       (fun (name, v) ->
         ( name,
           if Float.is_integer v && Float.abs v < 1e15 then
             Obs.Json.Int (int_of_float v)
           else Obs.Json.Float v ))
       stats)

(* Counters with observed activity; silent ones only add noise. *)
let active_counters () = List.filter (fun (_, v) -> v <> 0.0) (Obs.snapshot ())

let print_stats_text stats =
  List.iter (fun (name, v) -> Printf.eprintf "%-32s %.6g\n" name v) stats

(* -- single-pattern mode ------------------------------------------------- *)

let solve_regex ~budget ~deadline ~stats ~json pattern r =
    let session = S.create_session () in
    let t0 = Obs.now () in
    let result = S.solve ~budget ?deadline session r in
    let wall = Obs.now () -. t0 in
    let all_stats =
      S.session_stats session @ active_counters ()
      @ [ ("query.wall_time_s", wall) ]
    in
    if json then begin
      let base =
        match result with
        | S.Sat w ->
          [
            ("result", Obs.Json.Str "sat");
            ("witness", Obs.Json.Str (S.string_of_witness w));
          ]
        | S.Unsat -> [ ("result", Obs.Json.Str "unsat") ]
        | S.Unknown why ->
          [
            ("result", Obs.Json.Str "unknown"); ("reason", Obs.Json.Str why);
          ]
      in
      let doc =
        base
        @ [ ("pattern", Obs.Json.Str pattern); ("wall_s", Obs.Json.Float wall) ]
        @ if stats then [ ("stats", json_of_stats all_stats) ] else []
      in
      print_endline (Obs.Json.to_string (Obs.Json.Obj doc))
    end
    else begin
      Format.printf "%a@." S.pp_result result;
      if stats then print_stats_text all_stats
    end;
    (match result with S.Sat _ | S.Unsat -> 0 | S.Unknown _ -> 3)

let print_parse_error ~json pos msg =
  if json then
    print_endline
      (Obs.Json.to_string
         (Obs.Json.Obj
            [
              ("result", Obs.Json.Str "error");
              ( "error",
                Obs.Json.Str (Printf.sprintf "parse error at %d: %s" pos msg)
              );
            ]))
  else Printf.printf "(error \"parse error at %d: %s\")\n" pos msg;
  2

let print_unknown ~json ~pattern reason =
  if json then
    print_endline
      (Obs.Json.to_string
         (Obs.Json.Obj
            [
              ("result", Obs.Json.Str "unknown");
              ("reason", Obs.Json.Str reason);
              ("pattern", Obs.Json.Str pattern);
            ]))
  else Printf.printf "unknown (%s)\n" reason;
  3

(* The plain grammar is primary (its corpora treat '^'/'$' as literal
   characters); when it rejects, retry with the extended located
   grammar.  Anchor-only patterns are lowered to plain regexes
   (Locregex.lower) and solved; lookaround obligations are outside the
   solver's universe and answer unknown (exit 3). *)
let run_pattern ~budget ~deadline ~stats ~json pattern =
  match P.parse pattern with
  | Ok r -> solve_regex ~budget ~deadline ~stats ~json pattern r
  | Error (pos, msg) -> (
    match LP.parse pattern with
    | Error _ ->
      (* report the plain parser's error: extended syntax that fails
         both grammars is noise here *)
      print_parse_error ~json pos msg
    | Ok t when not (L.zero_width t) -> print_parse_error ~json pos msg
    | Ok t -> (
      match L.lower t with
      | Some r -> solve_regex ~budget ~deadline ~stats ~json pattern r
      | None ->
        print_unknown ~json ~pattern
          "lookaround obligations are not supported by the solver"))

(* -- lint mode ----------------------------------------------------------- *)

(* The solver --budget (der-rule applications, default 1M) is
   reinterpreted at analyzer scale: analysis is a pre-pass, so Layer 2
   gets 1% of a solve budget (default 10k state expansions). *)
let lint_budget budget = max 64 (min (budget / 100) 100_000)

(* Lint accepts the extended grammar: plain patterns go through the
   full two-layer analyzer; located ones through the structural
   located analyzer (degenerate lookarounds, dead anchors, fragment).

   Exit codes follow the uniform 0/2/3 contract of the other modes:
   0 when the analyzer reached a decided semantic emptiness verdict
   (Proved/Refuted, including SBD304's whole-pattern emptiness theorem
   on located patterns), 2 on parse errors, 3 when the verdict stayed
   unknown (structural findings alone never count as decided). *)
let run_lint ~budget ~deadline ~json pattern =
  match LP.parse pattern with
  | Error (pos, msg) -> print_parse_error ~json pos msg
  | Ok t -> (
    match L.to_plain t with
    | Some r ->
      let dl = Option.map Obs.Deadline.of_seconds deadline in
      let report =
        An.analyze ~source:pattern ~budget:(lint_budget budget) ?deadline:dl r
      in
      if json then
        print_endline (Obs.Json.to_string (An.json_of_report report))
      else begin
        Printf.printf "pattern: %s\n" pattern;
        Format.printf "%a" An.pp_report report
      end;
      (match report.An.semantic with
      | Some { An.empty = An.Proved | An.Refuted; _ } -> 0
      | Some { An.empty = An.Unknown; _ } | None -> 3)
    | None ->
      let report = LA.analyze t in
      if json then
        print_endline (Obs.Json.to_string (LA.json_of_report report))
      else begin
        Printf.printf "pattern: %s\n" pattern;
        Format.printf "%a" LA.pp_report report
      end;
      (* SBD304 is an emptiness theorem about the whole pattern; the
         located analyzer has no other semantic layer *)
      if
        List.exists
          (fun (f : LA.finding) -> f.LA.rule = "SBD304")
          report.LA.findings
      then 0
      else 3)

(* Corpus lint: analyze every instance of a benchgen corpus and
   cross-check each Proved/Refuted verdict against the solver (and,
   for witnesses, the independent reference matcher).  Each instance
   also runs through the abstract pre-solver ({!Sbd_absdom.Absdom}):
   Unsat_proved/Sat_witnessed verdicts are checked against the corpus
   label, the solver, and the reference matcher.  Exit 1 on any
   unsoundness, 2 on a corpus pattern that fails to parse — both are
   CI failures; findings themselves don't affect the exit code. *)
let corpus_instances = function
  | "standard" ->
    Some (Sbd_benchgen.Standard.non_boolean () @ Sbd_benchgen.Standard.boolean ())
  | "handwritten" -> Some (Sbd_benchgen.Standard.handwritten ())
  | "all" -> Some (Sbd_benchgen.Standard.all ())
  | _ -> None

(* The lookaround corpus has match labels rather than solver labels:
   the soundness sweep is engine vs all-splits oracle vs hand labels
   (plus lowered-satisfiability agreement), reusing
   the harness phase.  Same exit contract as the solver corpora: 1 on
   unsoundness, 2 on a corpus pattern that fails to parse. *)
let run_lint_lookaround ~json () =
  let module LB = Sbd_harness.Lookaround_bench in
  let report = LB.run () in
  if json then print_endline (Obs.Json.to_string report.LB.json)
  else Format.printf "%a" LB.pp report;
  match LB.check report with
  | [] -> 0
  | fails ->
    List.iter
      (fun f -> Printf.eprintf "sbdsolve: lookaround gate FAILED: %s\n" f)
      fails;
    if report.LB.parse_failures > 0 then 2 else 1

let run_lint_corpus ~budget ~deadline ~json name =
  if name = "lookaround" then run_lint_lookaround ~json ()
  else
  match corpus_instances name with
  | None ->
    Printf.eprintf
      "sbdsolve: unknown corpus %S (standard|handwritten|lookaround|all)\n"
      name;
    2
  | Some instances ->
    let module I = Sbd_benchgen.Instance in
    let session = S.create_session () in
    let budget = lint_budget budget in
    let dl () =
      Obs.Deadline.of_seconds (Option.value deadline ~default:0.25)
    in
    let n = ref 0
    and errors = ref 0
    and warnings = ref 0
    and infos = ref 0
    and proved_empty = ref 0
    and refuted_empty = ref 0
    and proved_universal = ref 0
    and unknown = ref 0
    and unsound = ref 0
    and replacements = ref 0
    and replacement_unknown = ref 0
    and abs_unsat = ref 0
    and abs_sat = ref 0
    and abs_unknown = ref 0
    and parse_failures = ref 0 in
    let t0 = Obs.now () in
    List.iter
      (fun (inst : I.t) ->
        incr n;
        match P.parse inst.I.pattern with
        | Error (pos, msg) ->
          incr parse_failures;
          Printf.eprintf "sbdsolve: corpus %s: parse error at %d: %s\n"
            inst.I.id pos msg
        | Ok r ->
          (* abstract pre-solver sweep: every verdict the length/char
             abstraction commits to is checked against the ground-truth
             label, the full solver (for unsat claims), and the
             reference matcher (for witnesses) — an unsound abstract
             verdict is a CI failure like an unsound Proved *)
          (match Ab.presolve r with
          | Ab.Unknown -> incr abs_unknown
          | Ab.Unsat_proved -> (
            incr abs_unsat;
            if inst.I.expected = I.Sat then begin
              incr unsound;
              Printf.eprintf
                "sbdsolve: UNSOUND abstract unsat on sat-labeled %s: %s\n"
                inst.I.id inst.I.pattern
            end
            else
              match S.solve ~budget:200_000 ~deadline:2.0 session r with
              | S.Sat _ ->
                incr unsound;
                Printf.eprintf
                  "sbdsolve: UNSOUND abstract unsat on %s: solver found \
                   a witness: %s\n"
                  inst.I.id inst.I.pattern
              | S.Unsat | S.Unknown _ -> ())
          | Ab.Sat_witnessed w ->
            incr abs_sat;
            let word =
              List.init (String.length w) (fun i -> Char.code w.[i])
            in
            if inst.I.expected = I.Unsat then begin
              incr unsound;
              Printf.eprintf
                "sbdsolve: UNSOUND abstract sat on unsat-labeled %s: %s\n"
                inst.I.id inst.I.pattern
            end;
            if not (Ref.matches r word) then begin
              incr unsound;
              Printf.eprintf
                "sbdsolve: UNSOUND abstract witness on %s rejected by \
                 the reference matcher: %s\n"
                inst.I.id inst.I.pattern
            end);
          let report =
            An.analyze ~source:inst.I.pattern ~budget ~deadline:(dl ()) r
          in
          List.iter
            (fun (f : An.finding) ->
              match f.An.severity with
              | An.Error -> incr errors
              | An.Warning -> incr warnings
              | An.Info -> incr infos)
            report.An.findings;
          (* replacement suggestions (SBD203–SBD206) must preserve the
             language: solver-check that the symmetric difference of
             the original and the suggestion is unsatisfiable *)
          List.iter
            (fun (f : An.finding) ->
              match f.An.replacement with
              | None -> ()
              | Some rep -> (
                incr replacements;
                match P.parse rep with
                | Error (pos, msg) ->
                  incr unsound;
                  Printf.eprintf
                    "sbdsolve: UNSOUND %s replacement on %s does not \
                     parse (at %d: %s): %s\n"
                    f.An.rule inst.I.id pos msg rep
                | Ok r' -> (
                  let sym =
                    R.alt
                      (R.inter r (R.compl r'))
                      (R.inter r' (R.compl r))
                  in
                  match S.solve ~budget:200_000 ~deadline:2.0 session sym with
                  | S.Sat _ ->
                    incr unsound;
                    Printf.eprintf
                      "sbdsolve: UNSOUND %s replacement on %s: %s is \
                       not equivalent to %s\n"
                      f.An.rule inst.I.id rep inst.I.pattern
                  | S.Unsat -> ()
                  | S.Unknown _ -> incr replacement_unknown)))
            report.An.findings;
          (match report.An.semantic with
          | None -> incr unknown
          | Some sem ->
            let solver_says () =
              S.solve ~budget:200_000 ~deadline:2.0 session r
            in
            (match sem.An.empty with
            | An.Proved -> (
              incr proved_empty;
              (* sound ⇒ the solver must not find a witness *)
              match solver_says () with
              | S.Sat _ ->
                incr unsound;
                Printf.eprintf
                  "sbdsolve: UNSOUND proved-empty on %s: %s\n" inst.I.id
                  inst.I.pattern
              | S.Unsat | S.Unknown _ -> ())
            | An.Refuted -> (
              incr refuted_empty;
              (* the analyzer's witness must actually match *)
              match sem.An.witness with
              | Some w when Ref.matches r w -> ()
              | Some _ | None ->
                incr unsound;
                Printf.eprintf
                  "sbdsolve: UNSOUND nonempty witness on %s: %s\n" inst.I.id
                  inst.I.pattern)
            | An.Unknown -> incr unknown);
            match sem.An.universal with
            | An.Proved ->
              incr proved_universal;
              (* universal ⇒ in particular ε and "a" match *)
              if not (Ref.matches r [] && Ref.matches r [ Char.code 'a' ])
              then begin
                incr unsound;
                Printf.eprintf
                  "sbdsolve: UNSOUND proved-universal on %s: %s\n" inst.I.id
                  inst.I.pattern
              end
            | An.Refuted | An.Unknown -> ()))
      instances;
    let wall = Obs.now () -. t0 in
    let ok = !unsound = 0 && !parse_failures = 0 in
    if json then
      print_endline
        (Obs.Json.to_string
           (Obs.Json.Obj
              [
                ("corpus", Obs.Json.Str name);
                ("patterns", Obs.Json.Int !n);
                ("errors", Obs.Json.Int !errors);
                ("warnings", Obs.Json.Int !warnings);
                ("infos", Obs.Json.Int !infos);
                ("proved_empty", Obs.Json.Int !proved_empty);
                ("refuted_empty", Obs.Json.Int !refuted_empty);
                ("proved_universal", Obs.Json.Int !proved_universal);
                ("unknown", Obs.Json.Int !unknown);
                ("unsound", Obs.Json.Int !unsound);
                ("replacements", Obs.Json.Int !replacements);
                ("replacement_unknown", Obs.Json.Int !replacement_unknown);
                ("abs_unsat", Obs.Json.Int !abs_unsat);
                ("abs_sat", Obs.Json.Int !abs_sat);
                ("abs_unknown", Obs.Json.Int !abs_unknown);
                ("parse_failures", Obs.Json.Int !parse_failures);
                ("wall_s", Obs.Json.Float wall);
                ( "patterns_per_s",
                  Obs.Json.Float (float_of_int !n /. max wall 1e-9) );
              ]))
    else
      Printf.printf
        "corpus %s: %d patterns in %.2fs — %d errors, %d warnings, %d \
         infos; proved empty %d, nonempty %d, universal %d; %d \
         replacement suggestions; abstract unsat %d, sat %d, unknown \
         %d; unsound %d\n"
        name !n wall !errors !warnings !infos !proved_empty !refuted_empty
        !proved_universal !replacements !abs_unsat !abs_sat !abs_unknown
        !unsound;
    if ok then 0 else if !unsound > 0 then 1 else 2

(* -- match mode ---------------------------------------------------------- *)

(* Located match path: anchors and lookarounds run on the
   location-aware engine (valuation-indexed derivatives + obligation
   automata).  It reports the earliest match end rather than a span —
   located search has no backward start-recovery pass yet. *)
let run_loc_match ~deadline ~stats ~json ~input pattern (t : L.t) =
  let eng = LM.create ~mode:Sbd_engine.Byteclass.Utf8 t in
  let deadline = Option.map Obs.Deadline.of_seconds deadline in
  let t0 = Obs.now () in
  let outcome =
    try Ok (LM.run ?deadline eng input)
    with Obs.Deadline_exceeded what -> Error what
  in
  let wall = Obs.now () -. t0 in
  let engine_stats =
    [
      ("locmatch.atoms", float_of_int (LM.num_atoms eng));
      ("locmatch.memo_entries", float_of_int (LM.memo_entries eng));
      ("locmatch.scan_bytes", float_of_int (LM.scan_bytes eng));
      ("locmatch.skip_bytes", float_of_int (LM.skip_bytes eng));
      ("locmatch.windows", float_of_int (LM.windows eng));
    ]
    @ active_counters ()
    @ [ ("query.wall_time_s", wall) ]
  in
  if json then begin
    let base =
      match outcome with
      | Ok res ->
        [
          ("result", Obs.Json.Str "ok");
          ("matched", Obs.Json.Bool (res.LM.found_end <> None));
          ("full", Obs.Json.Bool res.LM.full);
        ]
        @ (match res.LM.found_end with
          | Some j -> [ ("found_end", Obs.Json.Int j) ]
          | None -> [])
      | Error what ->
        [
          ("result", Obs.Json.Str "unknown");
          ("reason", Obs.Json.Str ("deadline:" ^ what));
        ]
    in
    let doc =
      base
      @ [
          ("pattern", Obs.Json.Str pattern);
          ("input_bytes", Obs.Json.Int (String.length input));
          ("wall_s", Obs.Json.Float wall);
        ]
      @ if stats then [ ("stats", json_of_stats engine_stats) ] else []
    in
    print_endline (Obs.Json.to_string (Obs.Json.Obj doc))
  end
  else begin
    (match outcome with
    | Ok { LM.found_end = None; full; _ } ->
      Printf.printf "no-match full=%b\n" full
    | Ok { LM.found_end = Some j; full; _ } ->
      Printf.printf "match end=%d full=%b\n" j full
    | Error what -> Printf.printf "unknown (deadline:%s)\n" what);
    if stats then print_stats_text engine_stats
  end;
  match outcome with Ok _ -> 0 | Error _ -> 3

let run_match ~deadline ~stats ~json ~input pattern =
  match LP.parse pattern with
  | Error (pos, msg) -> print_parse_error ~json pos msg
  | Ok t when L.to_plain t = None ->
    run_loc_match ~deadline ~stats ~json ~input pattern t
  | Ok t ->
    let r = Option.get (L.to_plain t) in
    let eng = Eng.create ~mode:Sbd_engine.Byteclass.Utf8 r in
    let dl = Option.map Obs.Deadline.of_seconds deadline in
    let t0 = Obs.now () in
    let outcome =
      try
        Ok (Eng.full_and_find ?deadline:dl eng input)
      with Obs.Deadline_exceeded what -> Error what
    in
    let wall = Obs.now () -. t0 in
    let st = Eng.stats eng in
    let engine_stats =
      [
        ("engine.classes", float_of_int st.Eng.num_classes);
        ("engine.fwd_states", float_of_int st.Eng.fwd_states);
        ("engine.unanch_states", float_of_int st.Eng.unanch_states);
        ("engine.back_states", float_of_int st.Eng.back_states);
        ("engine.resets", float_of_int st.Eng.resets);
        ("engine.accel_bytes", float_of_int st.Eng.accel_bytes);
        ("engine.back_accel_bytes", float_of_int st.Eng.back_accel_bytes);
        ("engine.factor_len", float_of_int st.Eng.factor_len);
        ("engine.scan_bytes", float_of_int st.Eng.scan_bytes);
        ("engine.skip_bytes", float_of_int st.Eng.skip_bytes);
        ("engine.find_windows", float_of_int st.Eng.windows);
      ]
      @ active_counters ()
      @ [ ("query.wall_time_s", wall) ]
    in
    if json then begin
      let base =
        match outcome with
        | Ok (full, span) ->
          [
            ("result", Obs.Json.Str "ok");
            ("matched", Obs.Json.Bool (span <> None));
            ("full", Obs.Json.Bool full);
          ]
          @ (match span with
            | Some (i, j) ->
              [ ("span", Obs.Json.Arr [ Obs.Json.Int i; Obs.Json.Int j ]) ]
            | None -> [])
        | Error what ->
          [
            ("result", Obs.Json.Str "unknown");
            ("reason", Obs.Json.Str ("deadline:" ^ what));
          ]
      in
      let doc =
        base
        @ [
            ("pattern", Obs.Json.Str pattern);
            ("input_bytes", Obs.Json.Int (String.length input));
            ("wall_s", Obs.Json.Float wall);
          ]
        @ if stats then [ ("stats", json_of_stats engine_stats) ] else []
      in
      print_endline (Obs.Json.to_string (Obs.Json.Obj doc))
    end
    else begin
      (match outcome with
      | Ok (full, None) -> Printf.printf "no-match full=%b\n" full
      | Ok (full, Some (i, j)) ->
        Printf.printf "match [%d,%d) full=%b\n" i j full
      | Error what -> Printf.printf "unknown (deadline:%s)\n" what);
      if stats then print_stats_text engine_stats
    end;
    (match outcome with Ok _ -> 0 | Error _ -> 3)

(* -- containment mode ---------------------------------------------------- *)

let word_of_codepoints (w : int list) : string =
  let buf = Buffer.create 16 in
  List.iter
    (fun c ->
      if c >= 0x20 && c < 0x7F then Buffer.add_char buf (Char.chr c)
      else Buffer.add_string buf (Printf.sprintf "\\u{%04X}" c))
    w;
  Buffer.contents buf

(* The contain --budget counts pair expansions, a much coarser unit than
   der-rule applications; rescale the solver default accordingly. *)
let contain_budget budget =
  if budget = 1_000_000 then C.default_budget else max 16 budget

let run_contain ~budget ~deadline ~stats ~json ~witness ~mode l_pat r_pat =
  let parse_error which pos msg =
    if json then
      print_endline
        (Obs.Json.to_string
           (Obs.Json.Obj
              [
                ("result", Obs.Json.Str "error");
                ( "error",
                  Obs.Json.Str
                    (Printf.sprintf "%s: parse error at %d: %s" which pos msg)
                );
              ]))
    else
      Printf.printf "(error \"%s: parse error at %d: %s\")\n" which pos msg;
    2
  in
  match (P.parse l_pat, P.parse r_pat) with
  | Error (pos, msg), _ -> parse_error "left pattern" pos msg
  | _, Error (pos, msg) -> parse_error "right pattern" pos msg
  | Ok l, Ok r ->
    let session = C.create_session () in
    let dl = Option.map Obs.Deadline.of_seconds deadline in
    let budget = contain_budget budget in
    let t0 = Obs.now () in
    let verdict =
      match mode with
      | `Subset -> C.subset ~budget ?deadline:dl session l r
      | `Equiv -> C.equiv ~budget ?deadline:dl session l r
    in
    let wall = Obs.now () -. t0 in
    let all_stats =
      C.session_stats session @ active_counters ()
      @ [ ("query.wall_time_s", wall) ]
    in
    let relation = match mode with `Subset -> "subset" | `Equiv -> "equiv" in
    if json then begin
      let base =
        match verdict with
        | C.Proved -> [ ("result", Obs.Json.Str "proved") ]
        | C.Refuted w ->
          [
            ("result", Obs.Json.Str "refuted");
            ("witness", Obs.Json.Str (word_of_codepoints w));
            ( "witness_codepoints",
              Obs.Json.Arr (List.map (fun c -> Obs.Json.Int c) w) );
          ]
        | C.Unknown why ->
          [
            ("result", Obs.Json.Str "unknown"); ("reason", Obs.Json.Str why);
          ]
      in
      let doc =
        base
        @ [
            ("relation", Obs.Json.Str relation);
            ("left", Obs.Json.Str l_pat);
            ("right", Obs.Json.Str r_pat);
            ("wall_s", Obs.Json.Float wall);
          ]
        @ if stats then [ ("stats", json_of_stats all_stats) ] else []
      in
      print_endline (Obs.Json.to_string (Obs.Json.Obj doc))
    end
    else begin
      (match verdict with
      | C.Proved -> Printf.printf "proved\n"
      | C.Refuted w ->
        if witness then
          Printf.printf "refuted witness=\"%s\"\n" (word_of_codepoints w)
        else Printf.printf "refuted\n"
      | C.Unknown why -> Printf.printf "unknown (%s)\n" why);
      if stats then print_stats_text all_stats
    end;
    (match verdict with C.Proved | C.Refuted _ -> 0 | C.Unknown _ -> 3)

(* -- SMT-LIB script mode ------------------------------------------------- *)

let run_script ~budget ~deadline ~stats ~json file =
  let source =
    if file = "-" then read_all stdin
    else begin
      let ic = open_in file in
      let s = read_all ic in
      close_in ic;
      s
    end
  in
  let t0 = Obs.now () in
  let result = E.run ~budget ?deadline source in
  let wall = Obs.now () -. t0 in
  if json then begin
    let answers =
      List.map
        (fun (o : E.outcome) ->
          match o with
          | E.Sat _ -> Obs.Json.Str "sat"
          | E.Unsat -> Obs.Json.Str "unsat"
          | E.Unknown why ->
            Obs.Json.Obj
              [
                ("result", Obs.Json.Str "unknown"); ("reason", Obs.Json.Str why);
              ])
        result.E.outcomes
    in
    let doc =
      [
        ("answers", Obs.Json.Arr answers);
        ("output", Obs.Json.Str result.E.output);
        ("wall_s", Obs.Json.Float wall);
      ]
      @
      if stats then
        [ ("stats", json_of_stats (active_counters () @ [ ("script.wall_time_s", wall) ])) ]
      else []
    in
    print_endline (Obs.Json.to_string (Obs.Json.Obj doc))
  end
  else begin
    print_string result.E.output;
    if stats then
      print_stats_text (active_counters () @ [ ("script.wall_time_s", wall) ])
  end;
  0

open Cmdliner

let run input input2 budget deadline force_re stats json do_match match_text
    match_file do_lint corpus do_subset do_equiv witness =
  if do_subset || do_equiv then begin
    if do_subset && do_equiv then begin
      prerr_endline "sbdsolve: --subset and --equiv are mutually exclusive";
      2
    end
    else
      match (input, input2) with
      | Some l, Some r ->
        let mode = if do_subset then `Subset else `Equiv in
        run_contain ~budget ~deadline ~stats ~json ~witness ~mode l r
      | _ ->
        Printf.eprintf "sbdsolve: --%s needs two PATTERN arguments\n"
          (if do_subset then "subset" else "equiv");
        2
  end
  else if do_lint || corpus <> None then begin
    match (corpus, input) with
    | Some name, _ -> run_lint_corpus ~budget ~deadline ~json name
    | None, Some pattern -> run_lint ~budget ~deadline ~json pattern
    | None, None ->
      prerr_endline "sbdsolve: --lint needs a PATTERN (or --corpus NAME)";
      2
  end
  else
    match input with
    | None ->
      prerr_endline "sbdsolve: required argument FILE.smt2|PATTERN is missing";
      2
    | Some input ->
  if do_match then begin
    let text =
      match (match_text, match_file) with
      | Some s, _ -> s
      | None, Some f ->
        let ic = open_in_bin f in
        let s = read_all ic in
        close_in ic;
        s
      | None, None -> read_all stdin
    in
    run_match ~deadline ~stats ~json ~input:text input
  end
  else
    let pattern_mode =
      force_re || (input <> "-" && not (Sys.file_exists input))
    in
    if pattern_mode then run_pattern ~budget ~deadline ~stats ~json input
    else run_script ~budget ~deadline ~stats ~json input

let () =
  let input_t =
    Arg.(
      value
      & pos 0 (some string) None
      & info [] ~docv:"FILE.smt2|PATTERN"
          ~doc:
            "SMT-LIB script ($(b,-) for stdin), or an ERE pattern when the \
             argument is not an existing file (see $(b,--re)).  Required \
             except under $(b,--lint --corpus).")
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
             hints.  Findings never affect the exit code (0 on success, \
             2 on parse error).")
  in
  let corpus_t =
    Arg.(
      value
      & opt (some string) None
      & info [ "corpus" ] ~docv:"NAME"
          ~doc:
            "With $(b,--lint): analyze a whole benchgen corpus \
             ($(b,standard), $(b,handwritten) or $(b,all)) and cross-check \
             every Proved/Refuted analyzer verdict against the solver and \
             the reference matcher.  Exit 1 on any unsoundness.")
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
        $ corpus_t $ subset_t $ equiv_t $ witness_t)
  in
  exit (Cmd.eval' cmd)
