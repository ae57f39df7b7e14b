(* Tests for the static analyzer (lib/analysis): Layer-1 metrics and
   fragment classification, lint rules with stable IDs, Layer-2 bounded
   semantic verdicts (which must be sound: Proved/Refuted are theorems),
   the tuning hints and their consumer (the service worker), and the
   stability of the JSON report shape. *)

module A = Sbd_alphabet.Bdd
module R = Sbd_regex.Regex.Make (A)
module P = Sbd_regex.Parser.Make (R)
module T = Sbd_service.Default.Make (R)
module An = T.An
module Ref = Sbd_classic.Refmatch.Make (R)
module J = Sbd_obs.Obs.Json

let re = P.parse_exn
let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)

let has_rule rule (rep : An.report) =
  List.exists (fun (f : An.finding) -> f.An.rule = rule) rep.An.findings

let rules (rep : An.report) =
  List.map (fun (f : An.finding) -> f.An.rule) rep.An.findings

(* -- Layer 1: metrics and fragments ---------------------------------- *)

let test_metrics () =
  let m = An.metrics_of (re "ab*c") in
  check_str "fragment" "RE" (An.fragment_name m.An.fragment);
  check_int "preds" 3 m.An.n_pred;
  check "has star" true (m.An.star_height = 1);
  check_int "no complement" 0 m.An.compl_depth;
  check "ascii only" true m.An.ascii_only;
  check "not nullable" false m.An.nullable;
  (* Theorem 7.3: the linear bound is recorded for classical regexes *)
  (match m.An.state_bound with
  | Some b -> check "state bound positive" true (b >= 2)
  | None -> Alcotest.fail "RE fragment must carry a state bound");
  (* top-level Boolean structure over classical regexes stays in B(RE) *)
  let mb = An.metrics_of (re "~(.*a{8,16}.*)&.*b.*") in
  check_str "boolean fragment" "B(RE)" (An.fragment_name mb.An.fragment);
  check "boolean keeps bound" true (mb.An.state_bound <> None);
  check "counter under complement" true mb.An.counter_under_compl;
  (* Boolean structure under a concatenation leaves the bounded fragment *)
  let mext = An.metrics_of (re "(~(ab)|c)d") in
  check_str "general fragment" "ERE" (An.fragment_name mext.An.fragment);
  check "no bound for ERE" true (mext.An.state_bound = None);
  (* the unfolding measure counts counted repetitions multiplied out *)
  let munf = An.metrics_of (re "a{100}") in
  check "unfolded >= 100" true (munf.An.unfolded >= 100);
  (* difficulty is monotone in obvious hardness: blowup > literal *)
  check "difficulty orders patterns" true
    (An.difficulty mb > An.difficulty m)

let test_lint_rules () =
  let analyze ?source s = An.analyze ?source ~layer2:false (re s) in
  (* SBD101: syntactic bottom at the root (constructors collapse a&~a) *)
  check "SBD101 on a&~a" true (has_rule "SBD101" (analyze "a&~a"));
  (* SBD102: unsat by cheap ⊥-propagation (disjoint character classes
     survive the constructors, which compare predicate leaves only by
     identity) *)
  check "SBD102 on disjoint classes" true
    (has_rule "SBD102" (analyze "[a-m]&[n-z]"));
  (* SBD103: a dead proper subterm inside a live pattern *)
  check "SBD103 on dead branch" true
    (has_rule "SBD103" (analyze "x([a-c]&[x-z])y|ok"));
  (* SBD105: double complement in the source (the AST normalizes it) *)
  check "SBD105 on ~~a" true (has_rule "SBD105" (analyze ~source:"~~a" "~~a"));
  (* SBD106: complement over a counted repetition *)
  check "SBD106 on compl-counter" true
    (has_rule "SBD106" (analyze "~(a{8,16})"));
  (* SBD107: two counter-carrying conjuncts *)
  check "SBD107 on counter intersection" true
    (has_rule "SBD107" (analyze ".*a{10}.*&.*b{12}.*"));
  (* SBD108: heavy unfolding *)
  check "SBD108 on a{5000}" true (has_rule "SBD108" (analyze "a{5000}"));
  (* clean patterns stay clean *)
  check_int "no findings on ab*c" 0 (List.length (analyze "ab*c").An.findings);
  (* severities are spelled as stable strings *)
  check_str "error name" "error" (An.severity_name An.Error);
  check_str "warning name" "warning" (An.severity_name An.Warning);
  check_str "info name" "info" (An.severity_name An.Info)

(* -- Layer 2: bounded semantic verdicts ------------------------------- *)

let test_semantic_verdicts () =
  let analyze s = An.analyze ~budget:2_000 (re s) in
  (* proved empty: intersection of disjoint one-letter languages *)
  let rep = analyze "[a-m]+&[n-z]+" in
  (match rep.An.semantic with
  | Some sem ->
    check "proved empty" true (sem.An.empty = An.Proved);
    check "SBD201 emitted" true (has_rule "SBD201" rep)
  | None -> Alcotest.fail "layer 2 missing");
  (* refuted empty: the witness is validated by the oracle *)
  let rep = analyze "ab*c" in
  (match rep.An.semantic with
  | Some sem -> (
    check "nonempty refuted" true (sem.An.empty = An.Refuted);
    match sem.An.witness with
    | Some w -> check "witness accepted by oracle" true (Ref.matches (re "ab*c") w)
    | None -> Alcotest.fail "refuted-empty must carry a witness")
  | None -> Alcotest.fail "layer 2 missing");
  (* proved universal *)
  let rep = analyze ".*|~(.*)" in
  (match rep.An.semantic with
  | Some sem ->
    check "universal proved" true (sem.An.universal = An.Proved);
    check "SBD202 emitted" true (has_rule "SBD202" rep)
  | None -> Alcotest.fail "layer 2 missing");
  (* tiny budget: verdicts degrade to Unknown, never to a guess *)
  let rep = An.analyze ~budget:1 (re "(a|b){2,6}c&.*d.*") in
  match rep.An.semantic with
  | Some sem ->
    check "budget-starved empty is unknown" true (sem.An.empty = An.Unknown)
  | None -> Alcotest.fail "layer 2 missing"

(* -- replacement lints (SBD203/SBD204; SBD205/SBD206 containment-backed) *)

let find_rule rule (rep : An.report) =
  List.find_opt (fun (f : An.finding) -> f.An.rule = rule) rep.An.findings

(* all words of length <= 3 over {a, b} *)
let short_words =
  let letters = [ Char.code 'a'; Char.code 'b' ] in
  let extend ws = List.concat_map (fun w -> List.map (fun c -> c :: w) letters) ws in
  let l1 = extend [ [] ] in
  let l2 = extend l1 in
  ([] :: l1) @ l2 @ extend l2

(* the suggested replacement must be language-equal to the original:
   cross-check with the reference matcher on all short words *)
let check_replacement (orig : R.t) (f : An.finding) =
  match f.An.replacement with
  | None -> Alcotest.failf "%s must carry a replacement" f.An.rule
  | Some src ->
    let simp = re src in
    List.iter
      (fun w ->
        check
          (Printf.sprintf "%s replacement %S agrees" f.An.rule src)
          (Ref.matches orig w) (Ref.matches simp w))
      short_words

let test_entailment_lints () =
  let analyze s = An.analyze ~source:s (re s) in
  (* SBD205: a ⊑ a*, so the branch "a" of a|a* is redundant *)
  let rep = analyze "a|a*" in
  (match find_rule "SBD205" rep with
  | Some f ->
    check "SBD205 names the branch" true (f.An.subterm <> None);
    check_replacement (re "a|a*") f
  | None -> Alcotest.fail "SBD205 expected on a|a*");
  (* SBD206: in (a|b)&a the conjunct a|b is entailed by a *)
  let rep = analyze "(a|b)&a" in
  (match find_rule "SBD206" rep with
  | Some f -> check_replacement (re "(a|b)&a") f
  | None -> Alcotest.fail "SBD206 expected on (a|b)&a");
  (* SBD203/SBD204, the derivative-graph siblings: a branch proved
     empty, a conjunct proved universal *)
  List.iter
    (fun (rule, src) ->
      match find_rule rule (analyze src) with
      | Some f -> check_replacement (re src) f
      | None -> Alcotest.failf "%s expected on %s" rule src)
    [ ("SBD203", "(ab&ba)|b"); ("SBD204", "ab&~(ba&ab)") ];
  (* textbook pair: the two branches denote the same language *)
  check "SBD205 on equal-language branches" true
    (has_rule "SBD205" (analyze "(ab)*a|a(ba)*"));
  (* incomparable branches / conjuncts stay clean *)
  check "no SBD205 on a|b" false (has_rule "SBD205" (analyze "a|b"));
  check "no SBD206 on .*a.*&.*b.*" false
    (has_rule "SBD206" (analyze ".*a.*&.*b.*"));
  (* the JSON rendering carries the replacement *)
  match find_rule "SBD205" (analyze "a|a*") with
  | None -> Alcotest.fail "SBD205 expected"
  | Some f -> (
    match An.json_of_finding f with
    | J.Obj kvs ->
      check "json replacement is a string" true
        (match List.assoc_opt "replacement" kvs with
        | Some (J.Str _) -> true
        | Some (J.Null | J.Bool _ | J.Int _ | J.Float _ | J.Arr _ | J.Obj _)
        | None ->
          false)
    | J.Null | J.Bool _ | J.Int _ | J.Float _ | J.Str _ | J.Arr _ ->
      Alcotest.fail "finding must render as a JSON object")

(* -- hints and their consumers ---------------------------------------- *)

let test_hints () =
  let hints s = (An.analyze ~layer2:false (re s)).An.hints in
  (* the analyzer's fallback cap must stay in sync with the engine's *)
  check_int "default_max_states in sync" Sbd_engine.Dfa.default_max_states
    An.default_max_states;
  let easy = hints "ab*c" in
  check_str "literal risk" "low" (An.risk_name easy.An.risk);
  check "literal gets small cap" true
    (easy.An.max_states < An.default_max_states);
  check "literal prefers engine" true easy.An.prefer_engine;
  check "ascii pattern is byte-safe" true easy.An.byte_mode_ok;
  let blowup = hints "~(.*a{8,16}.*)&.*b{8,16}.*" in
  check_str "blowup risk" "high" (An.risk_name blowup.An.risk);
  check "blowup gets headroom" true
    (blowup.An.max_states > An.default_max_states);
  check "blowup avoids engine" true (not blowup.An.prefer_engine);
  check "blowup gets bigger solver budget" true
    (blowup.An.solve_budget > easy.An.solve_budget);
  let unicode = hints "h\\u{4E2D}llo" in
  check "non-ascii is not byte-safe" false unicode.An.byte_mode_ok

(* The hints must demonstrably change consumer behavior: the service
   worker picks its engine state cap from the analyzer, so an easy
   literal and a blowup-prone pattern get different caps. *)
let test_hint_consumer () =
  let (module W) = Sbd_service.Worker.create () in
  let cap s =
    match W.engine_max_states s with Ok n -> n | Error msg -> Alcotest.fail msg
  in
  let easy = cap "ab*c" and hard = cap "~(.*a{8,16}.*)&.*b{8,16}.*" in
  check "easy pattern capped below default" true
    (easy < Sbd_engine.Dfa.default_max_states);
  check "hard pattern capped above default" true
    (hard > Sbd_engine.Dfa.default_max_states);
  check "hints change consumer behavior" true (easy <> hard)

(* -- machine-readable report ------------------------------------------ *)

let test_json_shape () =
  let rep = An.analyze ~source:"[a-m]+&[n-z]+" (re "[a-m]+&[n-z]+") in
  match An.json_of_report rep with
  | J.Obj kvs ->
    let mem k = List.assoc_opt k kvs in
    check "pattern present" true (mem "pattern" = Some (J.Str "[a-m]+&[n-z]+"));
    (match mem "metrics" with
    | Some (J.Obj ms) ->
      check "metrics.size" true (List.assoc_opt "size" ms <> None);
      check "metrics.fragment" true
        (List.assoc_opt "fragment" ms = Some (J.Str "B(RE)"));
      check "metrics.difficulty" true (List.assoc_opt "difficulty" ms <> None)
    | _ -> Alcotest.fail "metrics object missing");
    (match mem "findings" with
    | Some (J.Arr (J.Obj f :: _)) ->
      check "finding.rule" true (List.assoc_opt "rule" f <> None);
      check "finding.severity" true (List.assoc_opt "severity" f <> None);
      check "finding.message" true (List.assoc_opt "message" f <> None)
    | _ -> Alcotest.fail "findings array missing");
    (match mem "semantic" with
    | Some (J.Obj s) ->
      check "semantic.empty proved" true
        (List.assoc_opt "empty" s = Some (J.Str "proved"))
    | _ -> Alcotest.fail "semantic object missing");
    (match mem "hints" with
    | Some (J.Obj h) ->
      check "hints.risk" true (List.assoc_opt "risk" h <> None);
      check "hints.max_states" true (List.assoc_opt "max_states" h <> None)
    | _ -> Alcotest.fail "hints object missing");
    (* a proved-empty report carries the SBD201 error *)
    check "SBD201 in rules" true (List.mem "SBD201" (rules rep))
  | _ -> Alcotest.fail "report must be a JSON object"

(* -- forced-literal extraction (engine prefilter hints) --------------- *)

module Lit = Sbd_analysis.Literals.Make (R)

let cps s = List.init (String.length s) (fun i -> Char.code s.[i])

(* Every claim of [Lit.study] is one-sided ("all words of L(r) contain
   this"), so the tests pin the exact literals on shapes the engine
   prefilter relies on: concat extension and seam bridging, Or taking
   the common affixes, And taking any branch, loop unrolling, the
   nullable vacuity, and the cap clamp. *)
let test_literals () =
  let study p = Lit.study (re p) in
  let fac p = (study p).Lit.factor in
  let check_cps = Alcotest.(check (list int)) in
  check_cps "dotstar factor" (cps "needle") (fac ".*needle.*");
  check_cps "literal factor" (cps "needle") (fac "needle");
  (match (study "needle").Lit.exact with
  | Some w -> check_cps "literal is exact" (cps "needle") w
  | None -> Alcotest.fail "a literal pattern must be exact");
  (* a forced suffix of the left factor meets a forced prefix of the
     right across the concat seam *)
  check_cps "seam bridge" (cps "cd") (fac "(a|b)cd(a|b)");
  check_cps "or common prefix" (cps "ab") ((study "abc|abd").Lit.prefix);
  check_cps "or common suffix" (cps "bc") ((study "abc|xbc").Lit.suffix);
  check_int "and takes the longest branch" 3
    (List.length (fac ".*abc.*&.*xyz.*"));
  check_cps "loop unrolls an exact body" (cps "ababab") (fac "(ab){3}");
  (match (study "(ab){3}").Lit.exact with
  | Some w -> check_cps "bounded loop stays exact" (cps "ababab") w
  | None -> Alcotest.fail "(ab){3} must be exact");
  check_cps "nullable forces nothing" [] (fac "a*");
  check_cps "complement forces nothing" [] (fac "~(abc)");
  check_int "clamped to the cap" Lit.cap (List.length (fac "a{30}"));
  check "over-cap exact demoted, not truncated" true
    ((study "a{30}").Lit.exact = None);
  check_cps "date forces its dash" [ Char.code '-' ]
    (fac "\\d{4}-[a-zA-Z]{3}-\\d{2}")

(* Soundness spot-check over the handwritten corpus: any Proved verdict
   must agree with the reference matcher on short words (the fuzzer does
   this at scale; here it guards the test suite). *)
let test_corpus_soundness () =
  let words =
    let letters = [ 'a'; 'b'; 'c'; '0'; '1' ] in
    [] :: List.concat_map (fun c -> [ [ Char.code c ] ]) letters
    @ List.concat_map
        (fun c -> List.map (fun d -> [ Char.code c; Char.code d ]) letters)
        letters
  in
  List.iter
    (fun (inst : Sbd_benchgen.Instance.t) ->
      match P.parse inst.pattern with
      | Error _ -> ()
      | Ok r -> (
        let rep = An.analyze ~budget:500 r in
        match rep.An.semantic with
        | Some sem ->
          (if sem.An.empty = An.Proved then
             List.iter
               (fun w ->
                 if Ref.matches r w then
                   Alcotest.failf "unsound proved-empty: %s" inst.pattern)
               words);
          if sem.An.universal = An.Proved then
            List.iter
              (fun w ->
                if not (Ref.matches r w) then
                  Alcotest.failf "unsound proved-universal: %s" inst.pattern)
              words
        | None -> ()))
    (Sbd_benchgen.Standard.handwritten ())

(* -- abstract domains (lib/analysis/absdom.ml) ------------------------ *)

module Ab = T.Ab

(* Length lattice: ultimately-periodic sets with CRT intersection. *)
let test_absdom_lengths () =
  let len pat = (Ab.summarize (re pat)).Ab.len in
  let l3 = len "a{3}" in
  check_int "a{3} lmin" 3 l3.Ab.lmin;
  check "a{3} lmax" true (l3.Ab.lmax = Some 3);
  let evens = len "(aa)*" in
  check_int "(aa)* lmin" 0 evens.Ab.lmin;
  check "(aa)* unbounded" true (evens.Ab.lmax = None);
  check_int "(aa)* stride" 2 evens.Ab.stride;
  (* CRT: x ≡ 0 (mod 2) ∧ x ≡ 1 (mod 3) has least solution 4, lcm 6 *)
  let crt = Ab.inter_len evens (len "a(aaa)*") in
  check_int "CRT lmin" 4 crt.Ab.lmin;
  check_int "CRT stride" 6 crt.Ab.stride;
  check "CRT feasible" true (Ab.feasible crt);
  (* incompatible residues: evens ∩ odds is length-free *)
  check "evens ∩ odds infeasible" false
    (Ab.feasible (Ab.inter_len evens (len "a(aa)*")));
  (* membership predicate agrees with the progression *)
  check "admits 10" true (Ab.len_admits crt 10);
  check "rejects 8" false (Ab.len_admits crt 8);
  (* concat adds, union joins on the gcd *)
  let c = Ab.concat_len l3 evens in
  check_int "concat lmin" 3 c.Ab.lmin;
  check_int "concat stride" 2 c.Ab.stride

(* Counter bounds are any int: products and sums of lengths saturate
   (least length capped, upper bound dropped) instead of wrapping. *)
let test_absdom_lengths_saturate () =
  let len pat = (Ab.summarize (re pat)).Ab.len in
  let big = "4611686018427387903" (* max_int *) in
  (* 4 · 2^61 + 1 wraps to 1 in 63-bit ints *)
  let w = len "(a|c{2305843009213693952}){4}x" in
  check_int "wrapping product lmin" 5 w.Ab.lmin;
  check "wrapping product unbounded" true (w.Ab.lmax = None);
  let p = len ("(a|c{" ^ big ^ "}){2}") in
  check_int "doubled max_int lmin" 2 p.Ab.lmin;
  check "doubled max_int unbounded" true (p.Ab.lmax = None);
  List.iter
    (fun pat ->
      let l = len pat in
      check (pat ^ " lmin saturates") true (l.Ab.lmin >= max_int / 4);
      check (pat ^ " unbounded") true (l.Ab.lmax = None);
      check_int (pat ^ " no residue") 1 l.Ab.stride)
    [ "(a{" ^ big ^ "}){4}"; "a{" ^ big ^ "}a{" ^ big ^ "}"
    ; "(a{" ^ big ^ "}){3}&(a{" ^ big ^ "})*" ]

(* Emptiness verdicts from each abstraction, and their absence when the
   constraints are feasible. *)
let test_absdom_emptiness () =
  let empty pat = (Ab.summarize (re pat)).Ab.empty = Ab.Empty in
  (* length: [3,3] ∩ [5,5] *)
  check "a{3}&a{5} empty" true (empty "a{3}&a{5}");
  (* length residues: even ∩ odd *)
  check "(aa)*&a(aa)* empty" true (empty "(aa)*&a(aa)*");
  (* characters: possible sets are disjoint and lmin > 0 *)
  check "ab&cd empty" true (empty "ab&cd");
  (* characters: a required class outside the possible set *)
  check "required vs possible" true (empty ".*a.*&b*");
  (* feasible intersections stay undecided-or-nonempty *)
  check "a{3,5}&a{4} feasible" false (empty "a{3,5}&a{4}");
  check "same parity feasible" false (empty "(aa)*&(aaaa)*")

(* presolve: verdicts must be sound and witnesses must actually match
   (validated here against the independent reference matcher). *)
let test_absdom_presolve () =
  let word w = List.init (String.length w) (fun i -> Char.code w.[i]) in
  (match Ab.presolve (re "a{3}&a{5}") with
  | Ab.Unsat_proved -> ()
  | Ab.Sat_witnessed _ | Ab.Unknown ->
    Alcotest.fail "a{3}&a{5} must be proved unsat");
  (match Ab.presolve (re "a*") with
  | Ab.Sat_witnessed w -> check "nullable witness is ε" true (w = "")
  | Ab.Unsat_proved | Ab.Unknown ->
    Alcotest.fail "a* must be witnessed sat");
  List.iter
    (fun pat ->
      match Ab.presolve (re pat) with
      | Ab.Sat_witnessed w ->
        check (pat ^ " witness matches") true (Ref.matches (re pat) (word w))
      | Ab.Unsat_proved -> Alcotest.failf "unsound unsat on %s" pat
      | Ab.Unknown -> Alcotest.failf "%s should be witnessed" pat)
    [ "ab|cd"; "a{2,4}"; "\\d{4}-\\d{2}"; "(ab)*ab" ];
  (* boolean intersections may or may not be witnessed, but a committed
     verdict must be correct *)
  (match Ab.presolve (re "[a-c]{3}&[b-d]{3}") with
  | Ab.Sat_witnessed w ->
    check "inter witness matches" true
      (Ref.matches (re "[a-c]{3}&[b-d]{3}") (word w))
  | Ab.Unknown -> ()
  | Ab.Unsat_proved -> Alcotest.fail "unsound unsat on [a-c]{3}&[b-d]{3}");
  (* abstractly undecidable: empty, but only a real derivation sees it —
     the pre-solver must answer Unknown, never guess *)
  (match Ab.presolve (re "a{80}&~((aa){40})") with
  | Ab.Unknown -> ()
  | Ab.Unsat_proved | Ab.Sat_witnessed _ ->
    Alcotest.fail "deep boolean pattern must stay Unknown")

let suite =
  ( "analysis",
    [ Alcotest.test_case "metrics and fragments" `Quick test_metrics
    ; Alcotest.test_case "lint rules" `Quick test_lint_rules
    ; Alcotest.test_case "semantic verdicts" `Quick test_semantic_verdicts
    ; Alcotest.test_case "entailment lints" `Quick test_entailment_lints
    ; Alcotest.test_case "hints" `Quick test_hints
    ; Alcotest.test_case "hints drive consumers" `Quick test_hint_consumer
    ; Alcotest.test_case "json report shape" `Quick test_json_shape
    ; Alcotest.test_case "forced literals" `Quick test_literals
    ; Alcotest.test_case "corpus soundness" `Quick test_corpus_soundness
    ; Alcotest.test_case "absdom lengths" `Quick test_absdom_lengths
    ; Alcotest.test_case "absdom lengths saturate" `Quick
        test_absdom_lengths_saturate
    ; Alcotest.test_case "absdom emptiness" `Quick test_absdom_emptiness
    ; Alcotest.test_case "absdom presolve" `Quick test_absdom_presolve ] )
