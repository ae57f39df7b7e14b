(* Tests for the extension modules: GraphViz rendering, coinductive
   language equivalence, the deep simplifier, the SRM-style lazy DFA of
   the classic layer, and the byte engine's find/scan/DFA reuse. *)

module A = Sbd_alphabet.Bdd
module R = Sbd_regex.Regex.Make (A)
module P = Sbd_regex.Parser.Make (R)
module T = Sbd_service.Default.Make (R)
module D = T.D
module Dot = Sbd_core.Dot.Make (R)
module Sbfa = Sbd_core.Sbfa.Make (R)
module C = T.C
module Simp = Sbd_regex.Simplify.Make (R)
module Ref = Sbd_classic.Refmatch.Make (R)
module Brz = Sbd_classic.Brzozowski.Make (R)
module Eng = T.Eng
module S = T.S
module Safa = Sbd_core.Safa.Make (R)

let re = P.parse_exn
let check = Alcotest.(check bool)
let eq msg a b = check msg true (R.equal a b)
let word s = List.init (String.length s) (fun i -> Char.code s.[i])

let contains_sub s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

(* -- dot rendering ------------------------------------------------------ *)

let test_dot_derivative_graph () =
  (* Figure 2d: the derivative graph of the complemented pattern has two live states *)
  let dot = Dot.derivative_graph (re "~(.*01.*)") in
  check "digraph" true (contains_sub dot "digraph");
  check "has initial marker" true (contains_sub dot "init ->");
  check "complement state present" true (contains_sub dot "~(.*01.*)");
  check "R3 state present" true (contains_sub dot "~(1.*)");
  (* nullable states are double circles *)
  check "final shape" true (contains_sub dot "doublecircle")

let test_dot_sbfa () =
  let m = Sbfa.build_exn (re ".*[a-z].*&.*\\d.*") in
  let dot = Dot.sbfa_boolean m in
  check "digraph" true (contains_sub dot "digraph");
  check "transition notes" true (contains_sub dot "shape=note")

(* -- coinductive equivalence -------------------------------------------- *)

let csession = C.create_session ()

(* the coinductive pair search itself, without the abstract prescan *)
let equiv x y = C.equiv ~presolve:false csession x y
let subset x y = C.subset ~presolve:false csession x y

let decided = function
  | C.Proved -> Some true
  | C.Refuted _ -> Some false
  | C.Unknown _ -> None

let test_equiv_positive () =
  let cases =
    [ ("a*", "()|aa*"); ("(a|b)*", "(a*b*)*"); ("~(a|b)", "~a&~b")
    ; ("a{2,4}", "aa(a?){2}"); ("(ab)*a", "a(ba)*")
    ; (".*01.*", ".*01.*|01"); ("~(~(ab))", "ab")
    ; ("a*&b*", "()"); ("(a|b)*&~(.*aa.*)&~(.*bb.*)", "(ab)*(a?)|(ba)*(b?)")
    ]
  in
  List.iter
    (fun (x, y) ->
      match equiv (re x) (re y) with
      | C.Proved -> ()
      | C.Refuted w ->
        Alcotest.failf "%s ~ %s: counterexample %s" x y
          (String.concat "" (List.map (fun c -> String.make 1 (Char.chr c)) w))
      | C.Unknown why -> Alcotest.failf "%s ~ %s: %s" x y why)
    cases

let test_equiv_negative () =
  let cases =
    [ ("a*", "a+"); ("(ab)*", "(ba)*"); ("~(ab)", "~(ba)")
    ; (".*0.*", ".*01.*"); ("a{2,4}", "a{2,5}") ]
  in
  List.iter
    (fun (x, y) ->
      let rx = re x and ry = re y in
      match equiv rx ry with
      | C.Refuted w ->
        (* the witness really distinguishes the two languages *)
        check
          (Printf.sprintf "cex for %s vs %s" x y)
          true
          (Ref.matches rx w <> Ref.matches ry w)
      | C.Proved -> Alcotest.failf "%s and %s wrongly equivalent" x y
      | C.Unknown why -> Alcotest.failf "%s vs %s: %s" x y why)
    cases

let test_equiv_agrees_with_solver () =
  let session = S.create_session () in
  let pairs =
    [ ("a*b", "a*b"); ("a?b?", "(a|b)?"); ("(a&b)c", "a&~a"); ("~(a&~a)", ".*")
    ; ("(ab|a)*", "(a|ab)*"); ("a{3}{3}", "a{9}"); ("a{3,4}{2}", "a{6,8}") ]
  in
  List.iter
    (fun (x, y) ->
      let rx = re x and ry = re y in
      let coinductive = decided (equiv rx ry) in
      let via_complement = S.equiv session rx ry in
      check
        (Printf.sprintf "agree on %s vs %s" x y)
        true
        (coinductive = via_complement))
    pairs

(* -- simplifier ---------------------------------------------------------- *)

let test_simplify_shapes () =
  let simp s = Simp.simplify (re s) in
  eq "absorption or" (re "ab") (simp "ab|(ab&cd)");
  eq "absorption and" (re "ab") (simp "ab&(ab|cd)");
  eq "pred subsumption or" (re "\\w") (simp "[a-c]|\\w");
  eq "pred subsumption and" (re "[a-c]") (simp "[a-c]&\\w");
  eq "star of star" (re "a*") (simp "(a*)*");
  eq "star union flatten" (re "(a|b)*") (simp "(a*|b)*");
  eq "star concat flatten" (re "(a|b)*") (simp "(a*b*)*");
  eq "eps or rr*" (re "a*") (simp "()|aa*");
  eq "loop fusion" (re "a{6,8}") (simp "a{2,3}a{4,5}");
  eq "a then a star" (re "a+") (simp "aa*");
  eq "loop unnest" (re "a{9}") (simp "a{3}{3}");
  eq "loop unnest tiling" (re "a{6,12}") (simp "a{3,4}{2,3}");
  (* non-tiling nested loops must NOT be merged: (a{2,3}){0,2} has a gap *)
  let nested = simp "(a{2,2}){0,2}" in
  check "gap preserved" false (R.equal nested (re "a{0,4}"))

let test_simplify_preserves_language () =
  let corpus =
    [ "ab|(ab&cd)"; "(a*|b)*"; "(a*b*)*"; "a{2,3}a{4,5}"; "a{3,4}{2,3}"
    ; "(a{2,2}){0,2}"; "~((a*)*)&(ab)*"; "[a-c]|\\w|[x-z]"; "()|aa*|b"
    ; "((a|b)*&~(.*aa.*))|(a?){3}" ]
  in
  let alphabet = List.map Char.code [ 'a'; 'b'; 'c'; 'x' ] in
  let rec words n =
    if n = 0 then [ [] ]
    else
      [] :: List.concat_map (fun w -> List.map (fun c -> c :: w) alphabet) (words (n - 1))
  in
  let ws = words 5 in
  List.iter
    (fun s ->
      let r = re s in
      let r' = Simp.simplify r in
      check (Printf.sprintf "%s does not grow" s) true (R.size r' <= R.size r);
      List.iter
        (fun w ->
          check
            (Printf.sprintf "simplify %s language" s)
            (Ref.matches r w) (Ref.matches r' w))
        ws)
    corpus

(* -- matcher -------------------------------------------------------------- *)

let test_matcher_basic () =
  let cases =
    [ (".*\\d.*&~(.*01.*)", [ ("0", true); ("01", false); ("a5b0", true); ("", false) ])
    ; ("(a|b)*abb", [ ("aabb", true); ("abab", false); ("abb", true) ])
    ; ("~((ab)*)", [ ("ab", false); ("aba", true); ("", false) ])
    ; ("\\w+@\\w+", [ ("me@here", true); ("me@", false) ])
    ]
  in
  List.iter
    (fun (pat, words) ->
      let m = Brz.Dfa.create (re pat) in
      List.iter
        (fun (s, expected) ->
          check (Printf.sprintf "%s on %S" pat s) expected (Brz.Dfa.matches m (word s)))
        words)
    cases

let test_matcher_agrees_with_oracle () =
  let patterns =
    [ "a*b*"; "(ab|ba)*"; ".*aa.*"; "~(.*aa.*)"; "a{2,4}&(a|b)*"; "[ab]{3}"
    ; "(a|b)*&~(b*)" ]
  in
  let alphabet = List.map Char.code [ 'a'; 'b'; 'c' ] in
  let rec words n =
    if n = 0 then [ [] ]
    else
      [] :: List.concat_map (fun w -> List.map (fun c -> c :: w) alphabet) (words (n - 1))
  in
  List.iter
    (fun pat ->
      let r = re pat in
      let m = Brz.Dfa.create r in
      List.iter
        (fun w -> check ("matcher " ^ pat) (Ref.matches r w) (Brz.Dfa.matches m w))
        (words 5))
    patterns

let test_matcher_dfa_reuse () =
  let e = Eng.create (re ".*\\d.*") in
  let states () = (Eng.stats e).Eng.fwd_states in
  ignore (Eng.matches e "abc123");
  let states_after_first = states () in
  ignore (Eng.matches e "xyz789");
  check "no new states on repeat input" true (states () = states_after_first);
  (* the pattern has 1 predicate -> 2 byte classes *)
  Alcotest.(check int) "alphabet size" 2 (Eng.stats e).Eng.num_classes;
  check "few states" true (states () <= 3)

let test_matcher_scan () =
  let e = Eng.create (re "ab") in
  (* positions with a prefix matching "ab": indices of 'a' followed by 'b' *)
  Alcotest.(check int) "prefix matches" 2 (Eng.count_matching_prefixes e "abxab")

let test_matcher_find () =
  let m = Eng.create (re "ab+") in
  (* leftmost-earliest semantics: the shortest match at position 2 *)
  (match Eng.find m "xxabbby" with
  | Some (2, 4) -> ()
  | Some (i, j) -> Alcotest.failf "expected (2,4), got (%d,%d)" i j
  | None -> Alcotest.fail "expected a match");
  check "no match" true (Eng.find m "xxay" = None);
  (* leftmost-earliest: shortest match at the first viable position *)
  (match Eng.find (Eng.create (re "a+")) "baaa" with
  | Some (1, 2) -> ()
  | other ->
    Alcotest.failf "expected (1,2), got %s"
      (match other with Some (i, j) -> Printf.sprintf "(%d,%d)" i j | None -> "none"));
  (* nullable pattern matches at position 0 *)
  match Eng.find (Eng.create (re "a*")) "bbb" with
  | Some (0, 0) -> ()
  | _ -> Alcotest.fail "nullable pattern should match empty at 0"

let test_coinductive_subset () =
  let cases =
    [ ("a+", "a*", true); ("a*", "a+", false); ("a{2,4}", "a{1,5}", true)
    ; ("(ab)*", "(a|b)*", true); ("(a|b)*", "(ab)*", false)
    ; (".*01.*", ".*0.*", true) ]
  in
  List.iter
    (fun (x, y, expected) ->
      Alcotest.(check (option bool))
        (Printf.sprintf "%s subset %s" x y)
        (Some expected)
        (decided (subset (re x) (re y))))
    cases

let test_matcher_unicode () =
  let m = Brz.Dfa.create (re "\\w+") in
  check "CJK word chars" true (Brz.Dfa.matches m [ 0x4E2D; 0x6587 ]);
  check "punctuation is not a word char" false (Brz.Dfa.matches m [ Char.code '!' ])

(* -- SAFA (Section 8.3) --------------------------------------------------- *)

let test_safa_acceptance () =
  let cases =
    [ (".*\\d.*&~(.*01.*)", [ ("0", true); ("01", false); ("10", true); ("", false) ])
    ; ("(a|b)*abb", [ ("aabb", true); ("abab", false) ])
    ; ("~(a*)", [ ("b", true); ("aa", false); ("", false) ])
    ; ("~(~a&~b)", [ ("a", true); ("b", true); ("c", false) ])
    ; ("(.*a.{3})&(.*b.{2})", [ ("abxxx", false); ("abxx", true); ("baxxx", false)
                              ; ("xabxx", true) ])
    ]
  in
  List.iter
    (fun (pat, words) ->
      match Safa.of_sbfa_regex (re pat) with
      | None -> Alcotest.failf "SAFA budget exceeded for %s" pat
      | Some m ->
        List.iter
          (fun (s, expected) ->
            check (Printf.sprintf "safa %s on %S" pat s) expected
              (Safa.accepts m (word s)))
          words)
    cases

let test_safa_vs_oracle () =
  let patterns =
    [ "a*b*"; "~(.*aa.*)"; "(ab|b)*&~(b*)"; ".*0.*&.*1.*"; "~((a|b){2})"
    ; "a{1,3}&~(aa)" ]
  in
  let alphabet = List.map Char.code [ 'a'; 'b'; '0'; '1' ] in
  let rec words n =
    if n = 0 then [ [] ]
    else
      [] :: List.concat_map (fun w -> List.map (fun c -> c :: w) alphabet) (words (n - 1))
  in
  List.iter
    (fun pat ->
      let r = re pat in
      match Safa.of_sbfa_regex r with
      | None -> Alcotest.failf "SAFA budget exceeded for %s" pat
      | Some m ->
        List.iter
          (fun w ->
            check
              (Printf.sprintf "safa oracle %s" pat)
              (Ref.matches r w) (Safa.accepts m w))
          (words 4))
    patterns

let test_safa_negated_states () =
  (* complement handling doubles states with q-bar: check the count stays
     finite and small for B(RE) *)
  match Safa.of_sbfa_regex (re "~(.*01.*)&.*\\d.*") with
  | None -> Alcotest.fail "budget exceeded"
  | Some m -> check "bounded state count" true (Safa.num_states m <= 16)

let suite =
  ( "extensions",
    [ Alcotest.test_case "dot: derivative graph" `Quick test_dot_derivative_graph
    ; Alcotest.test_case "dot: SBFA" `Quick test_dot_sbfa
    ; Alcotest.test_case "equiv: positive" `Quick test_equiv_positive
    ; Alcotest.test_case "equiv: negative" `Quick test_equiv_negative
    ; Alcotest.test_case "equiv: agrees with solver" `Quick test_equiv_agrees_with_solver
    ; Alcotest.test_case "simplify: shapes" `Quick test_simplify_shapes
    ; Alcotest.test_case "simplify: language preserved" `Quick test_simplify_preserves_language
    ; Alcotest.test_case "matcher: basics" `Quick test_matcher_basic
    ; Alcotest.test_case "matcher: agrees with oracle" `Quick test_matcher_agrees_with_oracle
    ; Alcotest.test_case "matcher: DFA reuse" `Quick test_matcher_dfa_reuse
    ; Alcotest.test_case "matcher: scan" `Quick test_matcher_scan
    ; Alcotest.test_case "matcher: unicode" `Quick test_matcher_unicode
    ; Alcotest.test_case "safa: acceptance" `Quick test_safa_acceptance
    ; Alcotest.test_case "safa: oracle agreement" `Quick test_safa_vs_oracle
    ; Alcotest.test_case "safa: negated states" `Quick test_safa_negated_states
    ; Alcotest.test_case "matcher: find" `Quick test_matcher_find
    ; Alcotest.test_case "equiv: coinductive subset" `Quick test_coinductive_subset ] )
