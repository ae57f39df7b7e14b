(* Tests for the decision procedure of Section 5: satisfiability with
   witness generation, unsatisfiability via dead-state detection, the
   derivative graph, side constraints, and formula solving. *)

module A = Sbd_alphabet.Bdd
module R = Sbd_regex.Regex.Make (A)
module P = Sbd_regex.Parser.Make (R)
module T = Sbd_service.Default.Make (R)
module S = T.S
module Ref = Sbd_classic.Refmatch.Make (R)

let re = P.parse_exn
let check = Alcotest.(check bool)
let session = S.create_session ()

(* Solve and, for sat results, verify the witness against the independent
   reference matcher. *)
let solve_checked ?side r =
  let result = S.solve ?side session r in
  (match result with
  | S.Sat w ->
    check
      (Printf.sprintf "witness %S matches %s" (S.string_of_witness w) (R.to_string r))
      true (Ref.matches r w)
  | _ -> ());
  result

let expect_sat msg r =
  match solve_checked r with
  | S.Sat _ -> ()
  | S.Unsat -> Alcotest.failf "%s: expected sat, got unsat" msg
  | S.Unknown why -> Alcotest.failf "%s: expected sat, got unknown (%s)" msg why

let expect_unsat msg r =
  match solve_checked r with
  | S.Unsat -> ()
  | S.Sat w -> Alcotest.failf "%s: expected unsat, got witness %S" msg (S.string_of_witness w)
  | S.Unknown why -> Alcotest.failf "%s: expected unsat, got unknown (%s)" msg why

let test_basic_sat () =
  expect_sat "literal" (re "abc");
  expect_sat "alt" (re "ab|cd");
  expect_sat "star" (re "(ab)*");
  expect_sat "loop" (re "a{3,5}");
  expect_sat "class" (re "[a-z]+\\d");
  expect_sat "full" R.full;
  expect_sat "eps" R.eps

let test_basic_unsat () =
  expect_unsat "bot" R.empty;
  expect_unsat "disjoint preds" (re "[a-c]&[x-z]");
  expect_unsat "eps vs nonempty" (re "()&a");
  expect_unsat "different lengths" (re "a{2}&a{3}");
  expect_unsat "r and not r" (R.inter (re "(ab)*") (re "~((ab)*)"));
  expect_unsat "contradictory contains" (re "(a*)&(.*b.*)")

let test_witness_shortest () =
  (* the BFS strategy produces a shortest witness *)
  (match S.solve ~strategy:S.Bfs session (re "a{3}|b{2}") with
  | S.Sat w -> Alcotest.(check int) "shortest witness length" 2 (List.length w)
  | _ -> Alcotest.fail "expected sat");
  match S.solve ~strategy:S.Bfs session (re ".*\\d.*&~(.*01.*)") with
  | S.Sat w -> Alcotest.(check int) "password witness length" 1 (List.length w)
  | _ -> Alcotest.fail "expected sat"

let test_password () =
  expect_sat "password" (re ".*\\d.*&~(.*01.*)");
  expect_unsat "password contradiction" (re ".*01.*&~(.*0.*)");
  expect_sat "multi-rule password"
    (re ".{4,12}&.*\\d.*&.*[a-z].*&.*[A-Z].*&~(.*\\s.*)")

let test_date_example () =
  (* Figure 1: constraint is satisfiable as written... *)
  expect_sat "date policy"
    (re "\\d{4}-[a-zA-Z]{3}-\\d{2}&(2019.*|2020.*)");
  (* ...but unsatisfiable with the misplaced anchors (Section 1). *)
  expect_unsat "broken date policy"
    (re "\\d{4}-[a-zA-Z]{3}-\\d{2}&(.*2019|.*2020)")

let test_blowup_family () =
  (* (.*a.{k})&(.*b.{k}) is unsat: positions clash. *)
  expect_unsat "determinization blowup k=6" (re "(.*a.{6})&(.*b.{6})");
  (* with different offsets it is satisfiable *)
  expect_sat "staggered offsets" (re "(.*a.{6})&(.*b.{5})");
  (* complement makes the initial state already accepting: lazy win *)
  expect_sat "lazy complement" (re "~(.*a.{50})")

let test_dead_state_graph () =
  let s = S.create_session () in
  let r = re "(.*a.{4})&(.*b.{4})" in
  (match S.solve s r with
  | S.Unsat -> ()
  | _ -> Alcotest.fail "expected unsat");
  (* after an unsat proof the start vertex must be provably dead *)
  check "start vertex dead" true (S.G.is_dead s.S.graph r);
  (* and a repeated query is answered from the graph without expansions *)
  let before = s.S.expansions in
  (match S.solve s r with
  | S.Unsat -> ()
  | _ -> Alcotest.fail "expected unsat on requery");
  check "bot rule hit" true (s.S.dead_hits > 0);
  Alcotest.(check int) "no new expansions" before s.S.expansions

let test_graph_alive () =
  let s = S.create_session () in
  let r = re "a*b" in
  (* presolve off: this test is about the graph search's alive marking *)
  (match S.solve ~presolve:false s r with
  | S.Sat _ -> ()
  | _ -> Alcotest.fail "expected sat");
  check "start vertex alive" true (S.G.is_alive s.S.graph r);
  check "not dead" false (S.G.is_dead s.S.graph r)

let test_ablation_dead_state () =
  (* without dead-state elimination the procedure still terminates and
     agrees (the graph exploration itself is complete) *)
  let s = S.create_session () in
  match S.solve ~dead_state_elim:false s (re "(.*a.{4})&(.*b.{4})") with
  | S.Unsat -> ()
  | _ -> Alcotest.fail "expected unsat without dead-state elimination"

let test_budget () =
  (* an unsat proof needs to close the whole reachable space, which a
     3-expansion budget cannot do *)
  match S.solve ~budget:3 session (re "(.*a.{10})&(.*b.{10})") with
  | S.Unknown _ -> ()
  | S.Sat _ | S.Unsat -> Alcotest.fail "expected budget exhaustion"

(* -- side constraints -------------------------------------------------- *)

let test_side_length () =
  let r = re "a*" in
  (match S.solve ~side:{ S.no_side with min_len = 3 } session r with
  | S.Sat w -> Alcotest.(check int) "length >= 3" 3 (List.length w)
  | _ -> Alcotest.fail "expected sat");
  (match S.solve ~side:{ S.no_side with max_len = Some 2 } session (re "a{4,}") with
  | S.Unsat -> ()
  | _ -> Alcotest.fail "expected unsat under max length");
  match
    S.solve ~side:{ S.no_side with min_len = 2; max_len = Some 2 } session (re "a|aaa")
  with
  | S.Unsat -> ()
  | _ -> Alcotest.fail "expected unsat: no word of length exactly 2"

let test_side_char_at () =
  (* Section 2: with side constraint s0 = 0 blocked, search backtracks. *)
  let r = re ".*\\d.*&~(.*01.*)" in
  let not_zero = A.neg (A.of_ranges [ (Char.code '0', Char.code '0') ]) in
  (match S.solve ~side:{ S.no_side with char_at = [ (0, not_zero) ] } session r with
  | S.Sat w ->
    check "witness respects s0 <> 0" true (List.hd w <> Char.code '0');
    check "witness matches" true (Ref.matches r w)
  | _ -> Alcotest.fail "expected sat");
  (* an impossible positional constraint *)
  let zero = A.of_ranges [ (Char.code '0', Char.code '0') ] in
  match
    S.solve ~side:{ S.no_side with char_at = [ (0, zero) ] } session (re "[a-z]+")
  with
  | S.Unsat -> ()
  | _ -> Alcotest.fail "expected unsat under contradicting position constraint"

(* -- derived queries --------------------------------------------------- *)

let test_subset_equiv () =
  let sub r1 r2 = S.subset session (re r1) (re r2) in
  Alcotest.(check (option bool)) "a+ subset a*" (Some true) (sub "a+" "a*");
  Alcotest.(check (option bool)) "a* not subset a+" (Some false) (sub "a*" "a+");
  Alcotest.(check (option bool)) "loops subset star" (Some true) (sub "a{2,7}" "a*");
  Alcotest.(check (option bool)) "equiv demorgan" (Some true)
    (S.equiv session (re "~(a|b)") (re "~a&~b"));
  Alcotest.(check (option bool)) "equiv star unfold" (Some true)
    (S.equiv session (re "a*") (re "()|aa*"));
  Alcotest.(check (option bool)) "not equiv" (Some false)
    (S.equiv session (re "a*") (re "a+"))

(* -- formulas ----------------------------------------------------------- *)

let test_formula_basic () =
  let f =
    S.FAnd
      [ S.In (re "\\d{4}-[a-zA-Z]{3}-\\d{2}")
      ; S.FOr [ S.In (re "2019.*"); S.In (re "2020.*") ] ]
  in
  (match S.solve_formula session f with
  | S.Sat w ->
    check "formula witness date" true (Ref.matches (re "\\d{4}-[a-zA-Z]{3}-\\d{2}") w);
    check "formula witness year" true
      (Ref.matches (re "2019.*|2020.*") w)
  | _ -> Alcotest.fail "expected sat");
  let broken =
    S.FAnd
      [ S.In (re "\\d{4}-[a-zA-Z]{3}-\\d{2}")
      ; S.FOr [ S.In (re ".*2019"); S.In (re ".*2020") ] ]
  in
  match S.solve_formula session broken with
  | S.Unsat -> ()
  | _ -> Alcotest.fail "expected unsat for broken date policy"

let test_formula_negation () =
  (* not(in(s, r)) becomes membership in the complement *)
  let f = S.FAnd [ S.In (re ".*\\d.*"); S.FNot (S.In (re ".*01.*")) ] in
  (match S.solve_formula session f with
  | S.Sat w ->
    check "contains digit" true (Ref.matches (re ".*\\d.*") w);
    check "avoids 01" false (Ref.matches (re ".*01.*") w)
  | _ -> Alcotest.fail "expected sat");
  match S.solve_formula session (S.FAnd [ S.In (re "ab"); S.FNot (S.In (re "ab")) ]) with
  | S.Unsat -> ()
  | _ -> Alcotest.fail "expected unsat for r and not r"

let test_formula_lengths () =
  let f = S.FAnd [ S.In (re "a*b*"); S.Len_eq 4; S.Char_at (0, A.of_ranges [ (Char.code 'b', Char.code 'b') ]) ] in
  (match S.solve_formula session f with
  | S.Sat w ->
    Alcotest.(check int) "length 4" 4 (List.length w);
    check "all b" true (List.for_all (fun c -> c = Char.code 'b') w)
  | _ -> Alcotest.fail "expected sat");
  match
    S.solve_formula session
      (S.FAnd [ S.In (re "a{2}|a{6}"); S.Len_ge 3; S.Len_le 5 ])
  with
  | S.Unsat -> ()
  | _ -> Alcotest.fail "expected unsat: lengths 2 and 6 excluded"

let test_formula_tautology_contradiction () =
  (match S.solve_formula session (S.FOr [ S.In (re "a"); S.FNot (S.In (re "a")) ]) with
  | S.Sat _ -> ()
  | _ -> Alcotest.fail "tautology should be sat");
  match S.solve_formula session S.FFalse with
  | S.Unsat -> ()
  | _ -> Alcotest.fail "false should be unsat"

let suite =
  ( "solver",
    [ Alcotest.test_case "basic sat" `Quick test_basic_sat
    ; Alcotest.test_case "basic unsat" `Quick test_basic_unsat
    ; Alcotest.test_case "shortest witness" `Quick test_witness_shortest
    ; Alcotest.test_case "password constraints" `Quick test_password
    ; Alcotest.test_case "date example (Figure 1)" `Quick test_date_example
    ; Alcotest.test_case "blowup family" `Quick test_blowup_family
    ; Alcotest.test_case "dead-state graph" `Quick test_dead_state_graph
    ; Alcotest.test_case "alive marking" `Quick test_graph_alive
    ; Alcotest.test_case "ablation: no dead states" `Quick test_ablation_dead_state
    ; Alcotest.test_case "budget" `Quick test_budget
    ; Alcotest.test_case "side: lengths" `Quick test_side_length
    ; Alcotest.test_case "side: char at" `Quick test_side_char_at
    ; Alcotest.test_case "subset and equiv" `Quick test_subset_equiv
    ; Alcotest.test_case "formula: date" `Quick test_formula_basic
    ; Alcotest.test_case "formula: negation" `Quick test_formula_negation
    ; Alcotest.test_case "formula: lengths" `Quick test_formula_lengths
    ; Alcotest.test_case "formula: taut/contra" `Quick test_formula_tautology_contradiction
    ] )
