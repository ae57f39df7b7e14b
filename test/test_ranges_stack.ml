(* The entire stack instantiated with the interval-list algebra instead
   of the BDD algebra: every layer is functorized over
   Sbd_alphabet.Algebra.S, and the paper's claims are algebra-generic,
   so the key behaviours must hold identically.  This suite re-runs a
   condensed battery -- the Section 2 running example, solving, SBFA,
   SAFA, matcher, equivalence -- under Sbd_alphabet.Ranges. *)

module A = Sbd_alphabet.Ranges
module R = Sbd_regex.Regex.Make (A)
module P = Sbd_regex.Parser.Make (R)
module T = Sbd_service.Default.Make (R)
module D = T.D
module Sbfa = Sbd_core.Sbfa.Make (R)
module Safa = Sbd_core.Safa.Make (R)
module C = T.C
module S = T.S
module Ref = Sbd_classic.Refmatch.Make (R)
module Brz = Sbd_classic.Brzozowski.Make (R)
module Simp = Sbd_regex.Simplify.Make (R)

let re = P.parse_exn
let check = Alcotest.(check bool)
let eq msg a b = check msg true (R.equal a b)
let word s = List.init (String.length s) (fun i -> Char.code s.[i])
let session = S.create_session ()

let test_running_example () =
  let r1 = re ".*\\d.*" and r2 = re "~(.*01.*)" in
  let r = R.inter r1 r2 in
  let r3 = R.inter r2 (re "~(1.*)") in
  eq "delta(R)(0) = R3" r3 (D.derive (Char.code '0') r);
  eq "delta(R)(5) = R2" r2 (D.derive (Char.code '5') r);
  eq "delta(R)(x) = R" r (D.derive (Char.code 'x') r);
  check "matches 0" true (D.matches_string r "0");
  check "rejects 01" false (D.matches_string r "01")

let test_solving () =
  (match S.solve session (re "\\d{4}-[a-zA-Z]{3}-\\d{2}&(2019.*|2020.*)") with
  | S.Sat w -> check "date witness" true (Ref.matches (re "\\d{4}-[a-zA-Z]{3}-\\d{2}") w)
  | _ -> Alcotest.fail "expected sat");
  (match S.solve session (re "\\d{4}-[a-zA-Z]{3}-\\d{2}&(.*2019|.*2020)") with
  | S.Unsat -> ()
  | _ -> Alcotest.fail "expected unsat");
  (match S.solve session (re "(.*a.{8})&(.*b.{8})") with
  | S.Unsat -> ()
  | _ -> Alcotest.fail "expected unsat blowup");
  match S.solve session (re "~(.*a.{40})") with
  | S.Sat _ -> ()
  | _ -> Alcotest.fail "expected sat complement"

let test_sbfa_and_safa () =
  let r = re ".*[a-z].*&.*\\d.*" in
  let m = Sbfa.build_exn r in
  Alcotest.(check int) "five states" 5 (Sbfa.num_states m);
  check "linear bound" true (Sbfa.linear_bound_holds m);
  check "accepts a1" true (Sbfa.accepts m (word "a1"));
  check "rejects aa" false (Sbfa.accepts m (word "aa"));
  match Safa.of_sbfa_regex r with
  | Some safa ->
    check "safa accepts 1a" true (Safa.accepts safa (word "1a"));
    check "safa rejects 11" false (Safa.accepts safa (word "11"))
  | None -> Alcotest.fail "SAFA budget"

let test_engines_agree () =
  let patterns = [ "a*b"; "(ab|ba)+"; "~(.*aa.*)&(a|b)*"; "a{2,4}&~(aaa)" ] in
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
        (fun w ->
          let expected = Ref.matches r w in
          check "deriv" expected (D.matches r w);
          check "brz" expected (Brz.matches r w);
          check "matcher" expected (Brz.Dfa.matches m w))
        (words 4))
    patterns

let test_equiv_and_simplify () =
  let csession = C.create_session () in
  let equiv r s =
    match C.equiv csession r s with
    | C.Proved -> Some true
    | C.Refuted _ -> Some false
    | C.Unknown _ -> None
  in
  Alcotest.(check (option bool)) "demorgan" (Some true)
    (equiv (re "~(a|b)") (re "~a&~b"));
  Alcotest.(check (option bool)) "loops" (Some true)
    (equiv (re "a{3}{3}") (re "a{9}"));
  let r = re "(a*b*)*|(ab&ab)" in
  let r' = Simp.simplify r in
  check "simplify shrinks" true (R.size r' <= R.size r);
  Alcotest.(check (option bool)) "simplify equivalent" (Some true) (equiv r r')

let test_side_constraints () =
  let r = re ".*\\d.*&~(.*01.*)" in
  let not_zero = A.neg (A.of_ranges [ (Char.code '0', Char.code '0') ]) in
  match S.solve ~side:{ S.no_side with char_at = [ (0, not_zero) ] } session r with
  | S.Sat w ->
    check "respects side constraint" true (List.hd w <> Char.code '0');
    check "witness valid" true (Ref.matches r w)
  | _ -> Alcotest.fail "expected sat"

let suite =
  ( "ranges-stack",
    [ Alcotest.test_case "running example" `Quick test_running_example
    ; Alcotest.test_case "solving" `Quick test_solving
    ; Alcotest.test_case "SBFA and SAFA" `Quick test_sbfa_and_safa
    ; Alcotest.test_case "engines agree" `Quick test_engines_agree
    ; Alcotest.test_case "equivalence and simplify" `Quick test_equiv_and_simplify
    ; Alcotest.test_case "side constraints" `Quick test_side_constraints ] )
