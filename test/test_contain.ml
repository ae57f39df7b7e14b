(* Tests for lib/contain: the coinductive containment/equivalence prover.
   Covers order properties (reflexivity, transitivity, antisymmetry up to
   equivalence), textbook inclusions, Boolean lattice facts, witness
   validity against the reference matcher, agreement with the
   [is_empty (r & ~s)] reduction, and budget exhaustion soundness. *)

module A = Sbd_alphabet.Bdd
module R = Sbd_regex.Regex.Make (A)
module P = Sbd_regex.Parser.Make (R)
module T = Sbd_service.Default.Make (R)
module C = T.C
module S = T.S
module Ref = Sbd_classic.Refmatch.Make (R)

let re = P.parse_exn
let session = C.create_session ()
let ssession = S.create_session ()

let subset r s = C.subset session (re r) (re s)
let equiv r s = C.equiv session (re r) (re s)

let expect_proved what = function
  | C.Proved -> ()
  | C.Refuted w ->
    Alcotest.failf "%s: expected proved, refuted by %s" what
      (String.concat ";" (List.map string_of_int w))
  | C.Unknown why -> Alcotest.failf "%s: expected proved, got unknown (%s)" what why

let expect_refuted what = function
  | C.Refuted _ -> ()
  | C.Proved -> Alcotest.failf "%s: expected refuted, got proved" what
  | C.Unknown why ->
    Alcotest.failf "%s: expected refuted, got unknown (%s)" what why

let test_reflexive () =
  List.iter
    (fun p ->
      expect_proved (p ^ " ⊑ itself") (subset p p);
      expect_proved (p ^ " ≡ itself") (equiv p p))
    [ "a"; "(ab)*"; "a{2,5}|b+"; "~(ab)&.*c"; "[a-z]+\\d{2}" ]

let test_textbook_pairs () =
  expect_proved "(ab)*a ⊑ a(ba)*" (subset "(ab)*a" "a(ba)*");
  expect_proved "a(ba)* ⊑ (ab)*a" (subset "a(ba)*" "(ab)*a");
  expect_proved "(ab)*a ≡ a(ba)*" (equiv "(ab)*a" "a(ba)*");
  expect_proved "a{2,3} ⊑ a{1,4}" (subset "a{2,3}" "a{1,4}");
  expect_refuted "a{1,4} ⊑ a{2,3}" (subset "a{1,4}" "a{2,3}");
  expect_proved "a* ≡ (a|aa)*" (equiv "a*" "(a|aa)*");
  expect_proved "(a|b)* ≡ (a*b*)*" (equiv "(a|b)*" "(a*b*)*");
  expect_refuted "(ab)* ⊑ (ba)*" (subset "(ab)*" "(ba)*");
  expect_proved "abc ⊑ [a-z]+" (subset "abc" "[a-z]+");
  expect_refuted "[a-z]+ ⊑ abc" (subset "[a-z]+" "abc")

let test_boolean_lattice () =
  (* r&s ⊑ r ⊑ r|s for assorted r, s *)
  List.iter
    (fun (r, s) ->
      let both = Printf.sprintf "(%s)&(%s)" r s in
      let either = Printf.sprintf "(%s)|(%s)" r s in
      expect_proved (both ^ " ⊑ " ^ r) (subset both r);
      expect_proved (r ^ " ⊑ " ^ either) (subset r either);
      expect_proved (both ^ " ⊑ " ^ either) (subset both either))
    [ ("(ab)*", "a.*"); ("[a-m]+", "[h-z]+"); ("a{2,7}", "a*b?") ];
  (* complement flips containment *)
  expect_proved "~(.*) ⊑ anything" (subset "~(.*)&." "xyz");
  expect_proved "r ⊑ .*" (subset "(a|bc)+" ".*")

let test_transitivity_antisymmetry () =
  (* a{3,4} ⊑ a{2,5} ⊑ a{1,6}: check the composed edge too *)
  expect_proved "a{3,4} ⊑ a{2,5}" (subset "a{3,4}" "a{2,5}");
  expect_proved "a{2,5} ⊑ a{1,6}" (subset "a{2,5}" "a{1,6}");
  expect_proved "a{3,4} ⊑ a{1,6}" (subset "a{3,4}" "a{1,6}");
  (* mutual containment coincides with equivalence *)
  let r = "(a|b)*abb"
  and s = "(a|b)*abb&.*" in
  expect_proved "r ⊑ s" (subset r s);
  expect_proved "s ⊑ r" (subset s r);
  expect_proved "r ≡ s" (equiv r s)

let test_equiv_order_canonical () =
  (* equiv is symmetric; both argument orders must give one verdict *)
  let check_pair r s =
    let v1 = C.string_of_verdict (equiv r s)
    and v2 = C.string_of_verdict (equiv s r) in
    Alcotest.(check string) (r ^ " ≡ " ^ s ^ " symmetric") v1 v2
  in
  check_pair "(ab)*a" "a(ba)*";
  check_pair "a{1,4}" "a{2,3}";
  check_pair "[a-z]+" "[a-y]+|.*z.*&[a-z]+"

let test_witness_valid () =
  (* every refutation witness is in L(r) \ L(s), per the reference
     matcher (independent of the derivative engine) *)
  List.iter
    (fun (r, s) ->
      match subset r s with
      | C.Refuted w ->
        Alcotest.(check bool) (r ^ " accepts witness") true (Ref.matches (re r) w);
        Alcotest.(check bool) (s ^ " rejects witness") false (Ref.matches (re s) w)
      | C.Proved -> Alcotest.failf "%s ⊑ %s: expected refuted" r s
      | C.Unknown why -> Alcotest.failf "%s ⊑ %s: unknown (%s)" r s why)
    [ ("a{1,4}", "a{2,3}");
      ("(ab)*", "(ba)*");
      ("[a-z]+", "[a-m]+");
      (".*ab.*", ".*ba.*");
      ("a*b", "a+b") ]

let test_agrees_with_reduction () =
  (* the dedicated prover and the emptiness reduction
     is_empty (r & ~s) must agree wherever both decide *)
  let pairs =
    [ ("(ab)*a", "a(ba)*"); ("a{2,3}", "a{1,4}"); ("a{1,4}", "a{2,3}");
      ("(a|b)*", "(a*b*)*"); ("[a-z]+", "abc"); ("~(ab)", ".*");
      ("a*b*", "(a|b)*"); ("(a|b)*", "a*b*"); (".*a.*&.*b.*", ".*a.*") ]
  in
  List.iter
    (fun (rs, ss) ->
      let r = re rs and s = re ss in
      let direct = C.subset session r s in
      let reduction = S.solve ssession (R.inter r (R.compl s)) in
      match (direct, reduction) with
      | C.Proved, S.Sat w ->
        Alcotest.failf "%s ⊑ %s: prover says proved, reduction found %S" rs ss
          (S.string_of_witness w)
      | C.Refuted _, S.Unsat ->
        Alcotest.failf "%s ⊑ %s: prover says refuted, reduction says empty" rs ss
      | _ -> ())
    pairs

let test_budget_unknown_never_wrong () =
  (* with a tiny budget the only acceptable degradation is Unknown *)
  let hard_r = "(a|b){10,20}(c|d){5,15}"
  and hard_s = "(a|b|c|d){1,40}" in
  (match C.subset session ~budget:3 (re hard_r) (re hard_s) with
  | C.Unknown _ -> ()
  | C.Proved ->
    (* budget 3 could legitimately suffice only if memoized from an
       earlier query in this suite; a fresh session must say Unknown *)
    let fresh = C.create_session () in
    (match C.subset fresh ~budget:3 (re hard_r) (re hard_s) with
    | C.Unknown _ | C.Proved -> ()  (* proved within 3 only if truly tiny *)
    | C.Refuted _ -> Alcotest.fail "budget-3 refutation of a true inclusion")
  | C.Refuted _ -> Alcotest.fail "budget-3 refutation of a true inclusion");
  (* deadline exhaustion likewise yields Unknown, not a guess *)
  let dl = Sbd_obs.Obs.Deadline.make ~nodes:1 () in
  Sbd_obs.Obs.Deadline.charge dl 2;
  match C.subset (C.create_session ()) ~deadline:dl (re "(ab)*a") (re "a(ba)*") with
  | C.Unknown _ | C.Proved -> ()
  | C.Refuted _ -> Alcotest.fail "expired deadline produced a refutation"

let test_memo_reuse () =
  let s = C.create_session () in
  let r1 = re "(ab)*a" and r2 = re "a(ba)*" in
  expect_proved "first query" (C.subset s r1 r2);
  let entries = C.memo_entries s in
  Alcotest.(check bool) "memo populated" true (entries > 0);
  expect_proved "second query (memoized)" (C.subset s r1 r2);
  let stats = C.session_stats s in
  let get k = List.assoc k stats in
  Alcotest.(check bool) "two queries recorded" true (get "contain.queries" = 2.0);
  C.clear s;
  Alcotest.(check int) "clear empties memo" 0 (C.memo_entries s)

let suite =
  ( "contain",
    [ Alcotest.test_case "reflexivity" `Quick test_reflexive;
      Alcotest.test_case "textbook pairs" `Quick test_textbook_pairs;
      Alcotest.test_case "boolean lattice" `Quick test_boolean_lattice;
      Alcotest.test_case "transitivity/antisymmetry" `Quick
        test_transitivity_antisymmetry;
      Alcotest.test_case "equiv order-canonical" `Quick test_equiv_order_canonical;
      Alcotest.test_case "witness validity" `Quick test_witness_valid;
      Alcotest.test_case "agrees with reduction" `Quick test_agrees_with_reduction;
      Alcotest.test_case "budget exhaustion sound" `Quick
        test_budget_unknown_never_wrong;
      Alcotest.test_case "memo reuse" `Quick test_memo_reuse ] )
