(* Tests for the SMT-LIB QF_S front-end: the s-expression reader, the
   regex term language, formula translation, and end-to-end scripts. *)

module A = Sbd_alphabet.Bdd
module R = Sbd_regex.Regex.Make (A)
module P = Sbd_regex.Parser.Make (R)
module T = Sbd_service.Default.Make (R)
module E = T.E

let check = Alcotest.(check bool)
let check_str = Alcotest.(check string)

let contains_sub s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

let run_output src = (E.run src).E.output

let first_outcome src =
  match (E.run src).E.outcomes with
  | o :: _ -> o
  | [] -> Alcotest.fail "no check-sat outcome"

(* -- sexp reader -------------------------------------------------------- *)

let test_sexp () =
  let open Sbd_smtlib.Sexp in
  (match parse_all "(a (b c) \"lit\\u{41}\") ; comment\n(d)" with
  | Ok [ List [ Atom "a"; List [ Atom "b"; Atom "c" ]; Str "lit\\u{41}" ]; List [ Atom "d" ] ]
    -> ()
  | Ok other ->
    Alcotest.failf "unexpected parse: %s"
      (String.concat " " (List.map (Format.asprintf "%a" pp) other))
  | Error (pos, msg) -> Alcotest.failf "parse error at %d: %s" pos msg);
  (match parse_all "(a \"x\"\"y\")" with
  | Ok [ List [ Atom "a"; Str "x\"y" ] ] -> ()
  | _ -> Alcotest.fail "quote escape");
  match parse_all "(unclosed" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected parse error"

let test_string_decode () =
  Alcotest.(check (list int)) "plain" [ 97; 98 ] (E.decode_string "ab");
  Alcotest.(check (list int)) "braced escape" [ 0x4E2D ] (E.decode_string "\\u{4E2D}");
  Alcotest.(check (list int)) "fixed escape" [ 0x0041 ] (E.decode_string "\\u0041");
  check_str "roundtrip" "ab" (E.encode_string (E.decode_string "ab"))

(* -- end-to-end scripts -------------------------------------------------- *)

let script_header = "(set-logic QF_S)\n(declare-fun s () String)\n"

let test_simple_sat () =
  let src =
    script_header
    ^ "(assert (str.in_re s (re.++ (str.to_re \"ab\") (re.* (str.to_re \"c\")))))\n"
    ^ "(check-sat)\n"
  in
  match first_outcome src with
  | E.Sat [ ("s", v) ] -> check "model matches" true (String.length v >= 2)
  | _ -> Alcotest.fail "expected sat with model"

let test_simple_unsat () =
  let src =
    script_header
    ^ "(assert (str.in_re s (re.range \"a\" \"c\")))\n"
    ^ "(assert (str.in_re s (re.range \"x\" \"z\")))\n(check-sat)\n"
  in
  match first_outcome src with
  | E.Unsat -> ()
  | _ -> Alcotest.fail "expected unsat"

let test_boolean_combination () =
  (* the paper's date example in SMT-LIB form *)
  let date_re =
    "(re.++ ((_ re.^ 4) (re.range \"0\" \"9\")) (str.to_re \"-\") \
     ((_ re.^ 3) (re.union (re.range \"a\" \"z\") (re.range \"A\" \"Z\"))) \
     (str.to_re \"-\") ((_ re.^ 2) (re.range \"0\" \"9\")))"
  in
  let ok =
    script_header
    ^ Printf.sprintf "(assert (str.in_re s %s))\n" date_re
    ^ "(assert (or (str.in_re s (re.++ (str.to_re \"2019\") re.all)) \
       (str.in_re s (re.++ (str.to_re \"2020\") re.all))))\n(check-sat)\n(get-model)\n"
  in
  (match first_outcome ok with
  | E.Sat [ ("s", v) ] ->
    check "model looks like a date" true
      (String.length v = 11 && (String.sub v 0 4 = "2019" || String.sub v 0 4 = "2020"))
  | _ -> Alcotest.fail "expected sat date");
  let broken =
    script_header
    ^ Printf.sprintf "(assert (str.in_re s %s))\n" date_re
    ^ "(assert (or (str.in_re s (re.++ re.all (str.to_re \"2019\"))) \
       (str.in_re s (re.++ re.all (str.to_re \"2020\")))))\n(check-sat)\n"
  in
  match first_outcome broken with
  | E.Unsat -> ()
  | _ -> Alcotest.fail "expected unsat broken date"

let test_negation_complement () =
  let src =
    script_header
    ^ "(assert (str.in_re s (re.++ re.all (re.range \"0\" \"9\") re.all)))\n"
    ^ "(assert (not (str.in_re s (re.++ re.all (str.to_re \"01\") re.all))))\n"
    ^ "(check-sat)\n"
  in
  (match first_outcome src with
  | E.Sat _ -> ()
  | _ -> Alcotest.fail "expected sat password");
  let src2 =
    script_header
    ^ "(assert (str.in_re s (re.comp re.none)))\n(check-sat)\n"
  in
  match first_outcome src2 with
  | E.Sat _ -> ()
  | _ -> Alcotest.fail "complement of none is all"

let test_lengths_and_literals () =
  let src =
    script_header
    ^ "(assert (str.in_re s (re.* (str.to_re \"ab\"))))\n"
    ^ "(assert (>= (str.len s) 3))\n(assert (<= (str.len s) 5))\n(check-sat)\n"
  in
  (match first_outcome src with
  | E.Sat [ ("s", v) ] -> check_str "abab" "abab" v
  | _ -> Alcotest.fail "expected sat of length 4");
  let src2 = script_header ^ "(assert (= s \"hello\"))\n(check-sat)\n(get-model)\n" in
  let r = E.run src2 in
  (match r.E.outcomes with
  | [ E.Sat [ ("s", "hello") ] ] -> ()
  | _ -> Alcotest.fail "expected model hello");
  check "model printed" true
    (contains_sub r.E.output "hello")

let test_prefix_suffix_contains () =
  let src =
    script_header
    ^ "(assert (str.prefixof \"ab\" s))\n(assert (str.suffixof \"yz\" s))\n"
    ^ "(assert (str.contains s \"mm\"))\n(check-sat)\n"
  in
  match first_outcome src with
  | E.Sat [ ("s", v) ] ->
    check "prefix" true (String.length v >= 2 && String.sub v 0 2 = "ab");
    check "suffix" true (String.sub v (String.length v - 2) 2 = "yz");
    check "contains" true (contains_sub v "mm")
  | _ -> Alcotest.fail "expected sat"

let test_multi_var () =
  let src =
    "(set-logic QF_S)\n(declare-fun x () String)\n(declare-fun y () String)\n"
    ^ "(assert (str.in_re x (re.+ (re.range \"a\" \"a\"))))\n"
    ^ "(assert (str.in_re y (re.+ (re.range \"b\" \"b\"))))\n(check-sat)\n"
  in
  match first_outcome src with
  | E.Sat model ->
    check "x is a+" true (List.assoc "x" model = "a");
    check "y is b+" true (List.assoc "y" model = "b")
  | _ -> Alcotest.fail "expected sat multi-var"

let test_push_pop () =
  let src =
    script_header
    ^ "(assert (str.in_re s (re.+ (re.range \"a\" \"a\"))))\n(check-sat)\n"
    ^ "(push)\n(assert (str.in_re s (re.+ (re.range \"b\" \"b\"))))\n(check-sat)\n"
    ^ "(pop)\n(check-sat)\n"
  in
  match (E.run src).E.outcomes with
  | [ E.Sat _; E.Unsat; E.Sat _ ] -> ()
  | other -> Alcotest.failf "unexpected outcomes (%d)" (List.length other)

let test_ground_membership () =
  let src =
    "(set-logic QF_S)\n(assert (str.in_re \"abc\" (re.++ (str.to_re \"ab\") re.allchar)))\n(check-sat)\n"
  in
  (match first_outcome src with
  | E.Sat _ -> ()
  | _ -> Alcotest.fail "ground membership should be sat");
  let src2 =
    "(set-logic QF_S)\n(assert (str.in_re \"abc\" (str.to_re \"ab\")))\n(check-sat)\n"
  in
  match first_outcome src2 with
  | E.Unsat -> ()
  | _ -> Alcotest.fail "ground mismatch should be unsat"

let test_unsupported () =
  let src =
    "(set-logic QF_S)\n(declare-fun x () String)\n(declare-fun y () String)\n"
    ^ "(assert (= x y))\n(check-sat)\n"
  in
  match first_outcome src with
  | E.Unknown _ -> ()
  | _ -> Alcotest.fail "word equations should be unknown"

let test_ite_xor () =
  let src =
    script_header
    ^ "(assert (ite (str.in_re s (re.+ (re.range \"a\" \"a\"))) \
       (str.in_re s (re.range \"a\" \"a\")) (str.in_re s (str.to_re \"zz\"))))\n"
    ^ "(assert (>= (str.len s) 2))\n(check-sat)\n(get-model)\n"
  in
  (match first_outcome src with
  | E.Sat [ ("s", v) ] ->
    (* either aa-branch is blocked by (re.range a a) being length 1, so
       the model must be "zz" *)
    check_str "model" "zz" v
  | _ -> Alcotest.fail "expected sat with model zz");
  let src2 =
    script_header
    ^ "(assert (xor (str.in_re s (str.to_re \"a\")) (str.in_re s (str.to_re \"a\"))))\n"
    ^ "(check-sat)\n"
  in
  match first_outcome src2 with
  | E.Unsat -> ()
  | _ -> Alcotest.fail "xor of identical constraints is unsat"

let test_re_diff_and_loop () =
  let src =
    script_header
    ^ "(assert (str.in_re s (re.diff (re.* (re.range \"a\" \"b\")) \
       (re.* (re.range \"a\" \"a\")))))\n"
    ^ "(assert (<= (str.len s) 1))\n(check-sat)\n(get-model)\n"
  in
  (match first_outcome src with
  | E.Sat [ ("s", "b") ] -> ()
  | E.Sat [ ("s", v) ] -> Alcotest.failf "expected b, got %S" v
  | _ -> Alcotest.fail "expected sat");
  (* (_ re.^ n) and (_ re.loop m n) *)
  let src2 =
    script_header
    ^ "(assert (str.in_re s ((_ re.loop 2 3) (str.to_re \"ab\"))))\n"
    ^ "(assert (not (str.in_re s ((_ re.^ 2) (str.to_re \"ab\")))))\n(check-sat)\n(get-model)\n"
  in
  match first_outcome src2 with
  | E.Sat [ ("s", "ababab") ] -> ()
  | E.Sat [ ("s", v) ] -> Alcotest.failf "expected ababab, got %S" v
  | _ -> Alcotest.fail "expected sat"

let test_nested_push_pop () =
  let src =
    script_header
    ^ "(push)\n(assert (str.in_re s (str.to_re \"a\")))\n"
    ^ "(push)\n(assert (str.in_re s (str.to_re \"b\")))\n(check-sat)\n"
    ^ "(pop)\n(check-sat)\n(pop)\n(check-sat)\n"
  in
  match (E.run src).E.outcomes with
  | [ E.Unsat; E.Sat _; E.Sat _ ] -> ()
  | other -> Alcotest.failf "unexpected outcomes (%d)" (List.length other)

let test_output_format () =
  let out =
    run_output (script_header ^ "(assert (str.in_re s re.none))\n(check-sat)\n")
  in
  check_str "prints unsat" "unsat\n" out
(* [stopped] marks a script that ended on an (error ...): a parse error
   or an unsupported command, never an unknown check-sat or a get-model
   without a model. *)
let test_stopped () =
  let decl = "(declare-const s String)(assert (str.in_re s (str.to_re \"ab\")))" in
  List.iter
    (fun (what, src, expect) ->
      check what expect (E.run src).E.stopped)
    [
      ("complete script", decl ^ "(check-sat)", false);
      ("get-model without a model", "(get-model)" ^ decl ^ "(check-sat)", false);
      ("truncated script", decl ^ "(check-sat", true);
      ("unsupported command", decl ^ "(check-sat)(frob)(check-sat)", true);
    ];
  let r = E.run (decl ^ "(frob)") in
  check "the stop is the last outcome" true
    (match List.rev r.E.outcomes with E.Unknown _ :: _ -> true | _ -> false)

let suite =
  ( "smtlib",
    [ Alcotest.test_case "sexp reader" `Quick test_sexp
    ; Alcotest.test_case "string decoding" `Quick test_string_decode
    ; Alcotest.test_case "simple sat" `Quick test_simple_sat
    ; Alcotest.test_case "simple unsat" `Quick test_simple_unsat
    ; Alcotest.test_case "boolean combination (date)" `Quick test_boolean_combination
    ; Alcotest.test_case "negation and complement" `Quick test_negation_complement
    ; Alcotest.test_case "lengths and literals" `Quick test_lengths_and_literals
    ; Alcotest.test_case "prefix/suffix/contains" `Quick test_prefix_suffix_contains
    ; Alcotest.test_case "multiple variables" `Quick test_multi_var
    ; Alcotest.test_case "push/pop" `Quick test_push_pop
    ; Alcotest.test_case "ground membership" `Quick test_ground_membership
    ; Alcotest.test_case "unsupported constructs" `Quick test_unsupported
    ; Alcotest.test_case "ite and xor" `Quick test_ite_xor
    ; Alcotest.test_case "re.diff and loops" `Quick test_re_diff_and_loop
    ; Alcotest.test_case "nested push/pop" `Quick test_nested_push_pop
    ; Alcotest.test_case "output format" `Quick test_output_format
    ; Alcotest.test_case "script stops on an error" `Quick test_stopped ] )
