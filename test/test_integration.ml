(* End-to-end integration tests: benchmark generator -> SMT-LIB rendering
   -> s-expression parser -> evaluator -> answer, checked against the
   generator's ground-truth label.  This exercises the full pipeline a
   downstream user of the .smt2 corpus would run, including the
   top-level-assertion decomposition of To_smt.script. *)

module A = Sbd_alphabet.Bdd
module R = Sbd_regex.Regex.Make (A)
module P = Sbd_regex.Parser.Make (R)
module Tw = Sbd_service.Default.Make (R)
module E = Tw.E
module T = Sbd_smtlib.To_smt.Make (R)
module I = Sbd_benchgen.Instance
module Cf = Sbd_regex.Casefold.Make (R)
module D = Tw.D

let check = Alcotest.(check bool)

let roundtrip_instances name instances =
  List.iter
    (fun (inst : I.t) ->
      match inst.expected with
      | I.Unlabeled -> ()
      | label -> (
        match P.parse inst.pattern with
        | Error (pos, msg) ->
          Alcotest.failf "%s/%s: pattern parse error at %d: %s" name inst.id pos msg
        | Ok r -> (
          let script = T.script r in
          match (E.run ~budget:400_000 script).E.outcomes with
          | [ E.Sat _ ] ->
            check (Printf.sprintf "%s/%s sat" name inst.id) true (label = I.Sat)
          | [ E.Unsat ] ->
            check (Printf.sprintf "%s/%s unsat" name inst.id) true (label = I.Unsat)
          | [ E.Unknown why ] ->
            Alcotest.failf "%s/%s: unknown (%s)" name inst.id why
          | _ -> Alcotest.failf "%s/%s: unexpected outcome count" name inst.id)))
    instances

let test_handwritten_roundtrip () =
  roundtrip_instances "date" (Sbd_benchgen.Handwritten.date ());
  roundtrip_instances "loops" (Sbd_benchgen.Handwritten.loops ());
  roundtrip_instances "blowup" (Sbd_benchgen.Handwritten.blowup ())

let test_password_roundtrip () =
  roundtrip_instances "password" (Sbd_benchgen.Handwritten.password ())

let test_sampled_standard_roundtrip () =
  let sample l = List.filteri (fun i _ -> i mod 17 = 0) l in
  roundtrip_instances "kaluza" (sample (Sbd_benchgen.Standard.kaluza ()));
  roundtrip_instances "slog" (sample (Sbd_benchgen.Standard.slog ()));
  roundtrip_instances "norn" (sample (Sbd_benchgen.Standard.norn ()));
  roundtrip_instances "norn-bool" (sample (Sbd_benchgen.Standard.norn_boolean ()))

(* The SMT-LIB rendering preserves the language: parse the rendered term
   back through the evaluator's regex translation and compare by
   matching. *)
let test_to_smt_term_roundtrip () =
  let patterns =
    [ "ab|cd"; "a{2,4}"; "a{3,}"; "[a-c]x?"; "~(.*01.*)&.*\\d.*"
    ; "\\d{4}-[a-zA-Z]{3}-\\d{2}"; "()"; "a&~a"; ".*" ]
  in
  let words = [ ""; "a"; "ab"; "cd"; "aa"; "aaa"; "aaaa"; "ax"; "01"; "7"
              ; "2019-Nov-25" ] in
  List.iter
    (fun pat ->
      let r = P.parse_exn pat in
      let term = T.term r in
      match Sbd_smtlib.Sexp.parse_all term with
      | Error (pos, msg) -> Alcotest.failf "%s: bad term at %d: %s" pat pos msg
      | Ok [ sexp ] ->
        let r' = E.regex_of_sexp sexp in
        List.iter
          (fun w ->
            check
              (Printf.sprintf "%s on %S" pat w)
              (D.matches_string r w) (D.matches_string r' w))
          words
      | Ok _ -> Alcotest.failf "%s: expected one term" pat)
    patterns

(* -- case folding -------------------------------------------------------- *)

let test_case_folding () =
  let r = Cf.case_insensitive (P.parse_exn "hello[0-9]") in
  List.iter
    (fun (s, expected) ->
      check (Printf.sprintf "(?i)hello on %S" s) expected (D.matches_string r s))
    [ ("hello5", true); ("HELLO5", true); ("HeLlO9", true); ("hell5", false)
    ; ("hello", false) ];
  (* classes fold too *)
  let cls = Cf.case_insensitive (P.parse_exn "[a-c]+") in
  check "folded class accepts upper" true (D.matches_string cls "AbC");
  check "folded class rejects others" false (D.matches_string cls "AbD");
  (* non-letters are untouched *)
  let digits = Cf.case_insensitive (P.parse_exn "\\d{2}") in
  check "digits unchanged" true (D.matches_string digits "42")

let suite =
  ( "integration",
    [ Alcotest.test_case "handwritten suites via SMT-LIB" `Slow test_handwritten_roundtrip
    ; Alcotest.test_case "password suite via SMT-LIB" `Slow test_password_roundtrip
    ; Alcotest.test_case "standard suites via SMT-LIB (sampled)" `Slow
        test_sampled_standard_roundtrip
    ; Alcotest.test_case "regex -> SMT-LIB term roundtrip" `Quick test_to_smt_term_roundtrip
    ; Alcotest.test_case "case folding" `Quick test_case_folding ] )
