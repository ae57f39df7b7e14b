(* Tests for UTF-8 handling, witness enumeration, and validation of the
   generated benchmark labels against the solver and the oracle. *)

module A = Sbd_alphabet.Bdd
module Utf8 = Sbd_alphabet.Utf8
module R = Sbd_regex.Regex.Make (A)
module P = Sbd_regex.Parser.Make (R)
module T = Sbd_service.Default.Make (R)
module S = T.S
module Ref = Sbd_classic.Refmatch.Make (R)
module I = Sbd_benchgen.Instance

let re = P.parse_exn
let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* -- utf8 ---------------------------------------------------------------- *)

let test_utf8_roundtrip () =
  let cases =
    [ [] ; [ 0x41 ]; [ 0x41; 0x42; 0x43 ]; [ 0xE9 ] (* é *)
    ; [ 0x4E2D; 0x6587 ] (* CJK *); [ 0x7F; 0x80; 0x7FF; 0x800; 0xFFFF ]
    ; [ 0x391; 0x3B2 ] (* Greek *) ]
  in
  List.iter
    (fun cps ->
      match Utf8.decode (Utf8.encode cps) with
      | Ok cps' -> Alcotest.(check (list int)) "roundtrip" cps cps'
      | Error (Utf8.Malformed i) -> Alcotest.failf "malformed at %d" i)
    cases

let test_utf8_reject () =
  let bad =
    [ "\xC0\x80" (* overlong NUL *); "\x80" (* stray continuation *)
    ; "\xE0\x80\x80" (* overlong *); "\xED\xA0\x80" (* surrogate *)
    ; "\xF0\x90\x80\x80" (* astral: outside BMP *); "\xC3" (* truncated *) ]
  in
  List.iter
    (fun s ->
      match Utf8.decode s with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "accepted malformed %S" s)
    bad

let test_utf8_encode_reject () =
  (try
     ignore (Utf8.encode [ 0xD800 ]);
     Alcotest.fail "encoded surrogate"
   with Invalid_argument _ -> ());
  try
    ignore (Utf8.encode [ 0x10000 ]);
    Alcotest.fail "encoded astral code point"
  with Invalid_argument _ -> ()

let test_utf8_lossy () =
  Alcotest.(check (list int)) "lossy replaces bad bytes"
    [ 0x41; 0xFFFD; 0x42 ]
    (Utf8.decode_lossy "A\x80B");
  Alcotest.(check (list int)) "lossy passes good input"
    [ 0x4E2D ]
    (Utf8.decode_lossy (Utf8.encode [ 0x4E2D ]))

(* regex matching through UTF-8: a CJK word through encode/decode *)
let test_utf8_matching () =
  let module D = S.D in
  let r = re "\\w+" in
  let input = Utf8.encode [ 0x4E2D; 0x6587; Char.code 'a' ] in
  match Utf8.decode input with
  | Ok cps -> check "CJK word matches via UTF-8" true (D.matches r cps)
  | Error _ -> Alcotest.fail "decode failed"

(* -- witness enumeration -------------------------------------------------- *)

let test_enumerate () =
  let session = S.create_session () in
  let ws = S.enumerate session (re "a{1,4}") 10 in
  (* the language has exactly 4 members *)
  check_int "four witnesses" 4 (List.length ws);
  let distinct = List.sort_uniq compare ws in
  check_int "all distinct" 4 (List.length distinct);
  List.iter (fun w -> check "member" true (Ref.matches (re "a{1,4}") w)) ws;
  (* infinite language: returns exactly n *)
  let ws = S.enumerate session (re "ab*") 5 in
  check_int "five witnesses" 5 (List.length ws);
  check_int "distinct" 5 (List.length (List.sort_uniq compare ws));
  (* empty language: returns none *)
  check_int "no witnesses" 0 (List.length (S.enumerate session (re "a&b") 3))

let test_enumerate_passwords () =
  let session = S.create_session () in
  let policy = re ".{4,8}&.*\\d.*&.*[a-z].*" in
  let ws = S.enumerate session policy 8 in
  check_int "eight passwords" 8 (List.length ws);
  List.iter (fun w -> check "policy holds" true (Ref.matches policy w)) ws

(* -- benchmark label validation ------------------------------------------ *)

(* Every labeled handwritten instance must agree with the dz3 solver at a
   generous budget -- this pins the hand-computed sat/unsat labels in
   handwritten.ml against the implementation. *)
let test_handwritten_labels () =
  let session = S.create_session () in
  List.iter
    (fun (inst : I.t) ->
      match inst.expected with
      | I.Unlabeled -> ()
      | label -> (
        match P.parse inst.pattern with
        | Error (pos, msg) ->
          Alcotest.failf "%s: parse error at %d: %s" inst.id pos msg
        | Ok r -> (
          match S.solve ~budget:2_000_000 session r with
          | S.Sat w ->
            check (Printf.sprintf "%s expected sat" inst.id) true (label = I.Sat);
            check (Printf.sprintf "%s witness valid" inst.id) true (Ref.matches r w)
          | S.Unsat ->
            check (Printf.sprintf "%s expected unsat" inst.id) true (label = I.Unsat)
          | S.Unknown why -> Alcotest.failf "%s: unknown (%s)" inst.id why)))
    (Sbd_benchgen.Handwritten.all () @ Sbd_benchgen.Handwritten.unicode ())

(* Sampled validation of the generated standard suites. *)
let test_standard_labels_sampled () =
  let session = S.create_session () in
  let sample l = List.filteri (fun i _ -> i mod 13 = 0) l in
  let all =
    sample (Sbd_benchgen.Standard.kaluza ())
    @ sample (Sbd_benchgen.Standard.slog ())
    @ sample (Sbd_benchgen.Standard.norn ())
    @ sample (Sbd_benchgen.Standard.sygus ())
    @ sample (Sbd_benchgen.Standard.norn_boolean ())
  in
  List.iter
    (fun (inst : I.t) ->
      match inst.expected with
      | I.Unlabeled -> ()
      | label -> (
        match P.parse inst.pattern with
        | Error (pos, msg) ->
          Alcotest.failf "%s: parse error at %d: %s" inst.id pos msg
        | Ok r -> (
          match S.solve ~budget:1_000_000 session r with
          | S.Sat _ -> check (inst.id ^ " sat") true (label = I.Sat)
          | S.Unsat -> check (inst.id ^ " unsat") true (label = I.Unsat)
          | S.Unknown why -> Alcotest.failf "%s: unknown (%s)" inst.id why)))
    all

(* Every generated pattern in every suite parses. *)
let test_all_patterns_parse () =
  List.iter
    (fun (inst : I.t) ->
      match P.parse inst.pattern with
      | Ok _ -> ()
      | Error (pos, msg) ->
        Alcotest.failf "%s (%s): parse error at %d: %s" inst.id inst.pattern pos msg)
    (Sbd_benchgen.Standard.all ())

let suite =
  ( "misc",
    [ Alcotest.test_case "utf8 roundtrip" `Quick test_utf8_roundtrip
    ; Alcotest.test_case "utf8 rejects malformed" `Quick test_utf8_reject
    ; Alcotest.test_case "utf8 encode rejects" `Quick test_utf8_encode_reject
    ; Alcotest.test_case "utf8 lossy decoding" `Quick test_utf8_lossy
    ; Alcotest.test_case "utf8 matching" `Quick test_utf8_matching
    ; Alcotest.test_case "witness enumeration" `Quick test_enumerate
    ; Alcotest.test_case "password enumeration" `Quick test_enumerate_passwords
    ; Alcotest.test_case "handwritten labels valid" `Slow test_handwritten_labels
    ; Alcotest.test_case "standard labels valid (sampled)" `Slow test_standard_labels_sampled
    ; Alcotest.test_case "all patterns parse" `Quick test_all_patterns_parse ] )
