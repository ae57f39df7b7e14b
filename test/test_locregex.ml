(* Tests for the location-aware derivative layer (lib/locregex,
   DESIGN.md §15): parser syntax and error offsets (lookarounds, POSIX
   bracket classes, class algebra), location-indexed nullability and
   derivative semantics via the engine (Locmatch) against the
   brute-force all-splits oracle (Locref), anchor elimination (lower)
   against word enumeration, and anchors, lookbehinds and malformed
   UTF-8 (on every byte split of the input too) against the oracle over
   the lossy decode. *)

module R = Sbd_service.Default.R
module P = Sbd_service.Default.P
module L = Sbd_service.Default.LR
module LP = Sbd_service.Default.LP
module LRef = Sbd_service.Default.LRef
module Ref = Sbd_service.Default.Ref
module LEng = Sbd_service.Default.LM
module LA = Sbd_service.Default.LA
module Byteclass = Sbd_engine.Byteclass

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let lre s =
  match LP.parse s with
  | Ok r -> r
  | Error (pos, msg) ->
    Alcotest.fail (Printf.sprintf "parse %S: %d: %s" s pos msg)

let re s =
  match P.parse s with
  | Ok r -> r
  | Error (pos, msg) ->
    Alcotest.fail (Printf.sprintf "parse %S: %d: %s" s pos msg)

(* Lossy-decode [s] exactly as the engine segments it: the code points
   and the byte offset of each scalar boundary. *)
let segment s =
  let n = String.length s in
  let cps = ref [] and bnd = ref [ 0 ] and pos = ref 0 in
  while !pos < n do
    let cp, pos' = Byteclass.scalar_forward s !pos n in
    cps := cp :: !cps;
    bnd := pos' :: !bnd;
    pos := pos'
  done;
  (Array.of_list (List.rev !cps), Array.of_list (List.rev !bnd))

(* -- parser: syntax ------------------------------------------------------- *)

let test_parse_syntax () =
  (* anchors and lookarounds build the expected nodes *)
  check "begin" true (L.equal (lre "^") L.begin_);
  check "end" true (L.equal (lre "$") L.end_);
  check "lookahead" true
    (L.equal (lre "(?=ab)") (L.look ~behind:false ~neg:false (re "ab")));
  check "neg lookahead" true
    (L.equal (lre "(?!ab)") (L.look ~behind:false ~neg:true (re "ab")));
  check "lookbehind" true
    (L.equal (lre "(?<=ab)") (L.look ~behind:true ~neg:false (re "ab")));
  check "neg lookbehind" true
    (L.equal (lre "(?<!ab)") (L.look ~behind:true ~neg:true (re "ab")));
  (* plain sub-syntax is untouched and round-trips through of_plain *)
  check "plain embedding" true
    (L.equal (lre "a(b|c)*") (L.of_plain (re "a(b|c)*")));
  (* to_plain inverts of_plain on zw-free terms *)
  (match L.to_plain (lre "a(b|c)*[0-9]{2,}") with
  | Some p -> check "to_plain" true (R.equal p (re "a(b|c)*[0-9]{2,}"))
  | None -> Alcotest.fail "to_plain returned None on a plain term");
  check "zw-term has no plain form" true (L.to_plain (lre "^a") = None);
  (* pp round-trips through the parser *)
  List.iter
    (fun s ->
      let t = lre s in
      check (Printf.sprintf "pp roundtrip %S" s) true
        (L.equal t (lre (L.to_string t))))
    [ "^a+b$"; "(?=ab)c*"; "(?<!x)y|z&~w"; "^(a|$)"; "(?<=a[0-9])b" ];
  (* the plain parser keeps '^'/'$' literal: opting into anchors is the
     extended grammar's job *)
  check "plain caret literal" true (R.equal (re "^") (re "\\^"));
  check "plain dollar literal" true (R.equal (re "a$b") (re "a\\$b"))

(* -- parser: POSIX classes and class algebra ------------------------------ *)

let test_parse_posix () =
  (* named classes coincide with the escape classes *)
  check "[[:digit:]] = \\d" true (R.equal (re "[[:digit:]]") (re "\\d"));
  check "[[:word:]] = \\w" true (R.equal (re "[[:word:]]") (re "\\w"));
  check "[[:^space:]] = \\S" true (R.equal (re "[[:^space:]]") (re "\\S"));
  check "alnum union" true
    (R.equal (re "[[:alpha:][:digit:]]") (re "[[:alnum:]]"));
  (* class algebra: difference and intersection *)
  check "difference" true
    (R.equal (re "[a-z--[aeiou]]") (re "[bcdfghjklmnpqrstvwxyz]"));
  check "intersection" true
    (R.equal (re "[[:alnum:]&&[^0-9]]") (re "[[:alpha:]]"));
  check "nested algebra" true
    (R.equal (re "[0-9--[4-6--[5]]]") (re "[01235789]"));
  (* both parsers share the lexical layer *)
  check "loc parser posix" true
    (L.equal (lre "[[:digit:]]+$") (L.concat (L.of_plain (re "\\d+")) L.end_));
  (* '[' not followed by ':' stays a literal class member, as before *)
  check "literal bracket" true (R.equal (re "[[a]") (re "[a[]"));
  (* lone '&' / '-' stay ordinary members *)
  check "lone amp" true (R.equal (re "[a&]") (re "[&a]"));
  check "trailing dash" true (R.equal (re "[a-]") (re "[\\-a]"))

(* -- parser: error offsets for multi-byte constructs ---------------------- *)

let err_pos p s =
  match p s with
  | Ok _ -> Alcotest.fail (Printf.sprintf "%S unexpectedly parsed" s)
  | Error (pos, _) -> pos

let test_parse_error_offsets () =
  (* unknown POSIX class: the opening '[' of '[:', not end-of-input *)
  check_int "[[:bogus:]]" 1 (err_pos P.parse "[[:bogus:]]");
  check_int "prefixed bogus" 3 (err_pos P.parse "ab[[:bogus:]]");
  check_int "unterminated posix" 1 (err_pos P.parse "[[:alpha]");
  check_int "loc parser same" 3 (err_pos LP.parse "ab[[:bogus:]]");
  (* unknown/truncated group kinds: the opening '(' *)
  check_int "(?<" 0 (err_pos LP.parse "(?<");
  check_int "a(?<x)" 1 (err_pos LP.parse "a(?<x)");
  check_int "(?#...)" 0 (err_pos LP.parse "(?#comment)");
  check_int "unterminated look" 2 (err_pos LP.parse "ab(?=cd");
  (* nested zero-width in a lookaround body: the construct's '(' *)
  check_int "nested anchor in body" 1 (err_pos LP.parse "a(?=b$)");
  (* oversized counter over a zero-width-containing term: the '{' *)
  check_int "zw loop bound" 5 (err_pos LP.parse "(?=a){99}")

(* -- engine vs the brute-force all-splits oracle -------------------------- *)

let loc_patterns =
  [ "^abc$"; "^a+"; "a$"; "^"; "$"; "^$"; "a^b"; "(^|a)b*$"
  ; "(?=ab)a."; "(?!ab)a."; "(?<=ab)c"; "(?<!ab)c"; ".*(?<=ab)"
  ; "(?=a+b)a*b?"; "(?!.*b).*"; "\\w+(?<=\\d)"; "(?<!\\d)ab"
  ; "(^a|b$){1,2}"; "~(^a)&.?.?"; "((?=a).)*"; "^\\d{2}(?=[a-z])[a-z]+$"
  ; "^a(?<=a)b"; "x$(?<=x)"; "(?<=a)(?=b).?" ]

let loc_inputs =
  [ ""; "a"; "b"; "ab"; "ba"; "abc"; "aab"; "abab"; "7ab"; "ab7"; "aaa"
  ; "bbb"; "cab"; "abcab"; "12ab"; "a\xc3\xa9b"; "\xc3\xa9" ]

let test_engine_vs_oracle () =
  List.iter
    (fun pat ->
      let t = lre pat in
      let eng = LEng.create ~mode:Byteclass.Utf8 t in
      List.iter
        (fun s ->
          let cps, bnd = segment s in
          let o = LRef.make t cps in
          let res = LEng.run eng s in
          check
            (Printf.sprintf "full %s %S" pat s)
            (LRef.full o) res.LEng.full;
          Alcotest.(check (option int))
            (Printf.sprintf "found %s %S" pat s)
            (Option.map (fun e -> bnd.(e)) (LRef.earliest_end o))
            res.LEng.found_end)
        loc_inputs)
    loc_patterns

(* -- targeted semantic spot checks ---------------------------------------- *)

let full pat s =
  (LEng.run (LEng.create (lre pat)) s).LEng.full

let test_semantics () =
  check "^abc$ abc" true (full "^abc$" "abc");
  check "anchored no slack" false (full "^abc$" "xabc");
  check "a^b empty" false (full "a^b" "ab");
  check "dollar mid" false (full "a$b" "ab");
  check "lookahead guard" true (full "(?=\\d)\\w+" "7ab");
  check "lookahead guard neg" false (full "(?=\\d)\\w+" "ab7");
  check "lookbehind close" true (full "\\w+(?<=\\d)" "ab7");
  check "lookbehind close neg" false (full "\\w+(?<=\\d)" "7ab");
  check "neg lookahead" true (full "(?!.*b).*" "aaa");
  check "neg lookahead hit" false (full "(?!.*b).*" "aab");
  check "password idiom" true
    (full "^(?=.*\\d)(?=.*[a-z]).{4,}$" "ab1c");
  check "password idiom miss" false
    (full "^(?=.*\\d)(?=.*[a-z]).{4,}$" "abcd");
  (* boolean ops over located terms *)
  check "compl of anchored" true (full "~(^a)&.?.?" "b");
  check "compl of anchored neg" false (full "~(^a)&.?.?" "a");
  (* counted repetition over zero-width-containing bodies expands *)
  check "zw loop" true (full "(^|a){2}b" "ab");
  check "zw loop eps uses anchor" true (full "(^|a){2}b" "b");
  check "star of guarded dot" true (full "((?=[a-z]).)*" "abc");
  check "star of guarded dot miss" false (full "((?=[a-z]).)*" "ab7")

(* -- anchor elimination (lower) vs word enumeration ----------------------- *)

let enum_words alphabet max_len =
  let rec go n =
    if n = 0 then [ [] ]
    else
      let shorter = go (n - 1) in
      List.concat_map
        (fun w -> List.map (fun c -> Char.code c :: w) alphabet)
        (List.filter (fun w -> List.length w = n - 1) shorter)
      @ shorter
  in
  go max_len

let test_lower () =
  let words = enum_words [ 'a'; 'b' ] 4 in
  List.iter
    (fun pat ->
      let t = lre pat in
      match L.lower t with
      | None -> Alcotest.fail (Printf.sprintf "lower refused %s" pat)
      | Some p ->
        List.iter
          (fun w ->
            let cps = Array.of_list w in
            let o = LRef.make t cps in
            check
              (Printf.sprintf "lower %s on %s" pat
                 (String.concat "" (List.map (fun c -> String.make 1 (Char.chr c)) w)))
              (LRef.full o) (Ref.matches p w))
          words)
    [ "^a*"; "a$"; "^a*b$"; "(^|a)b*"; "a^b"; "(^a|b$){1,2}"; "~(^a)&.*"
    ; "^$"; "(a|$)(b|^)?"; "b*($|a)" ];
  (* lookarounds do not lower *)
  check "look refuses" true (L.lower (lre "(?=a)b") = None);
  (* plain terms lower to themselves modulo nonempty-splitting *)
  (match L.lower (lre "ab*") with
  | Some p ->
    List.iter
      (fun w -> check "plain lower" (Ref.matches (re "ab*") w) (Ref.matches p w))
      (List.map (fun w -> w) words)
  | None -> Alcotest.fail "plain lower refused")

(* -- lints ---------------------------------------------------------------- *)

let rules pat =
  List.map (fun f -> f.LA.rule) (LA.analyze (lre pat)).LA.findings

let test_lints () =
  let has r pat = check (pat ^ " has " ^ r) true (List.mem r (rules pat)) in
  let clean pat = check (pat ^ " clean") true (rules pat = []) in
  (* trivially-true positive lookaround (nullable body) *)
  has "SBD301" "(?=a*)b";
  has "SBD301" "(?<=a?)b";
  (* impossible negative lookaround, incl. the ⊤* contradiction *)
  has "SBD302" "(?!a*)b";
  has "SBD302" "(?!(a|b*)c?)x";
  (* behind-variant: a negative lookbehind with a nullable body is just
     as unsatisfiable — the empty span preceding the position always
     witnesses the body *)
  has "SBD302" "(?<!a*)b";
  has "SBD302" "(?<!a?)b";
  check "non-nullable lookbehind body fine" false
    (List.mem "SBD302" (rules "(?<!a)b"));
  (* lookahead in tail position *)
  has "SBD303" "a(?=b)";
  has "SBD303" "a((?=b)|c)";
  has "SBD303" "a(x(?=b))*";
  check "guarded head is fine" false (List.mem "SBD303" (rules "(?=b)a"));
  (* anchors that empty the language *)
  has "SBD304" "a^b";
  has "SBD304" "$a";
  has "SBD304" "a$b+";
  check "usable anchors are fine" false (List.mem "SBD304" (rules "^a|b$"));
  check "eps-tolerant anchors fine" false (List.mem "SBD304" (rules "a$b*"));
  (* emptiness only the abstract domains see: the lowered pattern is
     not syntactically empty, but its length sets ([3,3] vs [5,5]) or
     required/possible character sets ({a,b} vs {c,d}) are disjoint *)
  has "SBD304" "^a{3}$&^a{5}$";
  has "SBD304" "^ab$&^cd$";
  check "feasible lengths fine" false
    (List.mem "SBD304" (rules "^a{3,5}$&^a{4}$"));
  clean "^a+b$";
  clean "(?<=\\d)ab";
  (* fragment classification *)
  let frag pat = (LA.analyze (lre pat)).LA.fragment in
  Alcotest.(check string) "plain" "RE" (frag "a(b|c)*");
  Alcotest.(check string) "bool" "B(RE)" (frag "a&~b");
  Alcotest.(check string) "loc re" "Loc(RE)" (frag "^a(b|c)*$");
  Alcotest.(check string) "loc look" "Loc(RE)" (frag "(?=ab)c");
  Alcotest.(check string) "loc bool" "Loc(B(RE))" (frag "^(a&~b)");
  Alcotest.(check string) "loc body counts" "Loc(B(RE))" (frag "(?=a&b)c");
  (* report fields *)
  let r = LA.analyze (lre "^a(?=b)c$") in
  check_int "n_anchors" 2 r.LA.n_anchors;
  check_int "n_looks" 1 r.LA.n_looks;
  check "zero_width" true r.LA.zero_width;
  check "lowered refused (look)" true (r.LA.lowered = None);
  let r2 = LA.analyze (lre "^ab$") in
  check "lowered present" true (r2.LA.lowered <> None)

(* -- service worker: extended match/analyze ------------------------------- *)

let test_worker () =
  let module W = (val Sbd_service.Worker.create ()) in
  (* located pattern routes to the located engine *)
  (match W.match_input ~pattern:"^a+$" ~input:"aaa" () with
  | Ok (Sbd_service.Protocol.Matched { full; span; found_end }, stats) ->
    check "worker loc full" true full;
    check "worker loc span absent" true (span = None);
    check "worker loc found_end" true (found_end = Some 3);
    check "worker loc found_end stat" true
      (List.assoc_opt "locmatch.found_end" stats = Some 3.0)
  | Ok _ -> Alcotest.fail "unexpected verdict"
  | Error msg -> Alcotest.fail msg);
  (* plain pattern keeps the classical engine (span present) *)
  (match W.match_input ~pattern:"a+" ~input:"xaay" () with
  | Ok (Sbd_service.Protocol.Matched { full; span; found_end }, _) ->
    check "worker plain full" false full;
    check "worker plain span" true (span = Some (1, 2));
    check "worker plain found_end absent" true (found_end = None)
  | Ok _ -> Alcotest.fail "unexpected verdict"
  | Error msg -> Alcotest.fail msg);
  (* lookaround match *)
  (match W.match_input ~pattern:"(?<=a)b" ~input:"ab" () with
  | Ok (Sbd_service.Protocol.Matched { full; found_end; _ }, stats) ->
    check "worker look full" false full;
    check "worker look found_end" true (found_end = Some 2);
    check "worker look found" true
      (List.assoc_opt "locmatch.found_end" stats = Some 2.0)
  | Ok _ -> Alcotest.fail "unexpected verdict"
  | Error msg -> Alcotest.fail msg);
  (* extended analyze returns the located report shape *)
  (match W.analyze_pattern "(?!a*)b" with
  | Ok { Sbd_service.Worker.report = Sbd_obs.Obs.Json.Obj fields; _ } ->
    check "worker loc analyze" true
      (List.assoc_opt "zero_width" fields = Some (Sbd_obs.Obs.Json.Bool true))
  | Ok _ -> Alcotest.fail "unexpected analyze shape"
  | Error msg -> Alcotest.fail msg);
  (* plain analyze unchanged *)
  match W.analyze_pattern "a*b" with
  | Ok { Sbd_service.Worker.report = Sbd_obs.Obs.Json.Obj fields; _ } ->
    check "worker plain analyze" true
      (List.mem_assoc "metrics" fields)
  | Ok _ -> Alcotest.fail "unexpected analyze shape"
  | Error msg -> Alcotest.fail msg

(* -- malformed UTF-8 ---------------------------------------------------------- *)

(* The lookahead pre-pass walks backward; its scalar segmentation must
   be the forward walk's, malformed bytes included.  Exhaustive over
   short strings of the bytes that matter: ASCII, continuations, 2-,
   3- and 4-byte leads, overlong and surrogate leads. *)
let test_backward_segmentation () =
  let alpha = "A\x80\xbf\xa0\xc0\xc2\xdf\xe0\xe1\xed\xef\xf0" in
  let na = String.length alpha in
  let rec strings len =
    if len = 0 then [ "" ]
    else
      List.concat_map
        (fun s -> List.init na (fun i -> String.make 1 alpha.[i] ^ s))
        (strings (len - 1))
  in
  for len = 0 to 5 do
    List.iter
      (fun s ->
        let _, fwd = segment s in
        let rec back pos acc =
          if pos = 0 then acc
          else
            let _, p = Byteclass.scalar_backward s pos 0 in
            back p (p :: acc)
        in
        let n = String.length s in
        Alcotest.(check (list int))
          (Printf.sprintf "boundaries %S" s) (Array.to_list fwd)
          (back n [ n ]))
      (strings len)
  done

let lossy_inputs =
  [ "\x80"; "a\x80b"; "ab\xe4\xb8"; "\xe4\xb8ab"; "\xc0\xafa"; "\xe0\x80\xafb"
  ; "\xed\xa0\x80a"; "\xf0\x9f\x98\x80a"; "a\xc3"; "\xc3\xa9\xffb"
  ; "b\xe4a\xb8"; "ab\xed\xa0"; "7\x80ab"; "a\xe4\xb8\xad\xe4\xb8" ]

(* Located engine vs oracle in Utf8 mode: [full] and [found_end], with
   the oracle run over the lossy decode and its scalar ends mapped back
   to byte offsets. *)
let check_lossy patterns inputs =
  List.iter
    (fun pat ->
      let t = lre pat in
      let eng = LEng.create ~mode:Byteclass.Utf8 t in
      List.iter
        (fun s ->
          let cps, bnd = segment s in
          Alcotest.(check (list int))
            (Printf.sprintf "decode_lossy %S" s)
            (Sbd_alphabet.Utf8.decode_lossy s) (Array.to_list cps);
          let o = LRef.make t cps in
          let res = LEng.run eng s in
          check (Printf.sprintf "full %s %S" pat s) (LRef.full o) res.LEng.full;
          Alcotest.(check (option int))
            (Printf.sprintf "found %s %S" pat s)
            (Option.map (fun e -> bnd.(e)) (LRef.earliest_end o))
            res.LEng.found_end)
        inputs)
    patterns

let test_lossy_vs_oracle () =
  check_lossy
    ([ "a(?=.b)"; "(?=.\\u{FFFD})"; "(?!a).(?=b)"; ".(?!\\u{FFFD})"
     ; "(?<=\\u{FFFD})a"; "^.(?=.)"; "(?=[^a]).*b$" ]
    @ loc_patterns)
    (lossy_inputs @ loc_inputs)

(* -- anchors at every split ------------------------------------------------ *)

(* Multi-byte, truncated and stray bytes next to anchors and lookbehinds. *)
let split_corpus =
  [ ""; "a"; "ab"; "abc"; "aabc"; "ab\xc3\xa9"; "\xc3\xa9ab"; "a\xe4\xb8\xadb"
  ; "ab\xe4\xb8" (* truncated at EOF *); "\x80ab" (* stray continuation *) ]

(* Every byte split [k] of each input, including ones that cut a
   scalar: the prefix [s[0,k)] is what a reader has seen when it stops
   at [k] ([$] and lookbehinds must see the cut as the end), the suffix
   [s[k,n)] is what it sees when it starts there ([^] at the cut, a
   stray continuation first).  Each runs through [LEng.run] vs the
   oracle. *)
let test_stream_all_splits () =
  let inputs =
    List.sort_uniq compare
      (List.concat_map
         (fun s ->
           let n = String.length s in
           List.concat
             (List.init (n + 1) (fun k ->
                  [ String.sub s 0 k; String.sub s k (n - k) ])))
         split_corpus)
  in
  check_lossy
    [ "^a"; "a$"; "^.*$"; "^$"; "$"; "^"; "(?<=ab)."; "(?<!a)b"; "a+$"
    ; "^ab$|b" ]
    inputs

(* -- table shape ------------------------------------------------------------- *)

(* Twelve distinct atoms: rows hold the valuations the input shows,
   never one cell per class and each of the 2^12 masks.  In the second
   pattern each letter is consumed only under its own lookahead, so
   every one of the ten record bits, past the eighth too, decides the
   answer. *)
let ten_lookaheads =
  "^((?=a)a|(?=b)b|(?=c)c|(?=d)d|(?=e)e|(?=f)f|(?=g)g|(?=h)h|(?=i)i|(?=j)j)*$"

let test_many_atoms () =
  List.iter
    (fun (pat, atoms, letters) ->
      let t = lre pat in
      let eng = LEng.create ~mode:Byteclass.Utf8 t in
      check_int ("atoms " ^ pat) atoms (LEng.num_atoms eng);
      let rand = Random.State.make [| 12 |] in
      let word n =
        String.init n (fun _ ->
            letters.[Random.State.int rand (String.length letters)])
      in
      for _ = 1 to 300 do
        let s = word (Random.State.int rand 8) in
        let cps, bnd = segment s in
        let o = LRef.make t cps in
        let res = LEng.run eng s in
        check (Printf.sprintf "full %S" s) (LRef.full o) res.LEng.full;
        Alcotest.(check (option int))
          (Printf.sprintf "found %S" s)
          (Option.map (fun e -> bnd.(e)) (LRef.earliest_end o))
          res.LEng.found_end
      done;
      ignore (LEng.run eng (word 5000) : LEng.result);
      check
        (Printf.sprintf "row of %d cells for %d valuations" (LEng.row_cells eng)
           (LEng.valuations eng))
        true
        (LEng.row_cells eng < 1 lsl 12))
    [
      ( "^((?<=a).|(?<=b).|(?<=c).|(?<=d).|(?<=e).|(?=a).|(?=b).|(?=c).|(?=d).\
         |(?!e).)*$",
        12,
        "abcdex" );
      (* ten lookaheads, [^] and [$] *)
      (ten_lookaheads, 12, "abcdefghijjihgfedcbak");
    ]

(* The smallest state cap forces table resets mid-walk; answers must
   not move. *)
let test_reset_path () =
  let resets = ref 0 in
  List.iter
    (fun pat ->
      let t = lre pat in
      let eng = LEng.create ~mode:Byteclass.Utf8 t in
      let tiny = LEng.create ~mode:Byteclass.Utf8 ~max_states:1 t in
      List.iter
        (fun s ->
          let a = LEng.run eng s and b = LEng.run tiny s in
          check (Printf.sprintf "full %s %S" pat s) a.LEng.full b.LEng.full;
          Alcotest.(check (option int))
            (Printf.sprintf "found %s %S" pat s)
            a.LEng.found_end b.LEng.found_end)
        ([ "abababbbaabbab7ab"; "aaaaaaaabbbbbbbbbab"; "7ab7ab7ab7abba" ]
        @ loc_inputs);
      resets := !resets + LEng.resets tiny)
    ([ "(?<=a).*b.{3}(?!a)"; "^(a|b)*a(a|b){4}$"; "(?<!b)(ab|ba)*7?$"
     ; ten_lookaheads ]
    @ loc_patterns);
  check "resets exercised" true (!resets > 0)

(* -- windows: long inputs against a linear reference --------------------- *)

(* The scalars of [s] and the byte offset of each boundary, in [mode]. *)
let decode mode s =
  match mode with
  | Byteclass.Byte ->
    let n = String.length s in
    (Array.init n (fun i -> Char.code s.[i]), Array.init (n + 1) Fun.id)
  | Byteclass.Utf8 -> segment s

(* A reference for inputs past Locref's reach: every atom's truth at
   every boundary from one plain derivative pass over the whole decoded
   input ([⊤*·body] forward for a lookbehind, [⊤*·rev body] backward
   for a lookahead), then the located derivative walks of [⊤*·t] and
   [t] from offset 0, memoized per (term, code point, valuation).  No
   byte tables, windows, prefilters or records.  It agrees with Locref
   on the short inputs of "located window edges". *)
let ref_run mode t s =
  let cps, bnd = decode mode s in
  let k = Array.length cps in
  let memo = Hashtbl.create 256 in
  let deriv ~sat m cp p =
    let key = (p.L.id, cp, m) in
    match Hashtbl.find_opt memo key with
    | Some d -> d
    | None ->
      let d = L.deriv ~sat cp p in
      Hashtbl.add memo key d;
      d
  in
  let none _ = false in
  let atoms = Array.of_list (L.atoms t) in
  let truths =
    Array.map
      (fun a ->
        let tr = Array.make (k + 1) false in
        (match a with
        | L.Abegin -> tr.(0) <- true
        | L.Aend -> tr.(k) <- true
        | L.Alook { behind = true; body } ->
          let p = ref (L.concat L.full (L.of_plain body)) in
          for i = 0 to k do
            tr.(i) <- !p.L.nul;
            if i < k then p := deriv ~sat:none (-1) cps.(i) !p
          done
        | L.Alook { behind = false; body } ->
          let p = ref (L.concat L.full (L.of_plain (R.rev body))) in
          for i = k downto 0 do
            tr.(i) <- !p.L.nul;
            if i > 0 then p := deriv ~sat:none (-1) cps.(i - 1) !p
          done);
        tr)
      atoms
  in
  let mask i =
    let m = ref 0 in
    Array.iteri (fun j tr -> if tr.(i) then m := !m lor (1 lsl j)) truths;
    !m
  in
  let sat m a =
    let rec idx j = if L.atom_equal atoms.(j) a then j else idx (j + 1) in
    m land (1 lsl idx 0) <> 0
  in
  let rec first p i =
    let m = mask i in
    if L.nullable ~sat:(sat m) p then Some bnd.(i)
    else if i = k || L.equal p L.empty then None
    else first (deriv ~sat:(sat m) m cps.(i) p) (i + 1)
  in
  let rec whole p i =
    let m = mask i in
    if i = k then L.nullable ~sat:(sat m) p
    else (not (L.equal p L.empty)) && whole (deriv ~sat:(sat m) m cps.(i) p) (i + 1)
  in
  (whole t 0, first (L.concat L.full t) 0)

(* Windows against the reference on inputs of 2–7 KB: decoys (factor
   occurrences whose lookaround fails) from 2 KB on, then the witness —
   Locref-checked in a short context first — at offsets around the
   walk's window edges, counted from where the walk starts ([st]: the
   first decoy plus the factor, minus the byte bound of a match).  The
   cases cover a lookbehind body that begins exactly where its DFA warms
   up, an unbounded one that begins near offset 0, bounded lookahead
   bodies across window edges (next to an unbounded one, too), and
   lossy UTF-8 at each edge, in both modes.  Some run must read less
   than its input, and an expired deadline raises before the
   prefilter. *)
let test_window_edges () =
  let modes = [ Byteclass.Byte; Byteclass.Utf8 ] in
  let lossy = [| "\x80"; "\xe4\xb8"; "\xc3\xa9"; "\xf0\x9f\x98"; "\xf0\x9f\x98\x80" |] in
  let edges = [ 64; 192; 448; 4032 ] in
  let fired = ref 0 in
  List.iter
    (fun (pat, head, decoy, witness, factor, lmax) ->
      let t = lre pat in
      (* the witness matches in a short context, by the oracle *)
      let ctx = head ^ "zz" ^ witness ^ "zz" in
      let cps, _ = segment ctx in
      check (Printf.sprintf "witness %S of %s" witness pat) true
        (LRef.earliest_end (LRef.make t cps) <> None);
      check (Printf.sprintf "decoy %S of %s" decoy pat) true
        (LRef.earliest_end (LRef.make t (fst (segment (head ^ "zz" ^ decoy ^ "zz"))))
        = None);
      List.iter
        (fun mode ->
          let eng = LEng.create ~mode t in
          (* the reference agrees with the oracle on the short contexts *)
          List.iter
            (fun s ->
              let cps, bnd = decode mode s in
              let o = LRef.make t cps in
              Alcotest.(check (pair bool (option int)))
                (Printf.sprintf "reference %s %S" pat s)
                (LRef.full o, Option.map (fun e -> bnd.(e)) (LRef.earliest_end o))
                (ref_run mode t s))
            [ ctx; head ^ decoy ^ "z" ^ witness; witness; "\x80" ^ witness ^ "\xe4" ];
          let lbytes = if mode = Byteclass.Byte then lmax else 3 * lmax in
          let f0 = 2048 in
          let st = max 0 (f0 + factor - lbytes) in
          List.iter
            (fun at ->
              let n = at + String.length witness + 700 in
              let b = Bytes.make n 'z' in
              let put at str = Bytes.blit_string str 0 b at (String.length str) in
              put 10 head;
              List.iteri
                (fun i e ->
                  let e = st + e in
                  if e + 4 < n then put (e - 1) lossy.(i mod Array.length lossy))
                ([ 0; -3; -12; -lbytes ] @ edges);
              let rec decoys d =
                if d + String.length decoy + 8 < at then begin
                  put d decoy;
                  decoys (d + 50)
                end
              in
              decoys f0;
              put at witness;
              let s = Bytes.to_string b in
              let name = Printf.sprintf "%s @%d %b" pat at (mode = Byteclass.Byte) in
              let want_full, want_end = ref_run mode t s in
              let bytes0 = LEng.scan_bytes eng in
              let got = LEng.run eng s in
              check ("full " ^ name) want_full got.LEng.full;
              Alcotest.(check (option int)) ("found " ^ name) want_end
                got.LEng.found_end;
              if LEng.scan_bytes eng - bytes0 < n && want_end <> None then
                incr fired;
              check ("expired deadline " ^ name) true
                (match LEng.run ~deadline:(Sbd_obs.Obs.Deadline.of_seconds (-1.0)) eng s with
                | exception Sbd_obs.Obs.Deadline_exceeded _ -> true
                | _ -> false))
            (f0
            :: List.concat_map
                 (fun e ->
                   List.init 6 (fun d -> st + e - String.length witness - 1 + d))
                 edges))
        modes)
    [
      (* pattern, head, decoy, witness, factor bytes, lmax of its strip *)
      ("needle(?=[0-9]{3})", "", "needle12x", "needle123", 6, 6);
      ("ab(?=[0-9]{2}x)", "", "ab12y", "ab12x", 2, 2);
      ("(?<=[0-9]{3})ab", "", "x12ab", "123ab", 2, 2);
      (* an unbounded lookbehind body that begins near the input's start *)
      ("(?<=x[^y]*)ab(?=[0-9])", "x", "abz", "ab1", 2, 2);
      (* a bounded and an unbounded lookahead in one record *)
      ("ab(?=[0-9]{2})(?=.*z)", "", "ab1y", "ab12", 2, 2);
      ("(?<=\\u{4E2D}{2})\\u{4E01}", "", "x\xe4\xb8\xad\xe4\xb8\x81",
       "\xe4\xb8\xad\xe4\xb8\xad\xe4\xb8\x81", 3, 1);
      ("(?<![0-9])42(?![0-9])", "", "142", " 42 ", 2, 2);
    ];
  check "windows fired inside inputs" true (!fired > 0)

(* A state cap between the first 4-state table and the pattern's state
   count: the walk grows the table, fills it, resets it mid-walk and
   goes on through the re-interned walks.  Short inputs against Locref,
   long ones against the reference. *)
let test_reset_after_grow () =
  let rand = Random.State.make [| 23 |] in
  let word n =
    String.init n (fun _ -> "aab".[Random.State.int rand 3])
  in
  List.iter
    (fun pat ->
      let t = lre pat in
      let big = LEng.create ~mode:Byteclass.Utf8 t in
      List.iter
        (fun cap ->
          let eng = LEng.create ~mode:Byteclass.Utf8 ~max_states:cap t in
          List.iter
            (fun s ->
              let name = Printf.sprintf "%s cap %d %S" pat cap (String.sub s 0 (min 20 (String.length s))) in
              let want =
                if String.length s <= 40 then
                  let cps, bnd = segment s in
                  let o = LRef.make t cps in
                  (LRef.full o, Option.map (fun e -> bnd.(e)) (LRef.earliest_end o))
                else ref_run Byteclass.Utf8 t s
              in
              let got = LEng.run eng s in
              Alcotest.(check (pair bool (option int))) name want
                (got.LEng.full, got.LEng.found_end))
            ([ word 30 ^ "c"; "c" ^ word 35; word 40 ] @ List.init 3 (fun i -> word (3000 + i) ^ "c"));
          check (Printf.sprintf "%s cap %d resets" pat cap) true (LEng.resets eng > 0))
        [ 6; 12 ];
      ignore (LEng.run big (word 3000 ^ "c") : LEng.result);
      check (pat ^ " default cap holds it") true (LEng.resets big = 0))
    [ "(a|b)*a(a|b){4}(?=c)"; "(?<=[ab])(a|b)*a(a|b){4}c"; "^(a|b)*a(a|b){4}(?!a)" ]

(* -- accelerated states ------------------------------------------------------ *)

(* Skips in all three located scans: the walk of a pattern with no
   lookahead (a lone search walk, a lone pattern walk, [$] at the
   landing, lookbehind DFAs that skip along), the backward passes of unbounded and bounded lookaheads
   (non-nullable states only), and the warm-up of an unbounded
   lookbehind.  Runs of filler (ASCII, 2-, 3- and 4-byte sequences,
   stray and truncated bytes) carry exit strings at every offset mod 8
   around word edges and at the first and last byte, in both modes;
   long inputs against the linear reference, short ones against Locref,
   under the default cap and caps that reset the tables mid-run.  The
   short-skip guard turns the walk's skip off where exits are dense. *)
let test_accelerated_states () =
  let pieces = [| "q"; "qq\xc3\xa9"; "\xe4\xb8\xad"; "q\xff"; "\x80q"; "\xf0\x9f\x98\x80"; "\xe4\xb8q" |] in
  let filler n =
    let b = Buffer.create (n + 8) in
    let i = ref 0 in
    while Buffer.length b < n do
      Buffer.add_string b pieces.(!i * 5 mod Array.length pieces);
      incr i
    done;
    Buffer.sub b 0 n
  in
  let input n exits at =
    let b = Bytes.of_string (filler n) in
    List.iteri
      (fun k p ->
        let e = List.nth exits (k mod List.length exits) in
        let p = max 0 (min (n - String.length e) p) in
        Bytes.blit_string e 0 b p (String.length e))
      at;
    Bytes.to_string b
  in
  let skipped = ref 0 and resets = ref 0 in
  List.iter
    (fun (pat, exits) ->
      let t = lre pat in
      List.iter
        (fun mode ->
          let eng = LEng.create ~mode t in
          let capped = List.map (fun cap -> LEng.create ~mode ~max_states:cap t) [ 4; 7 ] in
          let mname = if mode = Byteclass.Byte then "byte" else "utf8" in
          for j = 0 to 7 do
            List.iter
              (fun (n, at) ->
                let s = input n exits at in
                let name = Printf.sprintf "%s %s j=%d n=%d" pat mname j n in
                let want =
                  if n <= 40 then begin
                    let cps, bnd = decode mode s in
                    let o = LRef.make t cps in
                    let want = (LRef.full o, Option.map (fun e -> bnd.(e)) (LRef.earliest_end o)) in
                    Alcotest.(check (pair bool (option int))) ("reference " ^ name) want
                      (ref_run mode t s);
                    want
                  end
                  else ref_run mode t s
                in
                List.iter
                  (fun e ->
                    let got = LEng.run e s in
                    Alcotest.(check (pair bool (option int))) name want
                      (got.LEng.full, got.LEng.found_end))
                  (if j mod 4 = 0 || n <= 40 then eng :: capped else [ eng ]))
              [ (9000, [ 0; 64 + j; 129 + j; 4088 + j; 4100 + j; 8191 - j; 8999 ])
              ; (9000, [ 4100 + j; 8191 - j ])
              ; (40, [ j; 9 + j; 39 - j ]) ]
          done;
          List.iter
            (fun e ->
              skipped := !skipped + LEng.skip_bytes e;
              resets := !resets + LEng.resets e)
            (eng :: capped))
        [ Byteclass.Byte; Byteclass.Utf8 ])
    [ ("^.*needle", [ "needle"; "n"; "ne" ])
    ; ("needle.*$", [ "needle"; "n"; "\n" ])
    ; ("^x[^y]*y$", [ "x"; "y"; "xy" ])
    ; ("(?<![0-9])[^xy]*y", [ "x"; "y"; "xy" ])
    ; ("(?<!z)[^0-9]*[0-9]{2}", [ "1"; "90"; "5"; "12" ])
    ; ("(^|z)a[^y]*y", [ "za"; "a"; "y"; "zay" ])
    ; ("needle(?=[^x]*x)", [ "needle"; "x"; "n" ])
    ; ("ab(?=[^x]{0,30}x)", [ "ab"; "x"; "abx" ])
    ; ("(?<=x[^y]*)ab", [ "x"; "y"; "ab"; "xab" ])
    ; ("(?<=[0-9]{2}-)ab", [ "12-ab"; "1"; "-"; "ab"; "9-ab" ]) ];
  check "skips fired" true (!skipped > 0);
  check "resets exercised" true (!resets > 0);
  (* the guard: a walk whose skips stop within a word stops skipping
     for the rest of the run, and the next run re-arms it *)
  let t = lre "[c-h]{8}$" in
  let eng = LEng.create ~mode:Byteclass.Utf8 t in
  let dense = String.init 6000 (fun i -> if i mod 2 = 0 then 'q' else "cdefgh".[i / 2 mod 6]) in
  let want = ref_run Byteclass.Utf8 t dense in
  let run () =
    let got = LEng.run eng dense in
    Alcotest.(check (pair bool (option int))) "dense" want (got.LEng.full, got.LEng.found_end)
  in
  run ();
  let before = LEng.skip_bytes eng in
  run ();
  check "dense again: at most the guard's strikes" true
    (LEng.skip_bytes eng - before < Sbd_engine.Dfa.max_strikes * Sbd_engine.Dfa.short_skip);
  let sparse = String.make 6000 'q' ^ "cdefghcd" in
  let before = LEng.skip_bytes eng in
  let got = LEng.run eng sparse in
  Alcotest.(check (pair bool (option int)))
    "sparse after dense" (ref_run Byteclass.Utf8 t sparse)
    (got.LEng.full, got.LEng.found_end);
  check "sparse after dense: the walk skips again" true
    (LEng.skip_bytes eng - before >= 5000)

let suite =
  ( "locregex",
    [ Alcotest.test_case "parse syntax" `Quick test_parse_syntax
    ; Alcotest.test_case "posix classes" `Quick test_parse_posix
    ; Alcotest.test_case "error offsets" `Quick test_parse_error_offsets
    ; Alcotest.test_case "engine vs oracle" `Quick test_engine_vs_oracle
    ; Alcotest.test_case "semantics" `Quick test_semantics
    ; Alcotest.test_case "lower" `Quick test_lower
    ; Alcotest.test_case "stream all splits" `Quick test_stream_all_splits
    ; Alcotest.test_case "lints" `Quick test_lints
    ; Alcotest.test_case "worker extended ops" `Quick test_worker
    ; Alcotest.test_case "backward segmentation" `Quick
        test_backward_segmentation
    ; Alcotest.test_case "lossy utf8 vs oracle" `Quick test_lossy_vs_oracle
    ; Alcotest.test_case "many atoms" `Quick test_many_atoms
    ; Alcotest.test_case "table reset path" `Quick test_reset_path
    ; Alcotest.test_case "located window edges" `Quick test_window_edges
    ; Alcotest.test_case "cache reset after grow" `Quick test_reset_after_grow
    ; Alcotest.test_case "accelerated states" `Quick test_accelerated_states
    ] )
