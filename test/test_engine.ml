(* Tests for the byte-level match engine (lib/engine, DESIGN.md §10):
   byte-class table vs code-point classification, anchored verdicts vs
   the DP oracle, linear find/count vs brute force and vs the classic
   lazy DFA's per-position scans, the max_states cache-reset path,
   UTF-8 decoding (multi-byte and malformed scalars), the scan loops at
   their 4 KB block edges, the bounded find window, and the linear-time
   regression that motivated the subsystem. *)

module A = Sbd_service.Default.A
module R = Sbd_service.Default.R
module P = Sbd_service.Default.P
module Ref = Sbd_service.Default.Ref
module Bc = Sbd_engine.Byteclass.Make (R)
module Eng = Sbd_service.Default.Eng
module An = Sbd_service.Default.An
module Brz = Sbd_classic.Brzozowski.Make (R)
module Obs = Sbd_obs.Obs
module U = Sbd_alphabet.Utf8

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let re s =
  match P.parse s with
  | Ok r -> r
  | Error (pos, msg) ->
    Alcotest.fail (Printf.sprintf "parse %S: %d: %s" s pos msg)

let span = Alcotest.(option (pair int int))

(* An engine with the state cap the analyzer picks for the pattern, as
   the service worker builds it. *)
let hinted r = Eng.create ~max_states:(An.hints_of (An.metrics_of r)).An.max_states r

(* -- byte classification -------------------------------------------------- *)

(* In Byte mode every byte must classify by one table read, and agree
   with the range-table classification of the same code point; in Utf8
   mode the table covers exactly the ASCII plane. *)
let test_byteclass_table () =
  let r = re "[a-m]+x|\\d{2}|\xc3\xa9" in
  let bc = Bc.compile ~mode:Sbd_engine.Byteclass.Byte r in
  for b = 0 to 255 do
    check_int (Printf.sprintf "byte %d" b) (Bc.classify_cp bc b)
      bc.Bc.table.(b)
  done;
  let bc8 = Bc.compile ~mode:Sbd_engine.Byteclass.Utf8 r in
  for b = 0 to 127 do
    check_int (Printf.sprintf "ascii %d" b) (Bc.classify_cp bc8 b)
      bc8.Bc.table.(b)
  done;
  for b = 128 to 255 do
    check_int (Printf.sprintf "lead byte %d is deferred" b) (-1)
      bc8.Bc.table.(b)
  done;
  (* each representative classifies to its own class *)
  Array.iteri
    (fun cls cp -> check_int "representative" cls (Bc.classify_cp bc8 cp))
    bc8.Bc.representatives

(* -- anchored verdicts vs the DP oracle ----------------------------------- *)

let enum_words alphabet max_len =
  let rec go n =
    if n = 0 then [ [] ]
    else
      []
      :: List.concat_map
           (fun w -> List.map (fun c -> c :: w) alphabet)
           (go (n - 1))
  in
  List.sort_uniq compare (go max_len)

let ascii_string w = String.init (List.length w) (fun i -> Char.chr (List.nth w i))

let boolean_patterns =
  [ "ab*c"; "(a|b)*"; "a{2,3}"; ".*b.*&~(.*aa.*)"; "~(a*)"; "(a*b)&(.{2,4})" ]

let test_matches_vs_oracle () =
  let words = enum_words (List.map Char.code [ 'a'; 'b'; 'c' ]) 4 in
  List.iter
    (fun pat ->
      let r = re pat in
      let eng = Eng.create r in
      List.iter
        (fun w ->
          check
            (Printf.sprintf "%s on %S" pat (ascii_string w))
            (Ref.matches r w)
            (Eng.matches eng (ascii_string w)))
        words)
    boolean_patterns

(* -- find / count vs brute force ------------------------------------------ *)

let brute_find r (s : string) =
  let n = String.length s in
  let result = ref None in
  (try
     for i = 0 to n do
       for j = i to n do
         if
           !result = None
           && Ref.matches r
                (List.init (j - i) (fun k -> Char.code s.[i + k]))
         then begin
           result := Some (i, j);
           raise Exit
         end
       done
     done
   with Exit -> ());
  !result

let test_find_vs_brute () =
  let inputs = [ ""; "a"; "cab"; "ccabc"; "bbbb"; "acbacb"; "aabcaabc" ] in
  List.iter
    (fun pat ->
      let r = re pat in
      let eng = Eng.create r in
      let eng_h = hinted r in
      let m = Brz.Dfa.create r in
      List.iter
        (fun s ->
          let expected = brute_find r s in
          Alcotest.check span
            (Printf.sprintf "find %s on %S" pat s)
            expected (Eng.find eng s);
          (* the analyzer-capped engine and the classic scan agree *)
          Alcotest.check span
            (Printf.sprintf "matcher find %s on %S" pat s)
            expected (Eng.find eng_h s);
          Alcotest.check span
            (Printf.sprintf "find_scan %s on %S" pat s)
            expected (Brz.Dfa.find_scan m s);
          check_int
            (Printf.sprintf "count %s on %S" pat s)
            (Brz.Dfa.count_matching_prefixes_scan m s)
            (Eng.count_matching_prefixes eng_h s))
        inputs)
    boolean_patterns

(* -- cache-reset path ----------------------------------------------------- *)

(* A 2-state cap cannot hold any of these DFAs, so every scan churns
   through resets; verdicts and spans must be unchanged. *)
let test_max_states_reset () =
  let s = "ccabbbcacb" in
  List.iter
    (fun pat ->
      let r = re pat in
      let eng = Eng.create r in
      let eng2 = Eng.create ~max_states:2 r in
      check (pat ^ " verdict") (Eng.matches eng s) (Eng.matches eng2 s);
      Alcotest.check span (pat ^ " span") (Eng.find eng s) (Eng.find eng2 s);
      check_int (pat ^ " count")
        (Eng.count_matching_prefixes eng s)
        (Eng.count_matching_prefixes eng2 s))
    boolean_patterns;
  let eng2 = Eng.create ~max_states:2 (re ".*b.*&~(.*aa.*)") in
  ignore (Eng.find eng2 "ccabbbcacb" : (int * int) option);
  check "resets exercised" true ((Eng.stats eng2).Eng.resets > 0)

(* -- UTF-8 ---------------------------------------------------------------- *)

let test_utf8 () =
  let eng pat = Eng.create ~mode:Sbd_engine.Byteclass.Utf8 (re pat) in
  (* multi-byte scalars: é (2 bytes), 中 (3 bytes) *)
  check "h.llo matches héllo" true (Eng.matches (eng "h.llo") "h\xc3\xa9llo");
  check "literal é" true (Eng.matches (eng "\\u{E9}+") "\xc3\xa9\xc3\xa9");
  check "中 in a class" true (Eng.matches (eng ".\\u{4E2D}.") "a\xe4\xb8\xadb");
  check "byte-mode disagrees on purpose" false
    (Eng.matches (Eng.create (re "h.llo")) "h\xc3\xa9llo");
  (* spans are byte offsets: é is one '.', two bytes wide *)
  Alcotest.check span "span over é" (Some (1, 5))
    (Eng.find (eng "\\.(.)\\.") "x.\xc3\xa9.y");
  (* malformed bytes mid-string decode as one U+FFFD each, like
     decode_lossy *)
  let malformed = "h\xc3llo" in
  let cps = U.decode_lossy malformed in
  check "oracle on lossy decode" (Ref.matches (re "h.llo") cps) true;
  check "engine is total on malformed input" true
    (Eng.matches (eng "h.llo") malformed);
  check "stray continuation" true (Eng.matches (eng "a.b") "a\x80b");
  (* a truncated sequence at end of input is one maximal subpart: the
     two-byte tail reads as exactly one U+FFFD, not one per byte *)
  check "truncated tail is one scalar" true (Eng.matches (eng "a.") "a\xe4\xb8");
  check "truncated tail is not two" false (Eng.matches (eng "a..") "a\xe4\xb8");
  Alcotest.(check (list int))
    "decode_lossy agrees" [ Char.code 'a'; 0xFFFD ]
    (U.decode_lossy "a\xe4\xb8")

(* -- malformed UTF-8 corpus ---------------------------------------------- *)

(* Mixed valid/invalid UTF-8: every way a scalar can go wrong, at the
   start, middle and end of the input. *)
let utf8_corpus =
  [
    "a\xc3\xa9b" (* valid 2-byte *)
  ; "a\xe4\xb8\xadb" (* valid 3-byte *)
  ; "a\xe4\xb8" (* truncated 3-byte at EOF *)
  ; "a\xc3" (* truncated 2-byte at EOF *)
  ; "\xe4\xb8" (* truncated, no prefix *)
  ; "\xe4" (* lone lead *)
  ; "a\x80b" (* stray continuation *)
  ; "\xc3\x41" (* lead + non-continuation *)
  ; "a\xc0\x80b" (* overlong *)
  ; "\xed\xa0\x80" (* surrogate *)
  ; "x\xf0\x9f\x98\x80y" (* beyond BMP (4-byte) *)
  ; "\xc3\xa9\xe4\xb8" (* valid then truncated *)
  ; "ab\xe4\xb8\xc3\xa9" (* truncated mid-string then valid *)
  ]

(* Every corpus string reads as its lossy decode: the full-match
   verdict agrees with the DP oracle over [decode_lossy] (a truncated
   sequence at end of input is exactly one U+FFFD), and the span and
   the earliest match end with the lazy DFA's per-position scans over
   the same scalars; the earliest end of [r] is the leftmost-earliest
   end of [⊤*·r]. *)
let test_utf8_corpus () =
  List.iter
    (fun pat ->
      let r = re pat in
      let eng = Eng.create ~mode:Sbd_engine.Byteclass.Utf8 r in
      let m = Brz.Dfa.create r and m_end = Brz.Dfa.create (R.concat R.full r) in
      List.iter
        (fun s ->
          let name what = Printf.sprintf "%s %s %S" what pat s in
          let kmax = String.length s + 1 in
          check (name "matches") (Ref.matches r (U.decode_lossy s)) (Eng.matches eng s);
          Alcotest.check span (name "find") (Brz.Dfa.find_scan_lossy m ~kmax s) (Eng.find eng s);
          Alcotest.(check (option int)) (name "contains")
            (Option.map snd (Brz.Dfa.find_scan_lossy m_end ~kmax s))
            (Eng.contains eng s))
        utf8_corpus)
    [ "a.."; ".."; ".*\\u{FFFD}.*"; "a\\u{E9}b"; ".{2,4}"; "~(..)" ]

(* -- leftmost-earliest tie-breaking on nullable patterns ------------------ *)

(* A nullable pattern matches the empty word at every position, so
   [find] must return the span the leftmost-earliest rule certifies:
   minimal start, then minimal end — and the engine's backward [rev]
   pass, the per-position scan, and brute force must all agree. *)
let test_nullable_leftmost_earliest () =
  let nullable_patterns =
    [ "a*"; "(a|b)*"; "a?"; "a{0,3}"; "~(a)"; "~()"; "a*|bc"; "(ab)*"; "b*a*"
    ; "~(a.*)"; "c?ab"; "(|a)b?" ]
  in
  let inputs =
    [ ""; "a"; "b"; "c"; "ab"; "ba"; "ca"; "abc"; "cab"; "bca"; "ccc"; "cba"
    ; "aabca"; "bcacab" ]
  in
  List.iter
    (fun pat ->
      let r = re pat in
      let eng = Eng.create r in
      let m = Brz.Dfa.create r in
      List.iter
        (fun s ->
          let expected = brute_find r s in
          Alcotest.check span
            (Printf.sprintf "find %s on %S" pat s)
            expected (Eng.find eng s);
          Alcotest.check span
            (Printf.sprintf "find_scan %s on %S" pat s)
            expected (Brz.Dfa.find_scan m s);
          check_int
            (Printf.sprintf "count %s on %S" pat s)
            (Brz.Dfa.count_matching_prefixes_scan m s)
            (Eng.count_matching_prefixes eng s))
        inputs)
    nullable_patterns

(* -- the linearity regression --------------------------------------------- *)

(* The motivating pathology: searching [a*b] in 300k 'a's has no match,
   which made the per-position scan re-read the whole tail from every
   start position (quadratic, minutes at this size).  The engine's
   backward pass must do it in one linear sweep, comfortably inside a
   short wall-clock deadline, with the default cap and with the one the
   analyzer picks. *)
let test_linear_find_within_deadline () =
  let n = 300_000 in
  let s = String.make n 'a' in
  let r = re "a*b" in
  let eng = Eng.create r in
  let deadline = Obs.Deadline.of_seconds 5.0 in
  (match Eng.find ~deadline eng s with
  | None -> ()
  | Some _ -> Alcotest.fail "a*b cannot match in aaaa...");
  check_int "count under deadline" 0
    (Eng.count_matching_prefixes ~deadline eng s);
  Alcotest.check span "analyzer-capped find is linear" None
    (Eng.find ~deadline (hinted r) s);
  (* with a match present, the span comes back leftmost-earliest *)
  let s' = s ^ "b" ^ String.make 10 'a' in
  Alcotest.check span "planted match" (Some (0, n + 1)) (Eng.find ~deadline eng s');
  (* an impossibly tight deadline must raise, not hang or lie *)
  let tight = Obs.Deadline.of_seconds 1e-9 in
  check "tight deadline raises" true
    (match Eng.find ~deadline:tight eng s with
    | exception Obs.Deadline_exceeded _ -> true
    | _ -> false)

(* -- bounded find: the window path ---------------------------------------- *)

(* The span of one backward pass over all of [s], the path unbounded
   patterns take. *)
let full_pass_find eng s =
  let n = String.length s in
  match Eng.least_start eng s ~lo:0 ~hi:n with
  | None -> None
  | Some i -> Option.map (fun j -> (i, j)) (Eng.first_nullable_anchored eng s i n)

(* Bounded patterns (counters, alternation, [&]/[~], [.] over multi-byte
   scalars) planted in 4 KB+ of filler, at 8 alignments, so that the
   forward pass's start, [e - L] and [e + L] all fall strictly inside
   the input.  Near-matches, multi-byte and malformed UTF-8 (3-byte
   scalars, 4-byte sequences, which decode as four U+FFFD) straddle
   both window edges, and one match of 3-byte scalars starts exactly
   at [e - L], [L] being 3 bytes per code point in Utf8 mode.  Spans must agree with the per-position scans,
   with the full backward pass, in both modes, and an expired deadline
   must still raise. *)
let test_window_find () =
  let cases =
    [ ("needle\\d{1,3}", "needle42", "needl")
    ; ("(ab|ba){2,3}", "abba", "ab")
    ; ("q.{1,3}q", "q\xe4\xb8\xadq", "q\xc3")
    ; ("[0-9]{2,4}&~(.*00.*)", "1234", "00")
    ; ("~(.*b.*)&a.{2,3}c", "a\xc3\xa9zc", "ab")
    ; ("(k[aeiou]{2}m|m[aeiou]{2}k)", "kaem", "kae")
      (* the leftmost match ends after the earliest match end *)
    ; ("xabcde|bcd", "xabcde", "xab") ]
  in
  let byte = Sbd_engine.Byteclass.Byte and utf8 = Sbd_engine.Byteclass.Utf8 in
  let cases =
    List.map (fun (pat, plant, near) -> (pat, plant, near, [ byte; utf8 ])) cases
    @ [ ( "[\\u{4E00}-\\u{9FFF}]{3}", "\xe4\xb8\xad\xe4\xb8\x81\xe4\xb8\xad",
          "\xe4\xb8\xad", [ utf8 ] ) ]
  in
  let noise =
    [| "\xe4\xb8"; "\x80"; "\xc3"; "\xe4\xb8\xad"; "\xff"; "\xc3\xa9"; "\xf0\x9f\x98\x80" |]
  in
  let windows = ref 0 in
  List.iter
    (fun (pat, plant, near, modes) ->
      let r = re pat in
      let m = Brz.Dfa.create r in
      List.iter
        (fun mode ->
          let eng = Eng.create ~mode r in
          let l = (Eng.stats eng).Eng.abs_max_bytes in
          check (pat ^ " is bounded") true (l > 0);
          for shift = 0 to 7 do
            let n = 4096 + (3 * l) + shift in
            let b = Bytes.make n 'z' in
            let c = 2048 + shift in
            let e = c + String.length plant in
            (* a near-match and a broken scalar across each window edge *)
            List.iteri
              (fun k at ->
                let piece = noise.((shift + k) mod Array.length noise) in
                Bytes.blit_string piece 0 b (at - 1) (String.length piece);
                Bytes.blit_string near 0 b (at - 1 - String.length near)
                  (String.length near))
              [ e - l; e + l ];
            Bytes.blit_string near 0 b (c - String.length near - 1)
              (String.length near);
            Bytes.blit_string plant 0 b c (String.length plant);
            let s = Bytes.to_string b in
            let name = Printf.sprintf "%s shift=%d %s" pat shift
                (if mode = Sbd_engine.Byteclass.Byte then "byte" else "utf8") in
            let got = Eng.find eng s in
            check (name ^ " found") true (got <> None);
            Alcotest.check span (name ^ " vs full pass") (full_pass_find eng s) got;
            Alcotest.check span (name ^ " vs per-position scan")
              (if mode = Sbd_engine.Byteclass.Byte then Brz.Dfa.find_scan m s
               else Brz.Dfa.find_scan_lossy m ~kmax:(l / 3) s)
              got;
            check (name ^ " window inside") true
              (match got with Some (_, j) -> j - l > 0 && j + l < n | None -> false);
            check (name ^ " expired deadline raises") true
              (match Eng.find ~deadline:(Obs.Deadline.of_seconds (-1.0)) eng s with
              | exception Obs.Deadline_exceeded _ -> true
              | _ -> false)
          done;
          windows := !windows + (Eng.stats eng).Eng.windows)
        modes)
    cases;
  check "window path taken" true (!windows > 0);
  (* a worker's reply counts this request's window, also when its
     engine comes from the cache *)
  let module W = (val Sbd_service.Worker.create ()) in
  let input = String.make 100 'x' ^ "needle42" ^ String.make 100 'y' in
  for k = 1 to 2 do
    match W.match_input ~pattern:"needle\\d{2}" ~input () with
    | Ok (_, stats) ->
      Alcotest.(check (option (float 0.)))
        (Printf.sprintf "reply %d engine.find_windows" k)
        (Some 1.0)
        (List.assoc_opt "engine.find_windows" stats)
    | Error msg -> Alcotest.fail msg
  done

(* Counter bounds near [max_int]: a length bound at least as long as
   the input takes the full backward pass (its UTF-8 byte bound, 3·(2^60
   − 2), plus the match end 11 would pass [max_int]), and a product of
   bounds that would wrap to a small one must not cut a real match. *)
let test_huge_bounds () =
  let big = "4611686018427387903" (* max_int *) in
  let s = "xyzwvutsrqb(a)aaaax" in
  List.iter
    (fun (pat, mode) ->
      let r = re pat in
      let m = Brz.Dfa.create r in
      let eng = Eng.create ~mode r in
      let name =
        pat ^ if mode = Sbd_engine.Byteclass.Byte then " byte" else " utf8"
      in
      Alcotest.check span (name ^ " vs per-position scan")
        (if mode = Sbd_engine.Byteclass.Byte then Brz.Dfa.find_scan m s
         else Brz.Dfa.find_scan_lossy m ~kmax:8 s)
        (Eng.find eng s);
      check (name ^ " found") true (Eng.find eng s <> None);
      check (name ^ " full match") (Brz.Dfa.matches m (Sbd_alphabet.Utf8.decode_lossy "aa"))
        (Eng.matches eng "aa"))
    (List.concat_map
       (fun pat -> [ (pat, Sbd_engine.Byteclass.Byte); (pat, Sbd_engine.Byteclass.Utf8) ])
       [ "b|a{1152921504606846974}"; "b|a{1152921504606846975}"; "b|a{" ^ big ^ "}"
       ; "(a|c{2305843009213693952}){4}x"; "(a|c{" ^ big ^ "}){2}"
       ; "\\(a\\)|(a{" ^ big ^ "}){3}" ])

(* -- scan block edges -------------------------------------------------- *)

(* The scan loops step 4 KB blocks and refetch their tables at each
   block edge.  The byte that decides a scan ends at offset 4095, 4096
   or 4097 of 8 KB of filler: a match end for the unanchored pass
   ([contains], [find]'s earliest end) and for the anchored pass from
   the least start, a step into the dead or the full state for
   [matches], and in Utf8 mode a 2- or 3-byte scalar across the edge.
   Every case runs with the default cap, with a 2-state cap that resets
   the tables mid-block, and under an expired deadline.  In every input
   the leftmost match also ends first, so [contains] is the span's
   end. *)
let test_block_edges () =
  let n = 8192 and byte = Sbd_engine.Byteclass.Byte in
  let both = [ byte; Sbd_engine.Byteclass.Utf8 ] and utf8 = [ Sbd_engine.Byteclass.Utf8 ] in
  let expired = Obs.Deadline.of_seconds (-1.0) in
  let raises f = match f () with exception Obs.Deadline_exceeded _ -> true | _ -> false in
  let resets = ref 0 in
  List.iter
    (fun (pat, head, piece, modes) ->
      let r = re pat in
      let m = Brz.Dfa.create r in
      List.iter
        (fun d ->
          let b = Bytes.make n 'z' in
          Bytes.blit_string head 0 b 0 (String.length head);
          Bytes.blit_string piece 0 b (d + 1 - String.length piece) (String.length piece);
          let s = Bytes.to_string b in
          List.iter
            (fun mode ->
              let name what = Printf.sprintf "%s %s @%d %b" what pat d (mode = byte) in
              let want_full =
                Brz.Dfa.matches m
                  (if mode = byte then List.init n (fun i -> Char.code s.[i])
                   else U.decode_lossy s)
              in
              let want =
                if mode = byte then Brz.Dfa.find_scan m s
                else Brz.Dfa.find_scan_lossy m ~kmax:n s
              in
              if not (R.nullable r) then
                check_int (name "the decisive byte") (d + 1)
                  (match want with Some (_, j) -> j | None -> -1);
              List.iter
                (fun eng ->
                  check (name "matches") want_full (Eng.matches eng s);
                  Alcotest.check span (name "find") want (Eng.find eng s);
                  Alcotest.(check (option int)) (name "contains")
                    (Option.map snd want) (Eng.contains eng s);
                  (* answers that follow from the pattern's length bound
                     or nullability read no input *)
                  let mx = (Eng.stats eng).Eng.abs_max_bytes in
                  if mx < 0 || mx >= n then
                    check (name "matches, expired deadline") true
                      (raises (fun () -> Eng.matches ~deadline:expired eng s));
                  if not (R.nullable r) then
                    check (name "find, expired deadline") true
                      (raises (fun () -> Eng.find ~deadline:expired eng s <> None));
                  resets := !resets + (Eng.stats eng).Eng.resets)
                [ Eng.create ~mode r; Eng.create ~max_states:2 ~mode r ])
            modes)
        [ 4095; 4096; 4097 ])
    [ (* unanchored pass: no skip loop, no required factor *)
      ("[0-9]{2}|[a-e]{3}", "", "12", both)
    ; ("[0-9]\\u{E9}|[a-e]\\u{4E2D}", "", "1\xc3\xa9", utf8)
    ; ("[0-9]\\u{E9}|[a-e]\\u{4E2D}", "", "a\xe4\xb8\xad", utf8)
      (* anchored pass from the least start, 0 *)
    ; ("x[^y]*y", "x", "y", both)
    ; ("x[^y]*\\u{4E2D}", "x", "\xe4\xb8\xad", utf8)
      (* [matches]: into the dead state, then into the full one *)
    ; ("z*", "", "q", both)
    ; ("z*", "", "\xc3\xa9", utf8)
    ; ("z*q.*", "", "q", both)
    ; ("z*\\u{4E2D}.*", "", "\xe4\xb8\xad", utf8) ];
  check "resets exercised" true (!resets > 0)

(* A bounded pattern matched in the first 4 KB of 16 MB: [find] steps
   the DFAs over a few KB, not the input, and returns the span a full
   backward pass does. *)
let test_window_reads_little () =
  let n = 16 lsl 20 in
  let b = Bytes.make n 'z' in
  Bytes.blit_string "needle42" 0 b 3000 8;
  Bytes.blit_string "1234" 0 b 3500 4;
  let s = Bytes.to_string b in
  List.iter
    (fun (pat, want) ->
      let eng = Eng.create ~mode:Sbd_engine.Byteclass.Utf8 (re pat) in
      let before = (Eng.stats eng).Eng.scan_bytes in
      let got = Eng.find eng s in
      let stepped = (Eng.stats eng).Eng.scan_bytes - before in
      Alcotest.check span (pat ^ " span") (Some want) got;
      check_int (pat ^ " took the window") 1 (Eng.stats eng).Eng.windows;
      check (Printf.sprintf "%s stepped %d < 64 KB" pat stepped) true
        (stepped < 64 * 1024);
      Alcotest.check span (pat ^ " vs full pass") (full_pass_find eng s) got)
    [ ("needle\\d{1,3}", (3000, 3007)); ("[0-9]{2,4}&~(.*00.*)", (3006, 3008)) ]

(* -- cache reset after the table has grown --------------------------------- *)

(* A state cap between the first 8-state table and the pattern's state
   count: every scan grows the table (reallocating [trans]), fills it,
   resets it and goes on stepping through a table whose cells name the
   new states.  A loop that kept a [trans] fetched before the growth
   would read the old, smaller array, and after the reset its stale
   cells would name the wrong states.  Each pattern drives one loop:
   the anchored and the unanchored forward pass and the backward pass. *)
let test_reset_after_grow () =
  let rand = Random.State.make [| 22 |] in
  let word n = String.init n (fun _ -> if Random.State.bool rand then 'a' else 'b') in
  let codes s = List.init (String.length s) (fun i -> Char.code s.[i]) in
  List.iter
    (fun (pat, n) ->
      let r = re pat in
      let m = Brz.Dfa.create r in
      let big = Eng.create r in
      List.iter
        (fun cap ->
          let eng = Eng.create ~max_states:cap r in
          for k = 1 to 3 do
            let s = word n ^ if k = 3 then "c" else "" in
            let name what = Printf.sprintf "%s %s cap %d #%d" what pat cap k in
            check (name "matches") (Brz.Dfa.matches m (codes s)) (Eng.matches eng s);
            let want = Brz.Dfa.find_scan m s in
            Alcotest.check span (name "find") want (Eng.find eng s);
            Alcotest.(check (option int)) (name "contains")
              (Eng.contains big s) (Eng.contains eng s);
            check_int (name "count")
              (Brz.Dfa.count_matching_prefixes_scan m s)
              (Eng.count_matching_prefixes eng s)
          done;
          let st = Eng.stats eng in
          check (Printf.sprintf "%s cap %d resets" pat cap) true (st.Eng.resets > 0))
        [ 12; 20 ];
      (* the default cap holds more states than either small cap *)
      ignore (Eng.matches big (word n) : bool);
      ignore (Eng.count_matching_prefixes big (word n) : int);
      let st = Eng.stats big in
      check (pat ^ " outgrows the caps") true
        (max st.Eng.fwd_states (max st.Eng.unanch_states st.Eng.back_states) > 20))
    [ (* anchored pass: the last 6 letters decide *)
      ("(a|b)*a(a|b){5}", 1200)
      (* unanchored pass up to the final [c] *)
    ; ("(a|b)*a(a|b){5}c", 600)
      (* backward pass over every position *)
    ; ("(a|b){5}a", 5000) ]

(* -- one pass for a full match --------------------------------------------- *)

(* [full_and_find] runs the anchored pass only when the leftmost span
   starts at 0; every [full] agrees with the lazy DFA and the DP oracle,
   and every span with the per-position scan.  [matches] alone answers
   an input without the required factor from the prefilter. *)
let test_one_pass_full () =
  let rand = Random.State.make [| 11 |] in
  let pats =
    boolean_patterns @ [ "needle"; "ab.*"; ".*ba"; "a.*c"; "(ab)+"; "c{2}|a" ]
  in
  let inputs = ref 0 and starts0 = ref 0 and passes = ref 0 in
  List.iter
    (fun pat ->
      let r = re pat in
      let eng = Eng.create r in
      let m = Brz.Dfa.create r in
      for _ = 1 to 60 do
        let w = List.init (Random.State.int rand 10) (fun _ -> Char.code "abc".[Random.State.int rand 3]) in
        let s = ascii_string w in
        let before = (Eng.stats eng).Eng.anchored in
        let full, sp = Eng.full_and_find eng s in
        let name what = Printf.sprintf "%s %s %S" what pat s in
        check (name "full vs lazy DFA") (Brz.Dfa.matches m w) full;
        check (name "full vs oracle") (Ref.matches r w) full;
        Alcotest.check span (name "span") (Brz.Dfa.find_scan m s) sp;
        let ran = (Eng.stats eng).Eng.anchored - before in
        (match sp with
        | Some (0, _) -> incr starts0
        | Some _ | None -> check_int (name "no anchored pass") 0 ran);
        incr inputs;
        passes := !passes + ran
      done)
    pats;
  check (Printf.sprintf "%d anchored passes for %d inputs" !passes !inputs) true
    (!passes <= !starts0 && !passes < !inputs / 2);
  let eng = Eng.create (re ".*needle.*") in
  let s = String.make (1 lsl 20) 'x' in
  check "no factor, no full match" false (Eng.matches eng s);
  check_int "no factor, no scan" 0 (Eng.stats eng).Eng.scan_bytes;
  check_int "no factor, no anchored pass" 0 (Eng.stats eng).Eng.anchored

(* -- accelerated states ------------------------------------------------------ *)

module Dtbl = Hashtbl.Make (struct
  type t = int * R.t

  let equal (a, p) (b, q) = a = b && R.equal p q
  let hash (a, p) = Hashtbl.hash (a, R.hash p)
end)

(* The scalars of [s] in [mode] and the byte offset of each boundary. *)
let scalars mode s =
  let n = String.length s in
  match mode with
  | Sbd_engine.Byteclass.Byte ->
    (Array.init n (fun i -> Char.code s.[i]), Array.init (n + 1) Fun.id)
  | Sbd_engine.Byteclass.Utf8 ->
    let cps = ref [] and bnd = ref [ 0 ] and pos = ref 0 in
    while !pos < n do
      let cp, pos' = Sbd_engine.Byteclass.scalar_forward s !pos n in
      cps := cp :: !cps;
      bnd := pos' :: !bnd;
      pos := pos'
    done;
    (Array.of_list (List.rev !cps), Array.of_list (List.rev !bnd))

(* A linear reference for inputs past the per-position scans' reach:
   classic derivatives ({!Brz.derive}) over the decoded input, memoized
   per code point and term, with no byte tables, skips or windows.  The
   full-match verdict, the leftmost-earliest span, and the number of
   match starts below the end, from one backward pass of [⊤*·rev r] and
   forward passes of [r]. *)
let deriv_ref mode r s =
  let cps, bnd = scalars mode s in
  let k = Array.length cps in
  let memo = Dtbl.create 64 in
  let d cp p =
    match Dtbl.find_opt memo (cp, p) with
    | Some q -> q
    | None ->
      let q = Brz.derive cp p in
      Dtbl.add memo (cp, p) q;
      q
  in
  let full = R.nullable (Array.fold_left (fun p cp -> d cp p) r cps) in
  let starts = Array.make (k + 1) false in
  let p = ref (R.concat R.full (R.rev r)) in
  for i = k downto 0 do
    starts.(i) <- R.nullable !p;
    if i > 0 then p := d cps.(i - 1) !p
  done;
  let count = ref 0 in
  for i = 0 to k - 1 do
    if starts.(i) then incr count
  done;
  let rec least i = if i > k then None else if starts.(i) then Some i else least (i + 1) in
  let span =
    Option.bind (least 0) (fun i0 ->
        let rec go p j =
          if R.nullable p then Some (bnd.(i0), bnd.(j))
          else if j = k then None
          else go (d cps.(j) p) (j + 1)
        in
        go r i0)
  in
  (full, span, !count)

(* Patterns whose DFAs have states that loop on all but a few bytes or
   one ASCII range: the unanchored and backward start states, states
   past a prefix ([x[^y]*y]), nullable ones the full-match verdict and
   the least start skip from (the password pattern), nullable backward
   ones every position of which [count_matching_prefixes] counts
   ([[^y]*z]), and one that loops on every byte (the [a]/[b] product).
   Each is run over runs of filler (ASCII, 2-, 3- and 4-byte sequences,
   stray and truncated bytes), with its exit strings planted at every
   offset mod 8 around word edges, just before and after the 4 KB skip
   cap, and at the first and last byte, in both modes; against the
   linear reference, and on short inputs against the per-position scans
   and the DP oracle.  Every case also runs under state caps that reset
   the tables while an accelerated state is live, among them inside the
   forcing of its row. *)
let test_accelerated_states () =
  let byte = Sbd_engine.Byteclass.Byte and utf8 = Sbd_engine.Byteclass.Utf8 in
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
      let r = re pat in
      let m = Brz.Dfa.create r in
      List.iter
        (fun mode ->
          let eng = Eng.create ~mode r in
          let capped = List.map (fun cap -> Eng.create ~max_states:cap ~mode r) [ 2; 5 ] in
          let run ?(engines = [ eng ]) name s =
            let want_full, want_span, want_count = deriv_ref mode r s in
            List.iter
              (fun eng ->
                let full, got = Eng.full_and_find eng s in
                check (name "full") want_full full;
                Alcotest.check span (name "span") want_span got;
                check (name "matches") want_full (Eng.matches eng s);
                check_int (name "count") want_count (Eng.count_matching_prefixes eng s))
              engines;
            (want_full, want_span, want_count)
          in
          let mname = if mode = byte then "byte" else "utf8" in
          for j = 0 to 7 do
            let n = 9000 in
            let s = input n exits [ 0; 64 + j; 129 + j; 4088 + j; 4100 + j; 8191 - j; n - 1 ] in
            let name what = Printf.sprintf "%s %s %s j=%d" what pat mname j in
            let engines = if j mod 4 = 0 then eng :: capped else [ eng ] in
            ignore (run ~engines name s : bool * (int * int) option * int);
            (* short inputs: the reference against the per-position scans
               and the DP oracle *)
            let s = input 40 exits [ j; 9 + j; 39 - j ] in
            let name what = Printf.sprintf "%s %s %s short %S" what pat mname s in
            let full, sp, count = run ~engines:(eng :: capped) name s in
            let cps = Array.to_list (fst (scalars mode s)) in
            check (name "oracle full") (Ref.matches r cps) full;
            check (name "lazy DFA full") (Brz.Dfa.matches m cps) full;
            Alcotest.check span (name "per-position scan")
              (if mode = byte then Brz.Dfa.find_scan m s
               else Brz.Dfa.find_scan_lossy m ~kmax:41 s)
              sp;
            if mode = byte then
              check_int (name "per-position count") (Brz.Dfa.count_matching_prefixes_scan m s)
                count
          done;
          List.iter
            (fun eng ->
              let st = Eng.stats eng in
              skipped := !skipped + st.Eng.skip_bytes;
              resets := !resets + st.Eng.resets)
            (eng :: capped))
        [ byte; utf8 ])
    [ (".*needle.*", [ "needle"; "n"; "e"; "ne" ])
    ; ("needle\\d+", [ "needle7"; "9"; "0"; "needle" ])
    ; ("[0-9]+\\.[0-9]+", [ "3.14"; "9"; "."; "0." ])
    ; (".*\\d.*&~(.*01.*)", [ "7"; "01"; "1"; "0"; "9" ])
    ; ("(.*a.{6})&(.*b.{6})", [ "a"; "b"; "ab" ])
    ; ("x[^y]*y", [ "x"; "y"; "xy" ])
    ; ("[^y]*z", [ "z"; "y"; "zy" ])
    ; ("[c-h]{8}", [ "cdefghcd"; "c"; "h" ]) ];
  check "skips fired" true (!skipped > 0);
  check "resets exercised" true (!resets > 0);
  (* The short-skip guard: exits every other byte turn the unanchored
     start state's skip off, and answers stay exact.  The next scan
     re-arms it: a dense input costs at most [max_strikes] short skips
     per scan, and a sparse input after it skips again. *)
  let r = re "[c-h]{8}" in
  let eng = Eng.create ~mode:utf8 r in
  let sparse = String.make 5000 'q' ^ "cdefghcd" in
  Alcotest.check span "sparse" (Some (5000, 5008)) (Eng.find eng sparse);
  check_int "sparse: the start state skips" 6 (Eng.stats eng).Eng.accel_bytes;
  let dense = String.init 5000 (fun i -> if i mod 2 = 0 then 'q' else "cdefgh".[i / 2 mod 6]) in
  let dense = dense ^ "cdefghcd" in
  let _, want, _ = deriv_ref utf8 r dense in
  Alcotest.check span "dense" want (Eng.find eng dense);
  check_int "dense: the guard turned the skip off" 0 (Eng.stats eng).Eng.accel_bytes;
  let before = (Eng.stats eng).Eng.skip_bytes in
  Alcotest.check span "dense again" want (Eng.find eng dense);
  let strikes = Sbd_engine.Dfa.max_strikes * Sbd_engine.Dfa.short_skip in
  check "dense again: the guard turns the skip off within the scan" true
    ((Eng.stats eng).Eng.skip_bytes - before < strikes);
  check_int "dense again: off after the scan" 0 (Eng.stats eng).Eng.accel_bytes;
  let before = (Eng.stats eng).Eng.skip_bytes in
  Alcotest.check span "sparse after dense" (Some (5000, 5008)) (Eng.find eng sparse);
  check "sparse after dense: the start state skips again" true
    ((Eng.stats eng).Eng.skip_bytes - before >= 5000 - strikes);
  check_int "sparse after dense: exits" 6 (Eng.stats eng).Eng.accel_bytes

let suite =
  ( "engine",
    [
      Alcotest.test_case "byteclass table" `Quick test_byteclass_table
    ; Alcotest.test_case "anchored vs oracle" `Quick test_matches_vs_oracle
    ; Alcotest.test_case "find vs brute force" `Quick test_find_vs_brute
    ; Alcotest.test_case "max_states reset path" `Quick test_max_states_reset
    ; Alcotest.test_case "utf8 decoding" `Quick test_utf8
    ; Alcotest.test_case "malformed utf8 corpus vs oracle" `Quick
        test_utf8_corpus
    ; Alcotest.test_case "nullable leftmost-earliest" `Quick
        test_nullable_leftmost_earliest
    ; Alcotest.test_case "linear find under deadline" `Quick
        test_linear_find_within_deadline
    ; Alcotest.test_case "bounded find window" `Quick test_window_find
    ; Alcotest.test_case "bounded find reads little" `Quick
        test_window_reads_little
    ; Alcotest.test_case "counter bounds near max_int" `Quick test_huge_bounds
    ; Alcotest.test_case "scan block edges" `Quick test_block_edges
    ; Alcotest.test_case "cache reset after grow" `Quick test_reset_after_grow
    ; Alcotest.test_case "one pass for a full match" `Quick test_one_pass_full
    ; Alcotest.test_case "accelerated states" `Quick test_accelerated_states
    ] )
