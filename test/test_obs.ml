(* Tests for the observability/resource-governance layer (counters,
   spans, deadlines, JSON) and for the instrumentation threaded through
   the solver stack: deadline aborts on pathological DNF expansions,
   memo-table stats, witness escaping, and the harness statistics. *)

module A = Sbd_alphabet.Bdd
module R = Sbd_regex.Regex.Make (A)
module P = Sbd_regex.Parser.Make (R)
module T = Sbd_service.Default.Make (R)
module D = T.D
module S = T.S
module Ref = Sbd_classic.Refmatch.Make (R)
module Obs = Sbd_obs.Obs
module H = Sbd_harness.Harness

let re = P.parse_exn
let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)

(* -- counters and spans -------------------------------------------------- *)

let test_counters () =
  let c = Obs.Counter.make "test.obs.counter" in
  let v0 = Obs.Counter.value c in
  Obs.Counter.incr c;
  Obs.Counter.add c 4;
  check_int "incr+add" (v0 + 5) (Obs.Counter.value c);
  Obs.Counter.max_to c 2;
  check_int "max_to below is no-op" (v0 + 5) (Obs.Counter.value c);
  Obs.Counter.max_to c 1000;
  check_int "max_to above raises value" 1000 (Obs.Counter.value c);
  check_str "name" "test.obs.counter" (Obs.Counter.name c);
  (* same name, same cell *)
  let c' = Obs.Counter.make "test.obs.counter" in
  Obs.Counter.incr c';
  check_int "global registry by name" 1001 (Obs.Counter.value c);
  (* disabled mode drops recordings *)
  Obs.set_enabled false;
  Obs.Counter.incr c;
  Obs.Counter.add c 7;
  Obs.Counter.max_to c 5000;
  check_int "disabled: no recording" 1001 (Obs.Counter.value c);
  Obs.set_enabled true;
  (* snapshot carries the counter *)
  let snap = Obs.snapshot () in
  check "snapshot has counter" true
    (List.mem_assoc "test.obs.counter" snap
    && List.assoc "test.obs.counter" snap = 1001.0)

let test_spans () =
  let sp = Obs.Span.make "test.obs.span" in
  let n0 = Obs.Span.count sp in
  let r = Obs.Span.time sp (fun () -> 42) in
  check_int "thunk result" 42 r;
  check_int "one hit" (n0 + 1) (Obs.Span.count sp);
  Obs.Span.add sp 0.25;
  check_int "add charges a hit" (n0 + 2) (Obs.Span.count sp);
  check "total grew" true (Obs.Span.total sp >= 0.25);
  (* exceptions propagate but the duration is still charged *)
  (try Obs.Span.time sp (fun () -> failwith "boom") with Failure _ -> ());
  check_int "exceptional hit" (n0 + 3) (Obs.Span.count sp);
  let snap = Obs.snapshot () in
  check "snapshot has span seconds" true (List.mem_assoc "test.obs.span.s" snap);
  check "snapshot has span count" true
    (List.assoc "test.obs.span.n" snap = float_of_int (n0 + 3))

(* -- deadlines ----------------------------------------------------------- *)

let test_deadline () =
  check "none never expires" false (Obs.Deadline.expired Obs.Deadline.none);
  check "none is none" true (Obs.Deadline.is_none Obs.Deadline.none);
  Obs.Deadline.check Obs.Deadline.none;
  (* node budget: checks charge one unit each; well past the clock
     stride so throttled sampling cannot mask the expiry *)
  let dl = Obs.Deadline.make ~nodes:500 () in
  check "fresh deadline alive" false (Obs.Deadline.expired dl);
  let raised = ref false in
  (try
     for _ = 1 to 1000 do
       Obs.Deadline.check dl
     done
   with Obs.Deadline_exceeded what ->
     raised := true;
     check_str "nodes exhausted" "nodes" what);
  check "node budget fired" true !raised;
  check "expired afterwards" true (Obs.Deadline.expired dl);
  (* explicit charge counts against the same budget *)
  let dl2 = Obs.Deadline.make ~nodes:10 () in
  Obs.Deadline.charge dl2 20;
  check "charge expires" true (Obs.Deadline.expired dl2);
  (* wall clock: an already-elapsed deadline fires within one stride *)
  let dl3 = Obs.Deadline.of_seconds 0.0 in
  let raised3 = ref false in
  (try
     for _ = 1 to 1000 do
       Obs.Deadline.check dl3
     done
   with Obs.Deadline_exceeded what ->
     raised3 := true;
     check_str "wall exhausted" "wall" what);
  check "wall deadline fired" true !raised3;
  check "elapsed nonnegative" true (Obs.Deadline.elapsed dl3 >= 0.0);
  check "remaining reported" true (Obs.Deadline.remaining_time dl3 <> None)

(* -- json ---------------------------------------------------------------- *)

let test_json () =
  let module J = Obs.Json in
  check_str "null" "null" (J.to_string J.Null);
  check_str "bool" "true" (J.to_string (J.Bool true));
  check_str "int" "-3" (J.to_string (J.Int (-3)));
  check_str "string escaping" "\"a\\\"b\\\\c\\n\""
    (J.to_string (J.Str "a\"b\\c\n"));
  check_str "control chars" "\"\\u0001\"" (J.to_string (J.Str "\x01"));
  check_str "array" "[1,2]" (J.to_string (J.Arr [ J.Int 1; J.Int 2 ]));
  check_str "object" "{\"a\":1,\"b\":[]}"
    (J.to_string (J.Obj [ ("a", J.Int 1); ("b", J.Arr []) ]));
  check_str "nan is neutralised" "0" (J.to_string (J.Float Float.nan));
  (* pretty rendering stays parseable-shaped and newline-terminated
     object entries *)
  let pretty = J.to_string_pretty (J.Obj [ ("k", J.Int 1) ]) in
  check "pretty contains key" true
    (String.length pretty > 0
    && String.index_opt pretty '\n' <> None
    && String.index_opt pretty 'k' <> None)

(* -- deadline threaded through the solver -------------------------------- *)

(* An intersection of alternations that all start with the same letter:
   clean-DNF pruning cannot collapse the cross product, so the very
   first transition computation builds 8^8 meets.  Without a deadline
   this runs essentially forever at any step budget. *)
let blowup_pattern =
  let factor k =
    String.concat "|"
      (List.init 8 (fun i ->
           Printf.sprintf "a%c.*" (Char.chr (Char.code 'a' + k + i))))
  in
  String.concat "&" (List.init 8 (fun k -> "(" ^ factor k ^ ")"))

let test_deadline_blowup () =
  let s = S.create_session () in
  let t0 = Obs.now () in
  let result = S.solve ~deadline:0.05 s (re blowup_pattern) in
  let elapsed = Obs.now () -. t0 in
  (match result with
  | S.Unknown why -> check_str "deadline reason" "deadline" why
  | S.Sat _ | S.Unsat -> Alcotest.fail "expected unknown under deadline");
  (* acceptance bound: the query returns within ~2x the deadline *)
  check
    (Printf.sprintf "returned promptly (%.3fs)" elapsed)
    true (elapsed < 1.0);
  check "deadline hit recorded" true (s.S.deadline_hits > 0)

let test_deadline_harmless () =
  (* a generous deadline must not change easy answers *)
  let s = S.create_session () in
  (match S.solve ~deadline:10.0 s (re "a{2,3}&~(.*b)") with
  | S.Sat w -> check "witness ok" true (Ref.matches (re "a{2,3}&~(.*b)") w)
  | _ -> Alcotest.fail "expected sat under generous deadline");
  match S.solve ~deadline:10.0 s (re "a{2}&a{3}") with
  | S.Unsat -> ()
  | _ -> Alcotest.fail "expected unsat under generous deadline"

(* -- instrumentation surfaces -------------------------------------------- *)

let test_deriv_stats () =
  let d1, n1, t1 = D.stats () in
  let r = re "(ab|cd)*&~(.*dd.*)" in
  ignore (D.transitions r);
  ignore (D.delta_dnf r);
  let d2, n2, t2 = D.stats () in
  check "delta table grew" true (d2 > d1);
  check "dnf table grew" true (n2 > n1);
  check "transitions table grew" true (t2 > t1)

let test_session_stats () =
  let s = S.create_session () in
  (* presolve off: the expansion/frontier counters are search-internal *)
  (match S.solve ~presolve:false s (re "a*b") with
  | S.Sat _ -> ()
  | _ -> Alcotest.fail "expected sat");
  let stats = S.session_stats s in
  let get k = List.assoc k stats in
  check "queries counted" true (get "session.queries" >= 1.0);
  check "expansions counted" true (get "session.expansions" >= 1.0);
  check "wall time measured" true (get "session.wall_time_s" >= 0.0);
  check "graph vertices" true (get "session.graph_vertices" >= 1.0);
  check "peak frontier" true (get "session.peak_frontier" >= 1.0)

(* -- witness printing ---------------------------------------------------- *)

let test_witness_escaping () =
  (* exactly one layer of escaping, including non-ASCII code points *)
  check_str "plain" "abc" (S.string_of_witness [ 0x61; 0x62; 0x63 ]);
  check_str "quote and backslash" "a\\\"b\\\\c"
    (S.string_of_witness [ 0x61; 0x22; 0x62; 0x5C; 0x63 ]);
  check_str "non-ascii" "\\u{00E9}x" (S.string_of_witness [ 0xE9; 0x78 ]);
  check_str "control" "\\u{0007}" (S.string_of_witness [ 0x07 ]);
  let printed = Format.asprintf "%a" S.pp_result (S.Sat [ 0xE9; 0x22 ]) in
  (* pp_result must not re-escape the already-escaped string *)
  check_str "pp_result single layer" "sat \"\\u{00E9}\\\"\"" printed

let test_witness_nonascii_solve () =
  let s = S.create_session () in
  let r = re "\\u{00E9}x" in
  match S.solve s r with
  | S.Sat w ->
    Alcotest.(check (list int)) "code points" [ 0xE9; 0x78 ] w;
    check_str "rendering" "\\u{00E9}x" (S.string_of_witness w)
  | _ -> Alcotest.fail "expected sat"

(* -- witness reconstruction regressions ---------------------------------- *)

let test_witness_depth_saturation () =
  (* side constraints push the search deep before a witness exists; the
     reconstructed word must satisfy both the regex and the sides *)
  let s = S.create_session () in
  let r = re ".*\\d.*&~(.*01.*)" in
  let not_zero = A.neg (A.of_ranges [ (Char.code '0', Char.code '0') ]) in
  let side = { S.no_side with S.min_len = 9; S.char_at = [ (0, not_zero) ] } in
  (match S.solve ~side s r with
  | S.Sat w ->
    check "depth >= min_len" true (List.length w >= 9);
    check "matches regex" true (Ref.matches r w);
    check "respects char_at" true (List.hd w <> Char.code '0')
  | _ -> Alcotest.fail "expected sat under deep side constraints");
  (* same query under BFS: still a valid witness, and none shorter *)
  match S.solve ~side ~strategy:S.Bfs s r with
  | S.Sat w ->
    check_int "bfs shortest at saturation depth" 9 (List.length w);
    check "bfs witness matches" true (Ref.matches r w)
  | _ -> Alcotest.fail "expected sat under BFS"

let test_bfs_shortest_guarantee () =
  let s = S.create_session () in
  let cases =
    [ ("a{3}|b{2}", 2); ("(abc){2}|xy|a{7}", 2); (".*\\d.*&~(.*01.*)", 1)
    ; ("a{4,}", 4) ]
  in
  List.iter
    (fun (pat, len) ->
      match S.solve ~strategy:S.Bfs s (re pat) with
      | S.Sat w ->
        check_int (Printf.sprintf "shortest for %s" pat) len (List.length w)
      | _ -> Alcotest.failf "expected sat for %s" pat)
    cases

(* -- harness statistics -------------------------------------------------- *)

let test_median () =
  let eps = 1e-9 in
  let feq msg a b = check msg true (Float.abs (a -. b) < eps) in
  feq "singleton" 1.0 (H.median [ 1.0 ]);
  feq "odd" 2.0 (H.median [ 3.0; 1.0; 2.0 ]);
  (* even length: average of the two middle elements *)
  feq "even" 1.5 (H.median [ 2.0; 1.0 ]);
  feq "even 4" 2.5 (H.median [ 4.0; 1.0; 3.0; 2.0 ]);
  feq "empty" 0.0 (H.median [])

(* The trajectory file: sections accumulate runs, and a file that does
   not parse is an error naming it, never overwritten. *)
let test_append_bench () =
  let module J = Obs.Json in
  let path = Filename.temp_file "bench" ".json" in
  Sys.remove path;
  let append section =
    H.append_bench ~section ~path (J.Obj [ ("n", J.Int 1) ])
  in
  let runs section =
    match[@warning "-4"] Sbd_service.Jsonin.parse (H.read_file path) with
    | Ok (J.Obj kvs) -> (
      match[@warning "-4"] List.assoc_opt section kvs with
      | Some (J.Arr rs) -> List.length rs
      | _ -> 0)
    | _ -> Alcotest.fail "not a JSON object"
  in
  check "missing file" true (append "a" = Ok ());
  check_int "a after one append" 1 (runs "a");
  check "second section" true (append "b" = Ok ());
  check_int "a kept" 1 (runs "a");
  check_int "b added" 1 (runs "b");
  check "a again" true (append "a" = Ok ());
  check_int "a accumulates" 2 (runs "a");
  let whole = H.read_file path in
  let truncated = String.sub whole 0 (String.length whole / 2) in
  Out_channel.with_open_bin path (fun oc -> output_string oc truncated);
  (match append "c" with
  | Ok () -> Alcotest.fail "appended to a truncated file"
  | Error msg ->
    check "error names the file" true (String.starts_with ~prefix:path msg));
  check_str "truncated file untouched" truncated (H.read_file path);
  Sys.remove path

let suite =
  ( "obs",
    [ Alcotest.test_case "counters" `Quick test_counters
    ; Alcotest.test_case "spans" `Quick test_spans
    ; Alcotest.test_case "deadlines" `Quick test_deadline
    ; Alcotest.test_case "json builder" `Quick test_json
    ; Alcotest.test_case "deadline aborts blowup" `Quick test_deadline_blowup
    ; Alcotest.test_case "deadline leaves easy queries alone" `Quick
        test_deadline_harmless
    ; Alcotest.test_case "deriv memo stats" `Quick test_deriv_stats
    ; Alcotest.test_case "session stats" `Quick test_session_stats
    ; Alcotest.test_case "witness escaping" `Quick test_witness_escaping
    ; Alcotest.test_case "non-ascii witness" `Quick test_witness_nonascii_solve
    ; Alcotest.test_case "witness under depth saturation" `Quick
        test_witness_depth_saturation
    ; Alcotest.test_case "bfs shortest witness" `Quick test_bfs_shortest_guarantee
    ; Alcotest.test_case "harness median" `Quick test_median
    ; Alcotest.test_case "harness append_bench" `Quick test_append_bench ] )
