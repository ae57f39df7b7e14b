(* Tests for the effective Boolean algebras: the interval-list algebra, the
   BDD algebra, their agreement, and minterm generation. *)

open Sbd_alphabet

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let ranges_testable =
  Alcotest.testable
    (fun ppf rs ->
      Format.fprintf ppf "[%a]"
        (Format.pp_print_list (fun ppf (a, b) -> Format.fprintf ppf "(%d,%d)" a b))
        rs)
    ( = )

(* -- range-list helpers ------------------------------------------------ *)

let test_normalize () =
  Alcotest.check ranges_testable "merge overlapping"
    [ (1, 10) ]
    (Algebra.normalize_ranges [ (5, 10); (1, 6) ]);
  Alcotest.check ranges_testable "merge adjacent"
    [ (1, 10) ]
    (Algebra.normalize_ranges [ (1, 5); (6, 10) ]);
  Alcotest.check ranges_testable "keep gaps"
    [ (1, 5); (7, 10) ]
    (Algebra.normalize_ranges [ (7, 10); (1, 5) ]);
  Alcotest.check ranges_testable "drop empty" []
    (Algebra.normalize_ranges [ (5, 4) ]);
  Alcotest.check ranges_testable "clamp to domain"
    [ (0, 10) ]
    (Algebra.normalize_ranges [ (-5, 10) ])

let test_complement () =
  Alcotest.check ranges_testable "complement of middle range"
    [ (0, 9); (21, Algebra.max_char) ]
    (Algebra.complement_ranges [ (10, 20) ]);
  Alcotest.check ranges_testable "complement of empty"
    [ (0, Algebra.max_char) ]
    (Algebra.complement_ranges []);
  Alcotest.check ranges_testable "complement of full" []
    (Algebra.complement_ranges [ (0, Algebra.max_char) ])

let test_inter () =
  Alcotest.check ranges_testable "overlap"
    [ (5, 10) ]
    (Algebra.inter_ranges [ (1, 10) ] [ (5, 20) ]);
  Alcotest.check ranges_testable "disjoint" []
    (Algebra.inter_ranges [ (1, 4) ] [ (5, 20) ]);
  Alcotest.check ranges_testable "multi"
    [ (2, 3); (8, 9) ]
    (Algebra.inter_ranges [ (2, 3); (8, 9) ] [ (0, 20) ])

(* -- per-algebra law tests, shared via a functor ----------------------- *)

module Laws (A : Algebra.S) = struct
  let digit = A.of_ranges Charclass.digit_ranges
  let lower = A.of_ranges Charclass.lower_ranges
  let word = A.of_ranges Charclass.word_ranges

  let sample_points =
    [ 0; 1; Char.code '0'; Char.code '5'; Char.code '9'; Char.code 'a'
    ; Char.code 'z'; Char.code 'A'; Char.code '_'; 0x7F; 0x100; 0x4E2D
    ; Algebra.max_char ]

  let agree msg p q =
    List.iter
      (fun c -> check (Printf.sprintf "%s (char %d)" msg c) (A.mem c p) (A.mem c q))
      sample_points

  let test_bounds () =
    check "bot is bot" true (A.is_bot A.bot);
    check "top is top" true (A.is_top A.top);
    check "digit not bot" false (A.is_bot digit);
    List.iter (fun c -> check "mem top" true (A.mem c A.top)) sample_points;
    List.iter (fun c -> check "mem bot" false (A.mem c A.bot)) sample_points

  let test_ops () =
    check "digit /\\ lower unsat" true (A.is_bot (A.conj digit lower));
    check "digit <= word" true (A.is_bot (A.conj digit (A.neg word)));
    agree "de morgan" (A.neg (A.disj digit lower)) (A.conj (A.neg digit) (A.neg lower));
    agree "involution" digit (A.neg (A.neg digit));
    check "extensional: a|b = b|a" true
      (A.equal (A.disj digit lower) (A.disj lower digit));
    check "a /\\ ~a = bot" true (A.is_bot (A.conj digit (A.neg digit)));
    check "a \\/ ~a = top" true (A.is_top (A.disj digit (A.neg digit)))

  let test_sizes () =
    check_int "digits" 10 (A.size digit);
    check_int "lower" 26 (A.size lower);
    check_int "top" 0x10000 (A.size A.top);
    check_int "bot" 0 (A.size A.bot)

  let test_choose () =
    (match A.choose digit with
    | Some c -> check "witness in denotation" true (A.mem c digit)
    | None -> Alcotest.fail "no witness for digit");
    check "no witness for bot" true (A.choose A.bot = None);
    (* The witness is biased to printable ASCII when possible. *)
    (match A.choose A.top with
    | Some c -> check "printable witness" true (c >= 0x20 && c <= 0x7E)
    | None -> Alcotest.fail "no witness for top")

  let test_ranges_roundtrip () =
    let cases =
      [ Charclass.digit_ranges; Charclass.word_ranges; Charclass.space_ranges
      ; [ (0, 0) ]; [ (Algebra.max_char, Algebra.max_char) ]
      ; [ (0x41, 0x5A); (0x61, 0x7A) ] ]
    in
    List.iter
      (fun rs ->
        let normalized = Algebra.normalize_ranges rs in
        Alcotest.check ranges_testable "of_ranges/ranges roundtrip" normalized
          (A.ranges (A.of_ranges rs)))
      cases

  let tests name =
    [ Alcotest.test_case (name ^ " bounds") `Quick test_bounds
    ; Alcotest.test_case (name ^ " operations") `Quick test_ops
    ; Alcotest.test_case (name ^ " sizes") `Quick test_sizes
    ; Alcotest.test_case (name ^ " choose") `Quick test_choose
    ; Alcotest.test_case (name ^ " ranges roundtrip") `Quick test_ranges_roundtrip
    ]
end

module Ranges_laws = Laws (Ranges)
module Bdd_laws = Laws (Bdd)

(* -- BDD vs ranges agreement ------------------------------------------- *)

let random_ranges rand =
  let n = 1 + Random.State.int rand 4 in
  List.init n (fun _ ->
      let lo = Random.State.int rand 0x10000 in
      let hi = min Algebra.max_char (lo + Random.State.int rand 300) in
      (lo, hi))

let test_bdd_matches_ranges () =
  let rand = Random.State.make [| 42 |] in
  for _ = 1 to 200 do
    let rs1 = random_ranges rand and rs2 = random_ranges rand in
    let b1 = Bdd.of_ranges rs1 and b2 = Bdd.of_ranges rs2 in
    let r1 = Ranges.of_ranges rs1 and r2 = Ranges.of_ranges rs2 in
    let pairs =
      [ (Bdd.conj b1 b2, Ranges.conj r1 r2)
      ; (Bdd.disj b1 b2, Ranges.disj r1 r2)
      ; (Bdd.neg b1, Ranges.neg r1) ]
    in
    List.iter
      (fun (b, r) ->
        Alcotest.check ranges_testable "bdd op = ranges op" (Ranges.ranges r)
          (Bdd.ranges b);
        check_int "sizes agree" (Ranges.size r) (Bdd.size b))
      pairs
  done

(* -- minterms ----------------------------------------------------------- *)

module M = Minterm.Make (Bdd)

let test_minterms_partition () =
  let preds =
    List.map Bdd.of_ranges
      [ Charclass.digit_ranges; Charclass.lower_ranges; Charclass.word_ranges ]
  in
  let mts = M.minterms preds in
  (* Pairwise disjoint. *)
  List.iteri
    (fun i p ->
      List.iteri
        (fun j q -> if i < j then check "disjoint" true (Bdd.is_bot (Bdd.conj p q)))
        mts)
    mts;
  (* Cover the domain. *)
  let union = List.fold_left Bdd.disj Bdd.bot mts in
  check "covers domain" true (Bdd.is_top union);
  (* All satisfiable. *)
  List.iter (fun p -> check "satisfiable" false (Bdd.is_bot p)) mts;
  check "at most 2^n" true (List.length mts <= 8)

let test_minterms_empty () =
  match M.minterms [] with
  | [ p ] -> check "single top minterm" true (Bdd.is_top p)
  | _ -> Alcotest.fail "expected exactly one minterm"

let test_minterm_of () =
  let preds = List.map Bdd.of_ranges [ Charclass.digit_ranges; Charclass.word_ranges ] in
  let m = M.minterm_of preds (Char.code '7') in
  check "contains the char" true (Bdd.mem (Char.code '7') m);
  check "inside digit" true (Bdd.is_bot (Bdd.conj m (Bdd.neg (List.hd preds))))

let test_minterms_blowup_count () =
  (* n pairwise-overlapping predicates can give 2^n minterms: witness the
     exponential behaviour the paper's Section 8.3 baselines suffer from. *)
  let bit i = Bdd.of_ranges (List.init 128 (fun c -> if c land (1 lsl i) <> 0 then (c, c) else (-1, -2))) in
  let preds = List.init 5 bit in
  let mts = M.minterms preds in
  (* 2^5 minterms within [0,127] plus the rest of the BMP merged in. *)
  check "exponential minterms" true (List.length mts >= 32)

(* BDD structural edge cases *)
let test_bdd_edges () =
  let module B = Bdd in
  (* single-point predicates at the domain extremes *)
  let zero = B.of_ranges [ (0, 0) ] in
  let top_cp = B.of_ranges [ (Algebra.max_char, Algebra.max_char) ] in
  check "mem 0" true (B.mem 0 zero);
  check "not mem 1" false (B.mem 1 zero);
  check "mem max" true (B.mem Algebra.max_char top_cp);
  check_int "size 1" 1 (B.size zero);
  (* alternating bit pattern: worst case for the range view *)
  let evens = B.of_ranges (List.init 128 (fun i -> (2 * i, 2 * i))) in
  check_int "128 evens" 128 (B.size evens);
  check "mem 4" true (B.mem 4 evens);
  check "not mem 5" false (B.mem 5 evens);
  Alcotest.(check int) "ranges count" 128 (List.length (B.ranges evens));
  (* hash-consing: equal denotations are physically equal *)
  let a = B.of_ranges [ (10, 20) ] and b = B.of_ranges [ (10, 15); (16, 20) ] in
  check "hash-consed equal" true (B.equal a b);
  check "xor-style identity" true
    (B.is_bot (B.conj (B.disj a (B.neg a)) B.bot))

let test_utf8_boundaries () =
  (* encode/decode exactly at the 1/2/3-byte boundaries *)
  List.iter
    (fun cp ->
      match Utf8.decode (Utf8.encode [ cp ]) with
      | Ok [ cp' ] -> check_int "boundary roundtrip" cp cp'
      | _ -> Alcotest.failf "failed at U+%04X" cp)
    [ 0x00; 0x7F; 0x80; 0x7FF; 0x800; 0xD7FF; 0xE000; 0xFFFF ]

let test_charclass_wellformed () =
  (* Every named class denotes a nonempty set of well-ordered BMP
     ranges: lo <= hi within each range, all within 0..0xFFFF.  The
     parser relies on classes never being the (rejected) empty class. *)
  List.iter
    (fun cls ->
      let rs = Charclass.ranges_of cls in
      check "class nonempty" false (rs = []);
      List.iter
        (fun (lo, hi) ->
          check "range ordered" true (lo <= hi);
          check "range in BMP" true (lo >= 0 && hi <= 0xFFFF))
        rs;
      (* and survives normalization nonempty *)
      check "normalized nonempty" false
        (Sbd_alphabet.Algebra.normalize_ranges rs = []))
    Charclass.
      [ Digit; Word; Space; Lower; Upper; Alpha; Alnum; Ascii; Printable; Any ]

(* -- word-at-a-time byte search ------------------------------------------ *)

(* Byte-loop references for [Bytescan.forward] and [Bytescan.backward]. *)
let forward_ref s pos limit c1 c2 c3 =
  let i = ref pos in
  let hit c = c = c1 || c = c2 || c = c3 in
  while !i < limit && not (hit s.[!i]) do
    incr i
  done;
  !i

let backward_ref s lo hi c1 c2 c3 =
  let i = ref hi in
  let hit c = c = c1 || c = c2 || c = c3 in
  while !i > lo && not (hit s.[!i - 1]) do
    decr i
  done;
  !i

(* Every start and stop alignment from 0 to 16 in a 64-byte window,
   with one target at each position (and none), a second target
   elsewhere so first and last differ, and the rest of the window drawn
   from bytes next to the targets: the lanes where a borrow out of a
   zero lane of the has-zero test could flag its neighbour. *)
let test_bytescan_vs_byte_loop () =
  let sets =
    [ ('\000', '\000', '\000'); ('\001', '\001', '\001'); ('\127', '\127', '\127')
    ; ('\128', '\128', '\128'); ('\255', '\255', '\255'); ('\n', '\n', '\n')
    ; ('"', '\\', '\\'); ('\000', '\001', '\001'); ('\128', '\128', '\129')
    ; ('a', 'a', 'b'); ('\000', '\128', '\255'); ('\001', '\127', '\129')
    ; ('a', 'b', 'a'); ('x', '\255', '\254') ]
  in
  let rand = Random.State.make [| 2407 |] in
  List.iter
    (fun (c1, c2, c3) ->
      let targets = [| c1; c2; c3 |] in
      let near =
        List.concat_map
          (fun c ->
            let b = Char.code c in
            [ b; b lxor 1; (b + 1) land 255; (b + 255) land 255; b lxor 0x80 ])
          [ c1; c2; c3 ]
        @ [ 0x00; 0x01; 0x7F; 0x80; 0x81; 0xFF ]
      in
      let pool =
        Array.of_list
          (List.filter_map
             (fun b ->
               let c = Char.chr b in
               if List.mem c [ c1; c2; c3 ] then None else Some c)
             near)
      in
      for fill = 0 to 3 do
        let base =
          Bytes.init 64 (fun _ -> pool.(Random.State.int rand (Array.length pool)))
        in
        for t = -1 to 63 do
          let b = Bytes.copy base in
          if t >= 0 then begin
            Bytes.set b t targets.((t + fill) mod 3);
            Bytes.set b ((t * 7 + 13) mod 64) targets.(fill mod 3)
          end;
          let s = Bytes.to_string b in
          for pos = 0 to 16 do
            for stop = 0 to 16 do
              let limit = 64 - stop in
              let agree what want got =
                if want <> got then
                  Alcotest.failf "%s %C%C%C on %S pos=%d limit=%d: %d, want %d"
                    what c1 c2 c3 s pos limit got want
              in
              agree "forward"
                (forward_ref s pos limit c1 c2 c3)
                (Bytescan.forward s pos limit c1 c2 c3);
              agree "backward"
                (backward_ref s pos limit c1 c2 c3)
                (Bytescan.backward s pos limit c1 c2 c3)
            done
          done
        done
      done)
    sets

(* Every ASCII range [\[lo, hi\]]: a 24-byte window drawn from the bytes
   just outside the range, the range's edges with the high bit set
   (which must never hit), and an in-range byte planted at each position
   (and none), with a second one elsewhere, searched from 5 starts to 4
   stops, so the word loop, its exact lane and the tails shorter than a
   word all decide some search. *)
let test_bytescan_range () =
  let in_range lo hi c = Char.code c >= lo && Char.code c <= hi in
  let forward_range_ref s pos limit lo hi =
    let i = ref pos in
    while !i < limit && not (in_range lo hi s.[!i]) do
      incr i
    done;
    !i
  in
  let backward_range_ref s lo_pos hi_pos lo hi =
    let i = ref hi_pos in
    while !i > lo_pos && not (in_range lo hi s.[!i - 1]) do
      decr i
    done;
    !i
  in
  let rand = Random.State.make [| 2408 |] in
  let n = 24 in
  for lo = 0 to 127 do
    for hi = lo to 127 do
      let pool =
        List.filter_map
          (fun b ->
            if b < 0 || b > 255 || (b >= lo && b <= hi) then None else Some (Char.chr b))
          [ lo - 1; hi + 1; lo lor 0x80; hi lor 0x80; (lo - 1) land 0xFF lor 0x80
          ; 0x00; 0x7F; 0x80; 0xFF ]
        |> Array.of_list
      in
      let base = Bytes.init n (fun _ -> pool.(Random.State.int rand (Array.length pool))) in
      for t = -1 to n - 1 do
        let b = Bytes.copy base in
        if t >= 0 then begin
          Bytes.set b t (Char.chr (if t land 1 = 0 then lo else hi));
          Bytes.set b ((t * 7 + 13) mod n) (Char.chr ((lo + hi) / 2))
        end;
        let s = Bytes.to_string b in
        List.iter
          (fun pos ->
            List.iter
              (fun stop ->
                let limit = n - stop in
                let agree what want got =
                  if want <> got then
                    Alcotest.failf "%s [%d, %d] on %S pos=%d limit=%d: %d, want %d"
                      what lo hi s pos limit got want
                in
                let clo = Char.chr lo and chi = Char.chr hi in
                agree "forward_range"
                  (forward_range_ref s pos limit lo hi)
                  (Bytescan.forward_range s pos limit clo chi);
                agree "backward_range"
                  (backward_range_ref s pos limit lo hi)
                  (Bytescan.backward_range s pos limit clo chi))
              [ 0; 1; 5; 8 ])
          [ 0; 1; 3; 7; 8 ]
      done
    done
  done

(* The 4-word step: one hit planted at every offset of the first word
   and the first three 32-byte steps after it, from each start
   alignment [pos mod 8], counted from the start for the forward
   kernels and from the stop for the backward ones, with stops just
   short of, at and past the first word's and each step's end and at
   the end of the string, so a hit lands in every lane of every word of
   a step, in a step cut short, and in the word and byte tails.  The
   filler is the bytes next to the targets (the borrow lanes), and the
   needle sets have 1, 2 and 3 distinct bytes in every order. *)
let test_bytescan_steps () =
  let n = 136 in
  let sweep name ~is_hit ~pool ~target ~fwd ~bwd =
    let fwd_ref s pos limit =
      let i = ref pos in
      while !i < limit && not (is_hit s.[!i]) do incr i done;
      !i
    and bwd_ref s lo hi =
      let i = ref hi in
      while !i > lo && not (is_hit s.[!i - 1]) do decr i done;
      !i
    in
    let base = Bytes.init n (fun i -> pool.(i * 5 mod Array.length pool)) in
    for pos = 0 to 7 do
      List.iter
        (fun span ->
          let limit = min n (pos + span) in
          for t = -1 to limit - pos - 1 do
            let agree what s want got =
              if want <> got then
                Alcotest.failf "%s %s pos=%d limit=%d hit=%d on %S: %d, want %d" what name
                  pos limit t s got want
            in
            let b = Bytes.copy base in
            if t >= 0 then Bytes.set b (pos + t) target;
            let s = Bytes.to_string b in
            agree "forward" s (fwd_ref s pos limit) (fwd s pos limit);
            let b = Bytes.copy base in
            if t >= 0 then Bytes.set b (limit - 1 - t) target;
            let s = Bytes.to_string b in
            agree "backward" s (bwd_ref s pos limit) (bwd s pos limit)
          done)
        [ 7; 8; 9; 39; 40; 41; 71; 72; 73; 104; 105; n ]
    done
  in
  let near cs =
    List.concat_map
      (fun c ->
        let b = Char.code c in
        [ b lxor 1; (b + 1) land 255; (b + 255) land 255; b lxor 0x80 ])
      cs
    @ [ 0x00; 0x01; 0x7F; 0x80; 0xFF ]
    |> List.filter_map (fun b ->
           let c = Char.chr b in
           if List.mem c cs then None else Some c)
    |> Array.of_list
  in
  List.iter
    (fun (c1, c2, c3) ->
      let cs = [ c1; c2; c3 ] in
      List.iter
        (fun target ->
          sweep
            (Printf.sprintf "%C%C%C hit %C" c1 c2 c3 target)
            ~is_hit:(fun c -> List.mem c cs)
            ~pool:(near cs) ~target
            ~fwd:(fun s pos limit -> Bytescan.forward s pos limit c1 c2 c3)
            ~bwd:(fun s lo hi -> Bytescan.backward s lo hi c1 c2 c3))
        (List.sort_uniq compare cs))
    [ ('\n', '\n', '\n'); ('\000', '\000', '\000'); ('\255', '\255', '\255')
    ; ('"', '\\', '\\'); ('a', 'a', 'b'); ('a', 'b', 'a'); ('\128', '\001', '\001')
    ; ('a', 'b', 'c'); ('\000', '\128', '\255') ];
  List.iter
    (fun (lo, hi) ->
      let clo = Char.chr lo and chi = Char.chr hi in
      let outside =
        List.filter
          (fun b -> b >= 0 && b <= 255 && (b < lo || b > hi))
          [ lo - 1; hi + 1; lo lor 0x80; hi lor 0x80; 0x00; 0x7F; 0x80; 0xFF ]
      in
      List.iter
        (fun target ->
          sweep
            (Printf.sprintf "[%d, %d] hit %d" lo hi (Char.code target))
            ~is_hit:(fun c -> Char.code c >= lo && Char.code c <= hi)
            ~pool:(Array.of_list (List.map Char.chr outside))
            ~target
            ~fwd:(fun s pos limit -> Bytescan.forward_range s pos limit clo chi)
            ~bwd:(fun s l h -> Bytescan.backward_range s l h clo chi))
        [ clo; chi ])
    [ (0x30, 0x39); (0x61, 0x61); (0x00, 0x00); (0x7F, 0x7F); (0x20, 0x7E) ]

(* The kernel keeps its words unboxed: a 1 MB scan allocates nothing
   in native code. *)
let test_bytescan_allocates_nothing () =
  let n = 1 lsl 20 in
  let s = String.make n 'z' in
  let w0 = Gc.minor_words () in
  let f1 = Bytescan.forward s 0 n 'a' 'a' 'a' in
  let f2 = Bytescan.forward s 0 n 'a' 'b' 'b' in
  let f3 = Bytescan.forward s 0 n 'a' 'b' 'c' in
  let b1 = Bytescan.backward s 0 n 'a' 'a' 'a' in
  let b2 = Bytescan.backward s 0 n 'a' 'b' 'a' in
  let b3 = Bytescan.backward s 0 n 'a' 'b' 'c' in
  let fr = Bytescan.forward_range s 0 n '0' '9' in
  let br = Bytescan.backward_range s 0 n '0' '9' in
  let w1 = Gc.minor_words () in
  check_int "forward miss" n f1;
  check_int "forward miss (2)" n f2;
  check_int "forward miss (3)" n f3;
  check_int "backward miss" 0 b1;
  check_int "backward miss (2)" 0 b2;
  check_int "backward miss (3)" 0 b3;
  check_int "forward_range miss" n fr;
  check_int "backward_range miss" 0 br;
  if Sys.backend_type = Sys.Native then
    Alcotest.(check (float 0.)) "minor words" 0. (w1 -. w0)

let suite =
  ( "alphabet",
    [ Alcotest.test_case "normalize_ranges" `Quick test_normalize
    ; Alcotest.test_case "complement_ranges" `Quick test_complement
    ; Alcotest.test_case "inter_ranges" `Quick test_inter ]
    @ Ranges_laws.tests "ranges"
    @ Bdd_laws.tests "bdd"
    @ [ Alcotest.test_case "bdd agrees with ranges" `Quick test_bdd_matches_ranges
      ; Alcotest.test_case "minterms partition" `Quick test_minterms_partition
      ; Alcotest.test_case "minterms of empty set" `Quick test_minterms_empty
      ; Alcotest.test_case "minterm_of" `Quick test_minterm_of
      ; Alcotest.test_case "minterm blowup" `Quick test_minterms_blowup_count
      ; Alcotest.test_case "bdd edge cases" `Quick test_bdd_edges
      ; Alcotest.test_case "utf8 boundaries" `Quick test_utf8_boundaries
      ; Alcotest.test_case "charclass well-formed" `Quick
          test_charclass_wellformed
      ; Alcotest.test_case "bytescan vs byte loop" `Quick
          test_bytescan_vs_byte_loop
      ; Alcotest.test_case "bytescan ranges vs byte loop" `Quick test_bytescan_range
      ; Alcotest.test_case "bytescan allocates nothing" `Quick
          test_bytescan_allocates_nothing
      ; Alcotest.test_case "bytescan 4-word steps" `Quick test_bytescan_steps ] )
