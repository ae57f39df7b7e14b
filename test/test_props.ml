(* Property-based tests (qcheck): random extended regexes over a small
   sample alphabet, cross-checked between the symbolic-derivative engine,
   the classical engines, the SBFA, the solvers, and the independent
   dynamic-programming oracle.

   Properties covered:
   - Theorem 4.3 (symbolic derivative = classical derivative, as languages)
   - Lemma 4.2 (negation of transition regexes)
   - semantic preservation of NNF and DNF
   - Theorem 7.2 (SBFA acceptance) and Theorem 7.3 (linear state bound)
   - soundness of solver witnesses and agreement between solvers
   - minterm partition property, BDD/ranges algebra agreement
   - printer/parser round-trips *)

module A = Sbd_alphabet.Bdd
module R = Sbd_regex.Regex.Make (A)
module P = Sbd_regex.Parser.Make (R)
module T = Sbd_service.Default.Make (R)
module D = T.D
module Tr = D.Tr
module Sbfa = Sbd_core.Sbfa.Make (R)
module S = T.S
module Ref = Sbd_classic.Refmatch.Make (R)
module Brz = Sbd_classic.Brzozowski.Make (R)
module MSolve = Sbd_classic.Minterm_solver.Make (R)
module Simp = Sbd_regex.Simplify.Make (R)
module C = T.C
module Safa = Sbd_core.Safa.Make (R)

let ca = Char.code 'a'
let cb = Char.code 'b'
let c0 = Char.code '0'
let c1 = Char.code '1'
let cx = Char.code 'x'
let sample_alphabet = [ ca; cb; c0; c1; cx ]

(* -- generators ------------------------------------------------------- *)

let gen_pred : A.pred QCheck2.Gen.t =
  QCheck2.Gen.oneofl
    [ A.of_ranges [ (ca, ca) ]
    ; A.of_ranges [ (cb, cb) ]
    ; A.of_ranges [ (c0, c0) ]
    ; A.of_ranges [ (c1, c1) ]
    ; A.of_ranges [ (ca, cb) ]
    ; A.of_ranges [ (c0, c1) ]
    ; A.of_ranges [ (ca, cb); (c0, c0) ]
    ; A.neg (A.of_ranges [ (ca, ca) ])
    ; A.top
    ]

(* Random extended regexes.  [boolean] controls whether &/~ may appear;
   when [bre] is set they may appear only above classical subterms. *)
let gen_regex ~boolean : R.t QCheck2.Gen.t =
  let open QCheck2.Gen in
  let leaf =
    frequency
      [ (6, map R.pred gen_pred); (1, pure R.eps); (1, pure R.empty) ]
  in
  fix
    (fun self n ->
      if n <= 1 then leaf
      else
        let sub = self (n / 2) in
        let base =
          [ (4, map2 R.concat sub sub)
          ; (3, map2 R.alt sub sub)
          ; (2, map R.star sub)
          ; (1,
             map2
               (fun r (m, k) -> R.loop r m (Some (m + k)))
               sub
               (pair (int_bound 2) (int_bound 2)))
          ; (2, leaf)
          ]
        in
        let bool_ops =
          [ (2, map2 R.inter sub sub); (2, map R.compl sub) ]
        in
        frequency (if boolean then base @ bool_ops else base))
    8

let gen_word : int list QCheck2.Gen.t =
  QCheck2.Gen.(list_size (int_bound 6) (oneofl sample_alphabet))

let print_regex r = R.to_string r

let print_regex_word (r, w) =
  Printf.sprintf "%s on %s" (R.to_string r)
    (String.concat "" (List.map (fun c -> Printf.sprintf "%c" (Char.chr c)) w))

let count = 300

let prop name gen print f = QCheck2.Test.make ~name ~count ~print gen f

(* enumerate all words over a sub-alphabet up to a length *)
let words_upto alphabet n =
  let rec go n = if n = 0 then [ [] ] else
    let shorter = go (n - 1) in
    shorter
    @ (List.concat_map
         (fun w -> List.map (fun c -> c :: w) alphabet)
         (List.filter (fun w -> List.length w = n - 1) shorter))
  in
  go n

let short_words = words_upto [ ca; cb; c0; c1 ] 4

(* -- engine agreement -------------------------------------------------- *)

let t_deriv_vs_oracle =
  prop "derivative matching = oracle"
    QCheck2.Gen.(pair (gen_regex ~boolean:true) gen_word)
    print_regex_word
    (fun (r, w) -> D.matches r w = Ref.matches r w)

let t_brz_vs_oracle =
  prop "brzozowski matching = oracle"
    QCheck2.Gen.(pair (gen_regex ~boolean:true) gen_word)
    print_regex_word
    (fun (r, w) -> Brz.matches r w = Ref.matches r w)

let t_thm_4_3 =
  (* L(delta(r)(c)) = L(Brz_c(r)) compared as languages over short words *)
  prop "Theorem 4.3"
    QCheck2.Gen.(pair (gen_regex ~boolean:true) (oneofl sample_alphabet))
    (fun (r, c) -> Printf.sprintf "%s / %c" (R.to_string r) (Char.chr c))
    (fun (r, c) ->
      let lhs = D.derive c r and rhs = Brz.derive c r in
      if R.equal lhs rhs then true
      else List.for_all (fun w -> Ref.matches lhs w = Ref.matches rhs w) short_words)

let t_lemma_4_2 =
  prop "Lemma 4.2 (negation)"
    QCheck2.Gen.(pair (gen_regex ~boolean:true) (oneofl sample_alphabet))
    (fun (r, c) -> Printf.sprintf "%s / %c" (R.to_string r) (Char.chr c))
    (fun (r, c) ->
      let t = D.delta r in
      let lhs = Tr.apply (Tr.neg t) c and rhs = R.compl (Tr.apply t c) in
      if R.equal lhs rhs then true
      else List.for_all (fun w -> Ref.matches lhs w = Ref.matches rhs w) short_words)

let t_dnf_semantics =
  prop "DNF preserves semantics"
    QCheck2.Gen.(pair (gen_regex ~boolean:true) (oneofl sample_alphabet))
    (fun (r, c) -> Printf.sprintf "%s / %c" (R.to_string r) (Char.chr c))
    (fun (r, c) ->
      let t = D.delta r in
      let d = Tr.dnf t in
      Tr.is_dnf d
      &&
      let lhs = Tr.apply d c and rhs = Tr.apply t c in
      if R.equal lhs rhs then true
      else List.for_all (fun w -> Ref.matches lhs w = Ref.matches rhs w) short_words)

let t_nnf_semantics =
  prop "NNF preserves semantics"
    QCheck2.Gen.(pair (gen_regex ~boolean:true) (oneofl sample_alphabet))
    (fun (r, c) -> Printf.sprintf "%s / %c" (R.to_string r) (Char.chr c))
    (fun (r, c) ->
      (* build a transition regex with an explicit complement node *)
      let t = Tr.raw_compl (D.delta r) in
      let lhs = Tr.apply (Tr.nnf t) c and rhs = Tr.apply t c in
      if R.equal lhs rhs then true
      else List.for_all (fun w -> Ref.matches lhs w = Ref.matches rhs w) short_words)

(* -- SBFA --------------------------------------------------------------- *)

let t_sbfa_accepts =
  prop "Theorem 7.2 (SBFA acceptance = oracle)"
    QCheck2.Gen.(pair (gen_regex ~boolean:true) gen_word)
    print_regex_word
    (fun (r, w) ->
      match Sbfa.build ~max_states:400 r with
      | None -> QCheck2.assume_fail ()
      | Some m -> Sbfa.accepts m w = Ref.matches r w)

let t_thm_7_3 =
  prop "Theorem 7.3 (linear bound on B(RE))"
    (gen_regex ~boolean:true)
    print_regex
    (fun r ->
      QCheck2.assume (R.in_bre r);
      match Sbfa.build ~max_states:5000 r with
      | None -> false
      | Some m -> Sbfa.linear_bound_holds m)

(* -- solver ------------------------------------------------------------- *)

let t_solver_sound =
  let session = S.create_session () in
  prop "solver witnesses are sound"
    (gen_regex ~boolean:true)
    print_regex
    (fun r ->
      match S.solve ~budget:20_000 session r with
      | S.Sat w -> Ref.matches r w
      | S.Unsat ->
        (* no short word over the sample alphabet may match *)
        List.for_all (fun w -> not (Ref.matches r w)) short_words
      | S.Unknown _ -> QCheck2.assume_fail ())

let t_solvers_agree =
  let session = S.create_session () in
  prop "dz3 and minterm solver agree"
    (gen_regex ~boolean:true)
    print_regex
    (fun r ->
      match (S.solve ~budget:20_000 session r, MSolve.solve ~budget:20_000 r) with
      | S.Sat _, MSolve.Sat _ | S.Unsat, MSolve.Unsat -> true
      | S.Unknown _, _ | _, MSolve.Unknown _ -> QCheck2.assume_fail ()
      | _ -> false)

let t_equiv_reflexive =
  let session = S.create_session () in
  prop "equiv is reflexive; subset of union"
    QCheck2.Gen.(pair (gen_regex ~boolean:true) (gen_regex ~boolean:true))
    (fun (r, s) -> Printf.sprintf "%s / %s" (R.to_string r) (R.to_string s))
    (fun (r, s) ->
      match
        (S.equiv ~budget:20_000 session r r, S.subset ~budget:20_000 session r (R.alt r s))
      with
      | Some true, Some true -> true
      | None, _ | _, None -> QCheck2.assume_fail ()
      | _ -> false)

(* -- algebra ------------------------------------------------------------- *)

let gen_ranges =
  QCheck2.Gen.(
    list_size (int_range 1 4)
      (map
         (fun (lo, len) -> (lo, min Sbd_alphabet.Algebra.max_char (lo + len)))
         (pair (int_bound Sbd_alphabet.Algebra.max_char) (int_bound 500))))

let t_bdd_vs_ranges =
  prop "BDD and ranges algebras agree"
    QCheck2.Gen.(pair gen_ranges gen_ranges)
    (fun _ -> "ranges")
    (fun (rs1, rs2) ->
      let module Rg = Sbd_alphabet.Ranges in
      let b1 = A.of_ranges rs1 and b2 = A.of_ranges rs2 in
      let g1 = Rg.of_ranges rs1 and g2 = Rg.of_ranges rs2 in
      A.ranges (A.conj b1 b2) = Rg.ranges (Rg.conj g1 g2)
      && A.ranges (A.disj b1 b2) = Rg.ranges (Rg.disj g1 g2)
      && A.ranges (A.neg b1) = Rg.ranges (Rg.neg g1)
      && A.size b1 = Rg.size g1)

let t_minterms_partition =
  let module M = Sbd_alphabet.Minterm.Make (A) in
  prop "minterms partition the alphabet"
    QCheck2.Gen.(list_size (int_range 1 4) gen_pred)
    (fun _ -> "preds")
    (fun preds ->
      let mts = M.minterms preds in
      let disjoint =
        List.for_all
          (fun p ->
            List.for_all
              (fun q -> A.equal p q || A.is_bot (A.conj p q))
              mts)
          mts
      in
      let total = List.fold_left A.disj A.bot mts in
      disjoint && A.is_top total && List.for_all (fun p -> not (A.is_bot p)) mts)

let t_choose_sound =
  prop "choose returns a member"
    gen_pred
    (fun _ -> "pred")
    (fun p ->
      match A.choose p with
      | Some c -> A.mem c p
      | None -> A.is_bot p)

(* -- extensions: simplifier, coinductive equivalence, matcher ------------ *)

let t_simplify_preserves =
  prop "simplify preserves the language and never grows"
    QCheck2.Gen.(pair (gen_regex ~boolean:true) gen_word)
    print_regex_word
    (fun (r, w) ->
      let r' = Simp.simplify r in
      R.size r' <= R.size r && Ref.matches r w = Ref.matches r' w)

let csession = C.create_session ()

let t_simplify_equiv_to_original =
  (* stronger check on a subsample: decide equivalence symbolically *)
  prop "simplify output is equivalent (decision procedure)"
    (gen_regex ~boolean:true)
    print_regex
    (fun r ->
      let r' = Simp.simplify r in
      if R.equal r r' then true
      else
        match C.equiv ~budget:20_000 csession r r' with
        | C.Proved -> true
        | C.Refuted _ -> false
        | C.Unknown _ -> QCheck2.assume_fail ())

let t_contain_equiv_vs_solver =
  let session = S.create_session () in
  prop "coinductive equivalence agrees with complement-based equivalence"
    QCheck2.Gen.(pair (gen_regex ~boolean:true) (gen_regex ~boolean:true))
    (fun (r, s) -> Printf.sprintf "%s / %s" (R.to_string r) (R.to_string s))
    (fun (r, s) ->
      match
        (C.equiv ~budget:20_000 ~presolve:false csession r s,
         S.equiv ~budget:20_000 session r s)
      with
      | C.Proved, Some b -> b
      | C.Refuted _, Some b -> not b
      | C.Unknown _, _ | _, None -> QCheck2.assume_fail ())

let t_contain_equiv_counterexample =
  prop "equivalence counterexamples distinguish the languages"
    QCheck2.Gen.(pair (gen_regex ~boolean:true) (gen_regex ~boolean:true))
    (fun (r, s) -> Printf.sprintf "%s / %s" (R.to_string r) (R.to_string s))
    (fun (r, s) ->
      match C.equiv ~budget:20_000 ~presolve:false csession r s with
      | C.Refuted w -> Ref.matches r w <> Ref.matches s w
      | C.Proved -> true
      | C.Unknown _ -> QCheck2.assume_fail ())

let t_safa_vs_oracle =
  prop "SAFA acceptance = oracle (Propositions 8.2/8.3)"
    QCheck2.Gen.(pair (gen_regex ~boolean:true) gen_word)
    print_regex_word
    (fun (r, w) ->
      match Safa.of_sbfa_regex ~max_states:400 r with
      | None -> QCheck2.assume_fail ()
      | Some m -> Safa.accepts m w = Ref.matches r w)

let t_matcher_vs_oracle =
  prop "SRM-style matcher agrees with the oracle"
    QCheck2.Gen.(pair (gen_regex ~boolean:true) gen_word)
    print_regex_word
    (fun (r, w) ->
      let m = Brz.Dfa.create r in
      Brz.Dfa.matches m w = Ref.matches r w)

(* -- printer/parser ------------------------------------------------------ *)

let t_roundtrip =
  prop "print/parse roundtrip"
    (gen_regex ~boolean:true)
    print_regex
    (fun r ->
      (* ⊥ prints as "[]", which the parser deliberately rejects (an
         empty class in a real pattern is always a typo).  The smart
         constructors absorb ⊥ everywhere, so it only survives at the
         root. *)
      if R.equal r R.empty then
        match P.parse (R.to_string r) with
        | Ok _ -> QCheck2.Test.fail_report "empty class should not reparse"
        | Error _ -> true
      else
        match P.parse (R.to_string r) with
        | Ok r' -> R.equal r r'
        | Error (pos, msg) ->
          QCheck2.Test.fail_reportf "reparse failed at %d: %s for %s" pos msg
            (R.to_string r))

(* -- smart constructors are language-preserving -------------------------- *)

let t_smart_constructors =
  prop "smart constructor laws (languages)"
    QCheck2.Gen.(pair (gen_regex ~boolean:true) gen_word)
    print_regex_word
    (fun (r, w) ->
      let m x = Ref.matches x w in
      m (R.alt r R.empty) = m r
      && m (R.inter r R.full) = m r
      && m (R.compl (R.compl r)) = m r
      && m (R.concat R.eps r) = m r
      && m (R.star (R.star r)) = m (R.star r)
      && m (R.loop r 1 (Some 1)) = m r
      && m (R.alt r r) = m r)

(* -- reversal ------------------------------------------------------------ *)

let t_rev_involution =
  prop "rev is an involution"
    (gen_regex ~boolean:true)
    print_regex
    (fun r -> R.equal (R.rev (R.rev r)) r)

let t_rev_structural =
  prop "rev distributes over the constructors"
    QCheck2.Gen.(pair (gen_regex ~boolean:true) (gen_regex ~boolean:true))
    (fun (a, b) -> Printf.sprintf "%s / %s" (R.to_string a) (R.to_string b))
    (fun (a, b) ->
      R.equal (R.rev (R.concat a b)) (R.concat (R.rev b) (R.rev a))
      && R.equal (R.rev (R.alt a b)) (R.alt (R.rev a) (R.rev b))
      && R.equal (R.rev (R.inter a b)) (R.inter (R.rev a) (R.rev b))
      && R.equal (R.rev (R.compl a)) (R.compl (R.rev a))
      && R.equal (R.rev (R.star a)) (R.star (R.rev a))
      && R.equal (R.rev (R.loop a 2 (Some 3))) (R.loop (R.rev a) 2 (Some 3)))

let t_rev_language =
  prop "rev reverses the language"
    QCheck2.Gen.(pair (gen_regex ~boolean:true) gen_word)
    print_regex_word
    (fun (r, w) -> Ref.matches (R.rev r) (List.rev w) = Ref.matches r w)

(* The byte engine's [find] locates the minimal match start with a
   backward pass of the [⊤*·rev r] DFA.  Certify the span it reports
   against the string-reversal oracle: if [s.[i..j)] matches [r] then
   the mirrored slice of the reversed string must match [rev r]. *)
let t_rev_engine_backward =
  prop "engine backward-scan span vs string-reversal oracle"
    QCheck2.Gen.(pair (gen_regex ~boolean:true) gen_word)
    print_regex_word
    (fun (r, w) ->
      let module Eng = T.Eng in
      let s = String.init (List.length w) (fun i -> Char.chr (List.nth w i)) in
      let eng = Eng.create ~mode:Sbd_engine.Byteclass.Byte r in
      let r' = R.rev r in
      let eng' = Eng.create ~mode:Sbd_engine.Byteclass.Byte r' in
      let s' = String.init (String.length s)
          (fun i -> s.[String.length s - 1 - i]) in
      let word_of str i j =
        List.init (j - i) (fun k -> Char.code str.[i + k])
      in
      let n = String.length s in
      (* a substring match exists iff one exists in the mirror *)
      (Eng.find eng s <> None) = (Eng.find eng' s' <> None)
      && (match Eng.find eng s with
         | None -> true
         | Some (i, j) ->
           (* the reported span really matches, and so does its mirror
              under the reversed pattern *)
           Ref.matches r (word_of s i j)
           && Ref.matches r' (word_of s' (n - j) (n - i)))
      && (match Eng.find eng' s' with
         | None -> true
         | Some (i, j) ->
           Ref.matches r' (word_of s' i j)
           && Ref.matches r (word_of s (n - j) (n - i))))

(* -- Idmemo's O(1) count ------------------------------------------------ *)

(* Random set / overwrite / grow / clear sequences over a table created
   small, so ids past its capacity force the growth path.  After every
   step the maintained count must equal a recount through [find] over
   every id up to the largest one set. *)
type idmemo_step = Set of int | Clear

let t_idmemo_count =
  let open QCheck2.Gen in
  let step =
    frequency
      [ (6, map (fun i -> Set i) (int_bound 12));
        (3, map (fun i -> Set i) (int_bound 200));
        (1, return Clear) ]
  in
  prop "idmemo count equals a recount" (list_size (int_bound 60) step)
    (fun steps ->
      String.concat " "
        (List.map (function Set i -> string_of_int i | Clear -> "clear") steps))
    (fun steps ->
      let m = Sbd_core.Idmemo.create 4 in
      let top = ref 0 in
      let recount () =
        let n = ref 0 in
        for i = 0 to !top do
          if Sbd_core.Idmemo.find m i <> None then incr n
        done;
        !n
      in
      List.for_all
        (fun st ->
          (match st with
          | Set i ->
            top := max !top i;
            Sbd_core.Idmemo.set m i i
          | Clear -> Sbd_core.Idmemo.clear m);
          Sbd_core.Idmemo.count m = recount ())
        steps)

let suite =
  ( "properties",
    List.map QCheck_alcotest.to_alcotest
      [ t_deriv_vs_oracle; t_brz_vs_oracle; t_thm_4_3; t_lemma_4_2
      ; t_dnf_semantics; t_nnf_semantics; t_sbfa_accepts; t_thm_7_3
      ; t_solver_sound; t_solvers_agree; t_equiv_reflexive; t_bdd_vs_ranges
      ; t_minterms_partition; t_choose_sound; t_roundtrip
      ; t_smart_constructors; t_simplify_preserves; t_simplify_equiv_to_original
      ; t_contain_equiv_vs_solver; t_contain_equiv_counterexample
      ; t_matcher_vs_oracle; t_safa_vs_oracle
      ; t_rev_involution; t_rev_structural; t_rev_language
      ; t_rev_engine_backward; t_idmemo_count ] )
