(* The cloud-policy audit example of Figure 1: a resource policy matches
   strings that look like dates ("2020-Nov-25"), restricted to the years
   2019 and 2020.  Policy languages like Azure Resource Manager express
   this as a Boolean combination of simple pattern constraints; the
   solver's job is to sanity-check the combination.

   Run with: dune exec examples/date_policy.exe *)

module A = Sbd_alphabet.Bdd
module R = Sbd_regex.Regex.Make (A)
module P = Sbd_regex.Parser.Make (R)
module T = Sbd_service.Default.Make (R)
module S = T.S

let session = S.create_session ()

let check name formula =
  match S.solve_formula session formula with
  | S.Sat w ->
    Printf.printf "%-34s sat    (e.g. %S)\n" name (S.string_of_witness w)
  | S.Unsat -> Printf.printf "%-34s unsat\n" name
  | S.Unknown why -> Printf.printf "%-34s unknown (%s)\n" name why

let () =
  let date = P.parse_exn "\\d{4}-[a-zA-Z]{3}-\\d{2}" in

  (* The policy of Figure 1: match "####-???-##" AND (like "2019*" OR like
     "2020*").  A sanity check: is it satisfiable at all? *)
  let policy =
    S.FAnd
      [ S.In date
      ; S.FOr [ S.In (P.parse_exn "2019.*"); S.In (P.parse_exn "2020.*") ] ]
  in
  check "policy (Figure 1)" policy;

  (* The buggy variant from Section 1: writing .*2019 instead of 2019.*
     conflicts with the leading \d{4}- and makes the audit rule dead --
     it would never fire. *)
  let buggy =
    S.FAnd
      [ S.In date
      ; S.FOr [ S.In (P.parse_exn ".*2019"); S.In (P.parse_exn ".*2020") ] ]
  in
  check "buggy policy (misplaced .*)" buggy;

  (* Domain rule: if the month is Feb, the day must not be 30 or 31.
     Implication is encoded with complement, and the rule is consistent
     with the date shape: *)
  let feb_rule =
    P.parse_exn "~(.*-Feb-.*)|.*-(0[1-9]|[12]\\d)"
  in
  check "date & Feb-day rule" (S.FAnd [ S.In date; S.In feb_rule ]);

  (* ...but requiring a Feb 31 under that rule is inconsistent: *)
  check "Feb 31 under the rule"
    (S.FAnd
       [ S.In date
       ; S.In feb_rule
       ; S.In (P.parse_exn ".*-Feb-.*")
       ; S.In (P.parse_exn ".*-31") ]);

  (* Policy refinement: every date accepted by the 2019-only policy is
     accepted by the 2019-or-2020 policy (containment check). *)
  let p2019 = R.inter date (P.parse_exn "2019.*") in
  let p20xx = R.inter date (P.parse_exn "(2019|2020).*") in
  Printf.printf "%-34s %b\n" "2019-policy refines 20xx-policy"
    (S.subset session p2019 p20xx = Some true)
