(* Quickstart: the library in five minutes.
   Run with: dune exec examples/quickstart.exe

   The stack is functorized over an effective Boolean algebra of
   character predicates; instantiate it once with the BDD algebra over
   the Unicode BMP and you get regexes, symbolic derivatives, and the
   decision procedure, all built over one derivative tower. *)

module A = Sbd_alphabet.Bdd
module R = Sbd_regex.Regex.Make (A)
module T = Sbd_service.Default.Make (R)
module P = T.P
module D = T.D
module S = T.S

let () =
  (* 1. Parse extended regexes: & is intersection, ~ is complement. *)
  let r = P.parse_exn ".*\\d.*&~(.*01.*)" in
  Printf.printf "regex:      %s\n" (R.to_string r);

  (* 2. Take symbolic derivatives: the derivative of an extended regex is
     a transition regex -- a regex with symbolic conditionals -- computed
     before the character is known (Section 4 of the paper). *)
  let tr = D.delta r in
  Printf.printf "derivative: %s\n" (D.Tr.to_string tr);

  (* 3. Apply it to concrete characters. *)
  let at c = R.to_string (D.derive (Char.code c) r) in
  Printf.printf "d/d'0':     %s\n" (at '0');
  Printf.printf "d/d'5':     %s\n" (at '5');
  Printf.printf "d/d'x':     %s\n" (at 'x');

  (* 4. Match concrete strings by repeated derivation. *)
  List.iter
    (fun s -> Printf.printf "matches %-6S %b\n" s (D.matches_string r s))
    [ "0"; "01"; "10"; "abc" ];

  (* 5. Decide satisfiability and get a witness (the decision procedure
     of Section 5, with dead-state detection). *)
  let session = S.create_session () in
  (match S.solve session r with
  | S.Sat w -> Printf.printf "sat, witness: %S\n" (S.string_of_witness w)
  | S.Unsat -> print_endline "unsat"
  | S.Unknown why -> Printf.printf "unknown: %s\n" why);

  (* 6. Language containment and equivalence reduce to emptiness. *)
  let r1 = P.parse_exn "a+" and r2 = P.parse_exn "a*" in
  Printf.printf "a+ subset of a*: %b\n"
    (S.subset session r1 r2 = Some true);
  Printf.printf "~(a|b) equiv ~a&~b: %b\n"
    (S.equiv session (P.parse_exn "~(a|b)") (P.parse_exn "~a&~b") = Some true)
