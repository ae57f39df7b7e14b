(* Password-policy constraints (the running example of Section 2, scaled
   to a realistic rule set): passwords must satisfy many simultaneous
   requirements -- length windows, required character classes, forbidden
   substrings.  Each rule is a regex; the conjunction is an extended
   regex whose satisfiability tells us whether the policy is coherent,
   and whose witness is a generated compliant password.

   Run with: dune exec examples/password_rules.exe *)

module A = Sbd_alphabet.Bdd
module R = Sbd_regex.Regex.Make (A)
module P = Sbd_regex.Parser.Make (R)
module T = Sbd_service.Default.Make (R)
module S = T.S

let session = S.create_session ()

let rules =
  [ ("length 8..16", ".{8,16}")
  ; ("has a digit", ".*\\d.*")
  ; ("has a lowercase letter", ".*[a-z].*")
  ; ("has an uppercase letter", ".*[A-Z].*")
  ; ("has a special character", ".*[!#$%&*+,.:;<=>?@^_-].*")
  ; ("no whitespace", "~(.*\\s.*)")
  ; ("no ascending digit run", "~(.*(012|123|234|345|456|567|678|789).*)")
  ; ("no 'password' substring", "~(.*password.*)")
  ]

let conjoin rs = R.inter_list (List.map (fun (_, r) -> P.parse_exn r) rs)

let () =
  print_endline "password policy rules:";
  List.iter (fun (name, r) -> Printf.printf "  %-28s %s\n" name r) rules;

  (* Is the whole policy satisfiable?  Generate a compliant password. *)
  let policy = conjoin rules in
  (match S.solve session policy with
  | S.Sat w ->
    Printf.printf "\npolicy is coherent; generated password: %S\n"
      (S.string_of_witness w)
  | S.Unsat -> print_endline "\npolicy is incoherent!"
  | S.Unknown why -> Printf.printf "\nsolver gave up: %s\n" why);

  (* Rule redundancy: does dropping a rule change the language?  A rule
     is redundant if the other rules already imply it. *)
  print_endline "\nredundancy analysis:";
  List.iteri
    (fun i (name, _) ->
      let others = conjoin (List.filteri (fun j _ -> j <> i) rules) in
      let rule = P.parse_exn (snd (List.nth rules i)) in
      match S.subset session others rule with
      | Some true -> Printf.printf "  %-28s REDUNDANT\n" name
      | Some false -> Printf.printf "  %-28s necessary\n" name
      | None -> Printf.printf "  %-28s (unknown)\n" name)
    rules;

  (* An inconsistent policy: require all digits and forbid every digit. *)
  let broken =
    R.inter_list
      [ P.parse_exn ".{6,}"
      ; P.parse_exn "\\d*"
      ; P.parse_exn "~(.*[0-4].*)"
      ; P.parse_exn "~(.*[5-9].*)" ]
  in
  (match S.solve session broken with
  | S.Unsat -> print_endline "\nbroken policy correctly reported unsat"
  | S.Sat w ->
    Printf.printf "\nunexpected witness for broken policy: %S\n"
      (S.string_of_witness w)
  | S.Unknown why -> Printf.printf "\nsolver gave up: %s\n" why);

  (* Character theory at work: the same policy over the Unicode BMP.  A
     password containing a CJK character still satisfies "no whitespace"
     but not "has a lowercase [a-z] letter". *)
  let cjk_password = [ 0x4E2D; 0x6587; Char.code 'a'; Char.code 'A'
                     ; Char.code '7'; Char.code '!'; Char.code 'x'; Char.code 'y' ] in
  Printf.printf "\nCJK-containing password accepted: %b\n"
    (S.D.matches policy cjk_password)
