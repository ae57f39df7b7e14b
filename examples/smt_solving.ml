(* Driving the solver through its SMT-LIB front-end, the way a program
   verifier or symbolic executor would.  The script below is standard
   SMT-LIB 2.6 (QF_S): regex membership constraints under Boolean
   structure, with length bounds.

   Run with: dune exec examples/smt_solving.exe *)

module R = Sbd_regex.Regex.Make (Sbd_alphabet.Bdd)
module T = Sbd_service.Default.Make (R)
module E = T.E

let script =
  {|
(set-logic QF_S)
(declare-fun uri () String)

; the URI must look like http(s)://host/path
(assert (str.in_re uri
  (re.++ (re.union (str.to_re "http") (str.to_re "https"))
         (str.to_re "://")
         (re.+ (re.union (re.range "a" "z") (re.range "0" "9")))
         (str.to_re "/")
         (re.* (re.union (re.range "a" "z") (str.to_re "/"))))))

; security rule: no "//" after the scheme part, i.e. the tail may not
; contain an empty path segment
(assert (not (str.in_re uri
  (re.++ (str.to_re "http") (re.opt (str.to_re "s")) (str.to_re "://")
         re.all (str.to_re "//") re.all))))

; keep it short
(assert (<= (str.len uri) 24))
(assert (>= (str.len uri) 12))

(check-sat)
(get-model)

; push a contradictory requirement: the same URI must be digits only
(push)
(assert (str.in_re uri (re.+ (re.range "0" "9"))))
(check-sat)
(pop)

; back to satisfiable after pop
(check-sat)
|}

let () =
  let result = E.run script in
  print_string result.E.output;
  Printf.printf "; %d check-sat command(s) evaluated\n"
    (List.length result.E.outcomes)
