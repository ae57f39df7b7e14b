(* The determinization-blowup story (Sections 1 and 7): regexes like
   (.*a.{k})&(.*b.{k}) and ~(.*a.{k}) have tiny nondeterministic state
   spaces but exponential deterministic ones.  Eager automata pipelines
   must build those states; lazy symbolic derivatives only explore what
   the search actually needs.

   Run with: dune exec examples/blowup.exe *)

module A = Sbd_alphabet.Bdd
module R = Sbd_regex.Regex.Make (A)
module P = Sbd_regex.Parser.Make (R)
module T = Sbd_service.Default.Make (R)
module S = T.S
module E = Sbd_sfa.Eager.Make (R)

let row k =
  let pattern = Printf.sprintf "(.*a.{%d})&(.*b.{%d})" k k in
  let r = P.parse_exn pattern in
  (* lazy: solve and count explored derivative-graph vertices *)
  let session = S.create_session () in
  let verdict =
    match S.solve session r with
    | S.Sat _ -> "sat"
    | S.Unsat -> "unsat"
    | S.Unknown _ -> "unknown"
  in
  let lazy_states = S.G.num_vertices session.S.graph in
  (* eager: count automaton states (with a budget guard) *)
  let eager_states =
    match E.state_count ~budget:1_000_000 r with
    | Some n -> string_of_int n
    | None -> ">10^6"
  in
  Printf.printf "  k=%-3d %-7s lazy=%-6d eager=%s\n" k verdict lazy_states
    eager_states

let () =
  print_endline "(.*a.{k})&(.*b.{k}): unsat, lazy exploration is linear in k";
  List.iter row [ 4; 8; 12; 16; 20 ];

  print_endline "\n~(.*a.{k}): satisfiable without exploring any state";
  List.iter
    (fun k ->
      let r = P.parse_exn (Printf.sprintf "~(.*a.{%d})" k) in
      let session = S.create_session () in
      let verdict =
        match S.solve session r with
        | S.Sat w -> Printf.sprintf "sat (witness %S)" (S.string_of_witness w)
        | S.Unsat -> "unsat"
        | S.Unknown _ -> "unknown"
      in
      let dfa =
        match E.state_count ~budget:200_000 r with
        | Some n -> string_of_int n
        | None -> ">200000"
      in
      Printf.printf "  k=%-4d lazy: %-22s eager DFA states: %s\n" k verdict dfa)
    [ 10; 14; 18; 100 ];

  (* The deep-witness case: a string longer than k avoiding 'a' at the
     critical position.  DFS search digs out a witness without paying
     for the exponential breadth. *)
  print_endline "\n~(.*a.{k}) & .{k+1,}: a witness deep in a blowup-prone space";
  List.iter
    (fun k ->
      let r = P.parse_exn (Printf.sprintf "~(.*a.{%d})&.{%d,}" k (k + 1)) in
      let session = S.create_session () in
      match S.solve session r with
      | S.Sat w ->
        Printf.printf "  k=%-4d sat, |witness| = %d\n" k (List.length w)
      | S.Unsat -> Printf.printf "  k=%-4d unsat?!\n" k
      | S.Unknown why -> Printf.printf "  k=%-4d unknown (%s)\n" k why)
    [ 10; 20; 40 ]
