(** Evaluator for the SMT-LIB 2.6 QF_S / QF_SLIA subset exercised by the
    paper's benchmark suites: regex membership constraints
    ([str.in_re]) under Boolean structure, string-literal equalities,
    prefix/suffix/contains with literal arguments, and length bounds.

    The full term language for regexes is supported ([re.none], [re.all],
    [re.allchar], [str.to_re], [re.range], [re.union], [re.inter],
    [re.comp], [re.diff], [re.++], [re.*], [re.+], [re.opt],
    [(_ re.loop m n)], [(_ re.^ n)]).

    Constraints over {e distinct} string variables are independent, so a
    script is solved by DNF-splitting the assertion conjunction and
    solving each variable's constraints with the derivative-based
    decision procedure.  Word equations between variables are out of
    scope (reported as [unknown]), matching the paper's focus on regex
    constraints. *)

module Make (S : Sbd_solver.Solve.S) = struct
  module R = S.R
  module A = R.A

  exception Unsupported of string

  let unsupported fmt = Printf.ksprintf (fun s -> raise (Unsupported s)) fmt

  (* -- SMT-LIB string literals -> code points ------------------------- *)

  let decode_string (s : string) : int list =
    let n = String.length s in
    let rec go i acc =
      if i >= n then List.rev acc
      else if s.[i] = '\\' && i + 1 < n && s.[i + 1] = 'u' then begin
        if i + 2 < n && s.[i + 2] = '{' then begin
          let close = String.index_from s (i + 3) '}' in
          let hex = String.sub s (i + 3) (close - i - 3) in
          go (close + 1) (int_of_string ("0x" ^ hex) :: acc)
        end
        else begin
          let hex = String.sub s (i + 2) 4 in
          go (i + 6) (int_of_string ("0x" ^ hex) :: acc)
        end
      end
      else go (i + 1) (Char.code s.[i] :: acc)
    in
    go 0 []

  let encode_string (w : int list) : string =
    let buf = Buffer.create 16 in
    List.iter
      (fun c ->
        if c = Char.code '"' then Buffer.add_string buf "\"\""
        else if c >= 0x20 && c < 0x7F then Buffer.add_char buf (Char.chr c)
        else Buffer.add_string buf (Printf.sprintf "\\u{%X}" c))
      w;
    Buffer.contents buf

  let regex_of_word (w : int list) : R.t =
    R.concat_list (List.map R.chr w)

  (* -- regex terms ------------------------------------------------------ *)

  let single_char ctx s =
    match decode_string s with
    | [ c ] -> c
    | _ -> unsupported "%s expects single-character strings" ctx

  (* S-expression dispatches below keep a final catch-all clause that
     raises [Unsupported]: that is the whole point -- any shape we do not
     recognize is reported, not silently misread. *)
  let rec regex_of_sexp (e : Sexp.t) : R.t =
    match[@warning "-4"] e with
    | Sexp.Atom "re.none" -> R.empty
    | Sexp.Atom "re.all" -> R.full
    | Sexp.Atom "re.allchar" -> R.any
    | Sexp.List [ Sexp.Atom "str.to_re"; Sexp.Str s ] -> regex_of_word (decode_string s)
    | Sexp.List [ Sexp.Atom "re.range"; Sexp.Str lo; Sexp.Str hi ] ->
      R.pred (A.of_ranges [ (single_char "re.range" lo, single_char "re.range" hi) ])
    | Sexp.List (Sexp.Atom "re.union" :: args) ->
      R.alt_list (List.map regex_of_sexp args)
    | Sexp.List (Sexp.Atom "re.inter" :: args) ->
      R.inter_list (List.map regex_of_sexp args)
    | Sexp.List [ Sexp.Atom "re.comp"; r ] -> R.compl (regex_of_sexp r)
    | Sexp.List [ Sexp.Atom "re.diff"; a; b ] ->
      R.diff (regex_of_sexp a) (regex_of_sexp b)
    | Sexp.List (Sexp.Atom "re.++" :: args) ->
      R.concat_list (List.map regex_of_sexp args)
    | Sexp.List [ Sexp.Atom "re.*"; r ] -> R.star (regex_of_sexp r)
    | Sexp.List [ Sexp.Atom "re.+"; r ] -> R.plus (regex_of_sexp r)
    | Sexp.List [ Sexp.Atom "re.opt"; r ] -> R.opt (regex_of_sexp r)
    | Sexp.List
        [ Sexp.List [ Sexp.Atom "_"; Sexp.Atom "re.loop"; Sexp.Atom m; Sexp.Atom n ]; r ]
      ->
      R.loop (regex_of_sexp r) (int_of_string m) (Some (int_of_string n))
    | Sexp.List [ Sexp.List [ Sexp.Atom "_"; Sexp.Atom "re.^"; Sexp.Atom n ]; r ] ->
      let n = int_of_string n in
      R.loop (regex_of_sexp r) n (Some n)
    | e -> unsupported "regex term %s" (Format.asprintf "%a" Sexp.pp e)

  (* -- formulas ---------------------------------------------------------- *)

  (* A formula over possibly several string variables; each atom concerns
     exactly one variable. *)
  type form =
    | Atom of string * S.formula
    | FTrue
    | FFalse
    | FAnd of form list
    | FOr of form list
    | FNot of form

  type env = { mutable vars : string list }

  let find_var env name =
    if List.mem name env.vars then name
    else unsupported "unknown constant %s" name

  let rec form_of_sexp env (e : Sexp.t) : form =
    match[@warning "-4"] e with
    | Sexp.Atom "true" -> FTrue
    | Sexp.Atom "false" -> FFalse
    | Sexp.List (Sexp.Atom "and" :: args) -> FAnd (List.map (form_of_sexp env) args)
    | Sexp.List (Sexp.Atom "or" :: args) -> FOr (List.map (form_of_sexp env) args)
    | Sexp.List [ Sexp.Atom "not"; t ] -> FNot (form_of_sexp env t)
    | Sexp.List [ Sexp.Atom "=>"; a; b ] ->
      FOr [ FNot (form_of_sexp env a); form_of_sexp env b ]
    | Sexp.List [ Sexp.Atom "xor"; a; b ] ->
      let fa = form_of_sexp env a and fb = form_of_sexp env b in
      FOr [ FAnd [ fa; FNot fb ]; FAnd [ FNot fa; fb ] ]
    | Sexp.List [ Sexp.Atom "ite"; c; a; b ] ->
      let fc = form_of_sexp env c in
      FOr [ FAnd [ fc; form_of_sexp env a ]; FAnd [ FNot fc; form_of_sexp env b ] ]
    | Sexp.List [ Sexp.Atom "str.in_re"; Sexp.Atom x; rterm ] ->
      Atom (find_var env x, S.In (regex_of_sexp rterm))
    | Sexp.List [ Sexp.Atom "str.in_re"; Sexp.Str lit; rterm ] ->
      (* ground membership: evaluate statically via the regex semantics *)
      let r = regex_of_sexp rterm in
      if S.D.matches r (decode_string lit) then FTrue else FFalse
    | Sexp.List [ Sexp.Atom "="; a; b ] -> equality env a b
    | Sexp.List [ Sexp.Atom ("<=" | "<" | ">=" | ">"); _; _ ] -> length_cmp env e
    | Sexp.List [ Sexp.Atom "str.prefixof"; Sexp.Str p; Sexp.Atom x ] ->
      Atom (find_var env x, S.In (R.concat (regex_of_word (decode_string p)) R.full))
    | Sexp.List [ Sexp.Atom "str.suffixof"; Sexp.Str p; Sexp.Atom x ] ->
      Atom (find_var env x, S.In (R.concat R.full (regex_of_word (decode_string p))))
    | Sexp.List [ Sexp.Atom "str.contains"; Sexp.Atom x; Sexp.Str p ] ->
      Atom
        ( find_var env x,
          S.In (R.concat R.full (R.concat (regex_of_word (decode_string p)) R.full)) )
    | e -> unsupported "formula %s" (Format.asprintf "%a" Sexp.pp e)

  and equality env a b =
    match[@warning "-4"] (a, b) with
    | Sexp.Atom x, Sexp.Str lit | Sexp.Str lit, Sexp.Atom x ->
      Atom (find_var env x, S.In (regex_of_word (decode_string lit)))
    | Sexp.Str l1, Sexp.Str l2 -> if decode_string l1 = decode_string l2 then FTrue else FFalse
    | Sexp.List [ Sexp.Atom "str.len"; Sexp.Atom x ], Sexp.Atom n
    | Sexp.Atom n, Sexp.List [ Sexp.Atom "str.len"; Sexp.Atom x ] ->
      Atom (find_var env x, S.Len_eq (int_of_string n))
    | _ ->
      unsupported "equality %s = %s"
        (Format.asprintf "%a" Sexp.pp a)
        (Format.asprintf "%a" Sexp.pp b)

  and length_cmp env e =
    match[@warning "-4"] e with
    | Sexp.List [ Sexp.Atom op; Sexp.List [ Sexp.Atom "str.len"; Sexp.Atom x ]; Sexp.Atom n ]
      ->
      let x = find_var env x and n = int_of_string n in
      (match op with
      | "<=" -> Atom (x, S.Len_le n)
      | "<" -> Atom (x, S.Len_le (n - 1))
      | ">=" -> Atom (x, S.Len_ge n)
      | ">" -> Atom (x, S.Len_ge (n + 1))
      | _ -> assert false)
    | Sexp.List [ Sexp.Atom op; Sexp.Atom n; Sexp.List [ Sexp.Atom "str.len"; Sexp.Atom x ] ]
      ->
      let x = find_var env x and n = int_of_string n in
      (match op with
      | "<=" -> Atom (x, S.Len_ge n)
      | "<" -> Atom (x, S.Len_ge (n + 1))
      | ">=" -> Atom (x, S.Len_le n)
      | ">" -> Atom (x, S.Len_le (n - 1))
      | _ -> assert false)
    | _ -> unsupported "length comparison %s" (Format.asprintf "%a" Sexp.pp e)

  (* -- solving ----------------------------------------------------------- *)

  (* NNF and DNF over [form]; atoms carry their own polarity by wrapping
     the underlying solver formula. *)
  let rec fnnf = function
    | FNot f -> fneg f
    | FAnd fs -> FAnd (List.map fnnf fs)
    | FOr fs -> FOr (List.map fnnf fs)
    | (Atom _ | FTrue | FFalse) as atom -> atom

  and fneg = function
    | FNot f -> fnnf f
    | FAnd fs -> FOr (List.map fneg fs)
    | FOr fs -> FAnd (List.map fneg fs)
    | FTrue -> FFalse
    | FFalse -> FTrue
    | Atom (x, f) -> Atom (x, S.FNot f)

  let rec clauses = function
    | FOr fs -> List.concat_map clauses fs
    | FAnd fs ->
      List.fold_left
        (fun acc f ->
          let cs = clauses f in
          List.concat_map (fun clause -> List.map (fun c -> clause @ c) cs) acc)
        [ [] ] fs
    | FFalse -> []
    | FTrue -> [ [] ]
    | Atom (x, f) -> [ [ (x, f) ] ]
    | FNot _ -> assert false

  type outcome = Sat of (string * string) list | Unsat | Unknown of string

  let check ?budget ?deadline (session : S.session) (env : env)
      (asserts : form list) : outcome =
    let f = fnnf (FAnd asserts) in
    let cls = clauses f in
    let rec try_clause unknown = function
      | [] -> if unknown then Unknown "budget exhausted" else Unsat
      | clause :: rest ->
        (* group per variable *)
        let by_var = Hashtbl.create 8 in
        List.iter
          (fun (x, f) ->
            let cur = try Hashtbl.find by_var x with Not_found -> [] in
            Hashtbl.replace by_var x (f :: cur))
          clause;
        let vars = env.vars in
        let rec solve_vars acc = function
          | [] -> Some acc
          | x :: rest_vars -> (
            let fs = try Hashtbl.find by_var x with Not_found -> [] in
            match S.solve_formula ?budget ?deadline session (S.FAnd fs) with
            | S.Sat w -> solve_vars ((x, encode_string w) :: acc) rest_vars
            | S.Unsat -> None
            | S.Unknown _ -> raise Exit)
        in
        (match solve_vars [] vars with
        | Some model -> Sat (List.rev model)
        | None -> try_clause unknown rest
        | exception Exit -> try_clause true rest)
    in
    try_clause false cls

  (* -- script driver ------------------------------------------------------ *)

  type script_result = {
    outcomes : outcome list;  (** one per [check-sat] *)
    output : string;  (** what a solver binary would print *)
    stopped : bool;  (** the script ended on an [(error ...)] *)
  }

  let run ?budget ?deadline (source : string) : script_result =
    match Sexp.parse_all source with
    | Error (pos, msg) ->
      { outcomes = [ Unknown (Printf.sprintf "parse error at %d: %s" pos msg) ]
      ; output = Printf.sprintf "(error \"parse error at %d: %s\")\n" pos msg
      ; stopped = true }
    | Ok cmds ->
      let env = { vars = [] } in
      let session = S.create_session () in
      let asserts = ref [] in
      let stack = ref [] in
      let outcomes = ref [] in
      let buf = Buffer.create 64 in
      let last_model = ref None in
      let do_cmd (cmd : Sexp.t) =
        match[@warning "-4"] cmd with
        | Sexp.List (Sexp.Atom ("set-logic" | "set-info" | "set-option") :: _) -> ()
        | Sexp.List [ Sexp.Atom "declare-fun"; Sexp.Atom x; Sexp.List []; Sexp.Atom "String" ]
        | Sexp.List [ Sexp.Atom "declare-const"; Sexp.Atom x; Sexp.Atom "String" ] ->
          env.vars <- env.vars @ [ x ]
        | Sexp.List (Sexp.Atom "declare-fun" :: _)
        | Sexp.List (Sexp.Atom "declare-const" :: _) ->
          unsupported "only String constants are supported"
        | Sexp.List [ Sexp.Atom "assert"; t ] ->
          asserts := form_of_sexp env t :: !asserts
        | Sexp.List [ Sexp.Atom "push" ] | Sexp.List [ Sexp.Atom "push"; Sexp.Atom "1" ]
          ->
          stack := !asserts :: !stack
        | Sexp.List [ Sexp.Atom "pop" ] | Sexp.List [ Sexp.Atom "pop"; Sexp.Atom "1" ] ->
          (match !stack with
          | top :: rest ->
            asserts := top;
            stack := rest
          | [] -> unsupported "pop on empty stack")
        | Sexp.List [ Sexp.Atom "check-sat" ] ->
          let outcome =
            try check ?budget ?deadline session env !asserts
            with Unsupported why -> Unknown why
          in
          outcomes := outcome :: !outcomes;
          (match outcome with
          | Sat model ->
            last_model := Some model;
            Buffer.add_string buf "sat\n"
          | Unsat -> Buffer.add_string buf "unsat\n"
          | Unknown _ -> Buffer.add_string buf "unknown\n")
        | Sexp.List [ Sexp.Atom "get-model" ] ->
          (match !last_model with
          | Some model ->
            Buffer.add_string buf "(\n";
            List.iter
              (fun (x, v) ->
                Buffer.add_string buf
                  (Printf.sprintf "  (define-fun %s () String \"%s\")\n" x v))
              model;
            Buffer.add_string buf ")\n"
          | None -> Buffer.add_string buf "(error \"no model available\")\n")
        | Sexp.List [ Sexp.Atom "exit" ] -> ()
        | cmd -> unsupported "command %s" (Format.asprintf "%a" Sexp.pp cmd)
      in
      let stopped =
        try
          List.iter do_cmd cmds;
          false
        with Unsupported why ->
          outcomes := Unknown why :: !outcomes;
          Buffer.add_string buf (Printf.sprintf "(error \"%s\")\n" why);
          true
      in
      { outcomes = List.rev !outcomes; output = Buffer.contents buf; stopped }
end
