(** Evaluator for the SMT-LIB 2.6 QF_S / QF_SLIA subset exercised by the
    paper's benchmark suites: regex membership under Boolean structure,
    string-literal equalities, prefix/suffix/contains with literal
    arguments, and length bounds.  Word equations between variables are
    out of scope and reported as [unknown]. *)

module Make (S : Sbd_solver.Solve.S) : sig
  exception Unsupported of string

  val decode_string : string -> int list
  (** SMT-LIB string literal contents to code points ([\u{...}] and
      [\uXXXX] escapes decoded). *)

  val encode_string : int list -> string
  (** Code points back to SMT-LIB literal contents. *)

  val regex_of_sexp : Sexp.t -> S.R.t
  (** Translate an SMT-LIB regex term ([re.none], [re.all], [re.allchar],
      [str.to_re], [re.range], [re.union], [re.inter], [re.comp],
      [re.diff], [re.++], [re.*], [re.+], [re.opt], [(_ re.loop m n)],
      [(_ re.^ n)]).  Raises {!Unsupported} otherwise. *)

  type outcome =
    | Sat of (string * string) list  (** model: variable -> literal *)
    | Unsat
    | Unknown of string

  type script_result = {
    outcomes : outcome list;  (** one per [check-sat] *)
    output : string;  (** what a solver binary would print *)
    stopped : bool;
        (** the script ended on an [(error ...)]: a parse error or an
            unsupported command, whose message is the last outcome *)
  }

  val run : ?budget:int -> ?deadline:float -> string -> script_result
  (** Evaluate a whole script: [set-logic]/[set-info]/[set-option]
      (ignored), [declare-fun]/[declare-const] for [String] constants,
      [assert], [push]/[pop], [check-sat], [get-model], [exit].
      [deadline] is a per-[check-sat] wall-clock limit in seconds,
      enforced inside the decision procedure. *)
end
