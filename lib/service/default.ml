(** The solver tower, applied once.  [Make] applies [Deriv.Make] and
    [Absdom.Make] exactly once; every layer above is a functor over that
    [Ab] and its [D], so a derivative one layer computed is a memo hit
    for the others, and {!Make.clear} reaches every memo.

    This module is [Make] over the process-global BDD algebra, shared by
    the binaries and the harness.  Each generation of a service worker
    applies [Make] over its own generative [Bdd.Make ()] instead
    ({!Worker.generation}). *)

module Make (R : Sbd_regex.Regex.S) = struct
  module R = R
  module A = R.A
  module P = Sbd_regex.Parser.Make (R)
  module D = Sbd_core.Deriv.Make (R)
  module Ab = Sbd_absdom.Absdom.Make (D)
  module S = Sbd_solver.Solve.Make (Ab)
  module E = Sbd_smtlib.Eval.Make (S)
  module C = Sbd_contain.Contain.Make (Ab)
  module An = Sbd_analysis.Analyze.Make (C)
  module Eng = Sbd_engine.Search.Make (Ab)
  module Simp = Sbd_regex.Simplify.Make (R)
  module Ref = Sbd_classic.Refmatch.Make (R)

  (* The located layer shares [R]'s hash-cons table: plain results
     route back to the classical machinery with physical equality. *)
  module LR = Sbd_locregex.Locregex.Make (R)
  module LP = Sbd_locregex.Locparser.Make (LR)
  module LRef = Sbd_locregex.Locref.Make (LR)
  module LA = Sbd_analysis.Locanalyze.Make (Ab) (LR)
  module LM = Sbd_engine.Locmatch.Make (Ab) (LR)

  (** The tower's containment session (its pair memos persist). *)
  let csession = C.create_session ()

  (** Entries across every memo of the tower: derivatives and Tr
      normalizations, abstract summaries and verdicts, {!csession}'s
      pairs, the analyzer's scans.  O(1): every memo keeps its count. *)
  let memo_entries () =
    D.memo_entries () + Ab.memo_entries () + C.memo_entries csession
    + An.memo_entries ()

  (** Terms in the tower's intern tables: [R]'s hash-cons, the [Tr]
      intern table and the located layer's.  O(1).  {!clear} keeps
      them (held terms must keep their ids); only dropping the whole
      tower frees them, with the BDD node tables ({!Worker}). *)
  let interned () = R.intern_size () + D.Tr.intern_size () + LR.intern_size ()

  (** Drop every memo {!memo_entries} counts; safe between queries. *)
  let clear () =
    D.clear ();
    Ab.clear ();
    C.clear csession;
    An.clear ()
end

include Make (Sbd_regex.Regex.Make (Sbd_alphabet.Bdd))
