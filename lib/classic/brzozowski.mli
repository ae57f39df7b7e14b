(** Classical Brzozowski derivatives of EREs w.r.t. concrete characters
    (Section 8.1).  Theorem 4.3 equates these with the symbolic
    derivative applied to a character; the property suite checks it. *)

module Make (R : Sbd_regex.Regex.S) : sig
  val derive : int -> R.t -> R.t
  (** [derive a r = D^Brz_a(r)]. *)

  val matches : R.t -> int list -> bool
  val matches_string : R.t -> string -> bool

  (** SRM-style lazy DFA (Section 8.5) over the pattern's minterm
      alphabet, with Brzozowski-derivative states; full ERE including
      intersection and complement.  The independent reference for the
      byte engine and the baseline of engine-bench's scan column. *)
  module Dfa : sig
    type t

    val create : R.t -> t
    (** Compute the pattern's minterms and the character classifier;
        transitions are filled lazily. *)

    val matches : t -> int list -> bool
    (** Full match of a word of code points. *)

    val find_scan : t -> string -> (int * int) option
    (** Leftmost-earliest match span ([stop] exclusive), if any, by an
        O(n·m) per-position scan. *)

    val find_scan_lossy : t -> kmax:int -> string -> (int * int) option
    (** {!find_scan} over the lossy UTF-8 scalars of the input, trying
        ends up to [kmax] scalars past each start; byte-offset span. *)

    val count_matching_prefixes_scan : t -> string -> int
    (** Number of positions from which some prefix matches, by an
        O(n·m) per-position scan. *)
  end
end
