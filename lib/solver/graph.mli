(** The persistent derivative graph [G = (V, E, F, C)] of Section 5 with
    the derived Alive and Dead vertex sets.  Alive is maintained by
    back-propagation over reverse edges; Dead by a demand-driven DFS with
    sound caching.  Tests difference both sets against a from-scratch
    reachability oracle. *)

module Make (N : sig
  type t

  val id : t -> int
end) : sig
  type vertex

  type t

  val create : unit -> t
  val find_opt : t -> N.t -> vertex option
  val mem : t -> N.t -> bool

  val add_vertex : t -> N.t -> final:bool -> vertex
  (** Register a vertex (idempotent); final vertices are immediately
      alive. *)

  val close : t -> N.t -> final:bool -> targets:(N.t * bool) list -> unit
  (** The upd rule (Figure 3b): record the out-edges of a vertex (each
      target paired with its finality) and mark it closed.  No effect on
      an already-closed vertex. *)

  val is_closed : t -> N.t -> bool

  val is_alive : t -> N.t -> bool
  (** Some final vertex is reachable. *)

  val is_dead : t -> N.t -> bool
  (** Every reachable vertex is closed and not alive: the regex is
      provably empty (the bot rule's precondition).  Stable once true. *)

  val num_vertices : t -> int
  val num_edges : t -> int
  val num_closed : t -> int
  val num_dead : t -> int
  val num_alive : t -> int
end
