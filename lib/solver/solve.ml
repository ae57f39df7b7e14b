(** The decision procedure for extended regular expression constraints
    (Section 5 of the paper).

    The solver unfolds a membership constraint [in(s, r)] lazily with the
    membership propagation rules of Figure 3: [der] splits on
    emptiness of [s] and takes the symbolic derivative in DNF; [ite] and
    [or] split the transition regex into guarded cases; [ere] recurses on
    the string suffix; [bot] cuts off regexes that the derivative graph
    has proven dead.  Operationally this is a search over
    the derivative graph that stops at the first nullable (final) regex
    (depth-first by default, mirroring dZ3's CDCL-style exploration;
    breadth-first on request, yielding a shortest witness); when the
    frontier is exhausted with every reachable vertex closed, the start
    regex is dead and the constraint is unsatisfiable (Theorem 5.2).

    Side constraints from the surrounding SMT context are supported in the
    form the paper's running example uses (length bounds on [s], character
    predicates on individual positions [s_i]): they restrict the edge
    guards during search but never pollute the persistent graph, which
    stores scope-independent facts only. *)

(** The solver over one abstract domain [Ab] and its derivative tower
    [Ab.D]: the graph search and the pre-solver share their memos with
    every other layer built on the same [Ab]. *)
module type S = sig
  module Ab : Sbd_absdom.Absdom.S
  module D = Ab.D
  module R = D.R
  module A = R.A
  module Tr = D.Tr

  module G : module type of Graph.Make (struct
    type t = R.t

    let id (r : R.t) = r.R.id
  end)

  type result =
    | Sat of int list  (** witness word, as code points *)
    | Unsat
    | Unknown of string  (** work budget exhausted *)

  val string_of_witness : int list -> string
  (** Printable witness with exactly one layer of escaping: [\u{HHHH}]
      for non-printable code points, backslash-escapes for double-quote
      and backslash.  Print through [%s] inside plain quotes, not
      [%S]. *)

  val pp_result : Format.formatter -> result -> unit

  (** Side constraints from the surrounding solver context (Section 2's
      example: a blocked first character). *)
  type side = {
    min_len : int;
    max_len : int option;
    char_at : (int * A.pred) list;  (** predicate on position [i] *)
  }

  val no_side : side

  (** A solver session: the persistent derivative graph shared across
      queries, plus work counters. *)
  type session = {
    graph : G.t;
    mutable expansions : int;
    mutable dead_hits : int;
    mutable queries : int;
    mutable max_depth : int;
    mutable peak_frontier : int;
    mutable deadline_hits : int;
    mutable presolve_hits : int;
    mutable wall_time : float;
    mutable last_wall_time : float;
  }

  val create_session : unit -> session

  val session_stats : session -> (string * float) list
  (** Machine-readable session counters (name, value): queries,
      expansions, dead hits, max search depth, peak frontier size,
      deadline aborts, graph size, wall time. *)

  type strategy = Dfs | Bfs

  val solve :
    ?budget:int ->
    ?deadline:float ->
    ?dead_state_elim:bool ->
    ?side:side ->
    ?strategy:strategy ->
    ?presolve:bool ->
    session ->
    R.t ->
    result
  (** Decide satisfiability of [in(s, r)] within [budget] der-rule
      applications (default 200k).  [Dfs] (default) mirrors dZ3's
      CDCL-style search and plunges into one branch, backtracking on
      dead states; [Bfs] returns a shortest witness.  Unsatisfiable
      instances explore the same state space either way.
      [dead_state_elim:false] disables the bot rule (ablation A2).
      [deadline] is a wall-clock limit in seconds, enforced between
      frontier pops and inside the DNF expansion: on expiry the query
      returns [Unknown] (reason [deadline]) shortly after the limit,
      even when a single exponential expansion is in flight.

      [presolve] (default [true]) runs the abstract-domain pre-solver
      ({!Sbd_absdom.Absdom}) before the derivative search: abstractly
      proven-empty inputs return [Unsat] without expanding a single
      state, and matcher-validated abstract witnesses return [Sat]
      under [Dfs] whenever the side constraint admits them ([Bfs]
      keeps its shortest-witness contract and never takes the sat
      fast path).  Set [presolve:false] for A/B measurements. *)

  val is_empty_lang :
    ?budget:int -> ?deadline:float -> session -> R.t -> bool option

  val subset :
    ?budget:int -> ?deadline:float -> session -> R.t -> R.t -> bool option

  val equiv :
    ?budget:int -> ?deadline:float -> session -> R.t -> R.t -> bool option

  val enumerate :
    ?budget:int ->
    ?deadline:float ->
    ?strategy:strategy ->
    session ->
    R.t ->
    int ->
    int list list
  (** Up to [n] distinct members of [L(r)], via blocking constraints. *)

  (** Formulas about one string variable: memberships under Boolean
      connectives, length bounds, positional character predicates. *)
  type formula =
    | In of R.t
    | Len_eq of int
    | Len_ge of int
    | Len_le of int
    | Char_at of int * A.pred
    | FAnd of formula list
    | FOr of formula list
    | FNot of formula
    | FTrue
    | FFalse

  val solve_formula :
    ?budget:int ->
    ?deadline:float ->
    ?dead_state_elim:bool ->
    session ->
    formula ->
    result
  (** Boolean structure is compiled away: per DNF clause, memberships
      fold into one ERE (negation becoming complement, conjunction
      intersection) and the rest become side constraints. *)
end

module Make (Ab : Sbd_absdom.Absdom.S) : S with module Ab = Ab = struct
  module Ab = Ab
  module D = Ab.D
  module R = D.R
  module A = R.A
  module Tr = D.Tr
  module Obs = Sbd_obs.Obs

  module G = Graph.Make (struct
    type t = R.t

    let id (r : R.t) = r.R.id
  end)

  (* Process-global work counters, mirroring the per-session fields (the
     [--stats] surface reports these via [Obs.snapshot]). *)
  let c_expansions = Obs.Counter.make "solve.expansions"
  let c_dead_hits = Obs.Counter.make "solve.dead_hits"
  let c_queries = Obs.Counter.make "solve.queries"
  let c_deadline_hits = Obs.Counter.make "solve.deadline_hits"
  let c_presolve_hits = Obs.Counter.make "solve.presolve_hits"
  let sp_solve = Obs.Span.make "solve"

  type result =
    | Sat of int list  (** a witness word, as code points *)
    | Unsat
    | Unknown of string  (** budget exhausted; the reason is reported *)

  let string_of_witness w =
    let buf = Buffer.create (List.length w) in
    List.iter
      (fun c ->
        if c = Char.code '"' then Buffer.add_string buf "\\\""
        else if c = Char.code '\\' then Buffer.add_string buf "\\\\"
        else if c >= 0x20 && c < 0x7F then Buffer.add_char buf (Char.chr c)
        else Buffer.add_string buf (Printf.sprintf "\\u{%04X}" c))
      w;
    Buffer.contents buf

  let pp_result ppf = function
    | Sat w -> Format.fprintf ppf "sat \"%s\"" (string_of_witness w)
    | Unsat -> Format.fprintf ppf "unsat"
    | Unknown why -> Format.fprintf ppf "unknown (%s)" why

  type side = {
    min_len : int;
    max_len : int option;
    char_at : (int * A.pred) list;  (** [s_i] must satisfy the predicate *)
  }

  let no_side = { min_len = 0; max_len = None; char_at = [] }

  type session = {
    graph : G.t;
    mutable expansions : int;  (** der-rule applications *)
    mutable dead_hits : int;  (** bot-rule applications *)
    mutable queries : int;
    mutable max_depth : int;  (** deepest search depth reached *)
    mutable peak_frontier : int;  (** largest frontier size observed *)
    mutable deadline_hits : int;  (** queries aborted on deadline expiry *)
    mutable presolve_hits : int;
        (** queries decided by the abstract-domain pre-solver *)
    mutable wall_time : float;  (** cumulative [solve] wall-clock seconds *)
    mutable last_wall_time : float;  (** wall-clock of the latest query *)
  }

  let create_session () =
    {
      graph = G.create ();
      expansions = 0;
      dead_hits = 0;
      queries = 0;
      max_depth = 0;
      peak_frontier = 0;
      deadline_hits = 0;
      presolve_hits = 0;
      wall_time = 0.0;
      last_wall_time = 0.0;
    }

  let session_stats (s : session) : (string * float) list =
    [
      ("session.queries", float_of_int s.queries);
      ("session.expansions", float_of_int s.expansions);
      ("session.dead_hits", float_of_int s.dead_hits);
      ("session.max_depth", float_of_int s.max_depth);
      ("session.peak_frontier", float_of_int s.peak_frontier);
      ("session.deadline_hits", float_of_int s.deadline_hits);
      ("session.presolve_hits", float_of_int s.presolve_hits);
      ("session.graph_vertices", float_of_int (G.num_vertices s.graph));
      ("session.wall_time_s", s.wall_time);
      ("session.last_wall_time_s", s.last_wall_time);
    ]
    @ D.cache_stats ()

  (* Conjunction of all positional predicates at position [i]. *)
  let char_constraint side i =
    List.fold_left
      (fun acc (j, p) -> if j = i then A.conj acc p else acc)
      A.top side.char_at

  type strategy = Dfs | Bfs

  (* Does the side constraint admit this witness word?  Positional
     predicates beyond the end of the word are vacuous: the search only
     applies [char_at i] when extending a word past position [i]. *)
  let side_admits side (w : int list) : bool =
    let n = List.length w in
    n >= side.min_len
    && (match side.max_len with Some m -> n <= m | None -> true)
    && List.for_all
         (fun (i, p) -> i >= n || A.mem (List.nth w i) p)
         side.char_at

  let solve ?(budget = 200_000) ?deadline ?(dead_state_elim = true)
      ?(side = no_side) ?(strategy = Dfs) ?(presolve = true)
      (session : session) (r : R.t) : result =
    session.queries <- session.queries + 1;
    Obs.Counter.incr c_queries;
    let t_start = Obs.now () in
    let finish res =
      (match[@warning "-4"] res with
      | Unknown "deadline" ->
        session.deadline_hits <- session.deadline_hits + 1;
        Obs.Counter.incr c_deadline_hits
      | _ -> ());
      let elapsed = Obs.now () -. t_start in
      session.wall_time <- session.wall_time +. elapsed;
      session.last_wall_time <- elapsed;
      Obs.Span.add sp_solve elapsed;
      res
    in
    (* Abstract-domain fast path: [Unsat] verdicts are theorems of the
       abstraction and remain sound under any side constraint (which
       only shrinks the language); [Sat] witnesses are matcher-validated
       words, usable whenever the side constraint admits them -- except
       under [Bfs], whose contract promises a *shortest* witness. *)
    let fast =
      if not presolve then None
      else
        match Ab.presolve_word r with
        | `Unsat -> Some Unsat
        | `Sat w when strategy = Dfs && side_admits side w -> Some (Sat w)
        | `Sat _ | `Unknown -> None
    in
    match fast with
    | Some res ->
      session.presolve_hits <- session.presolve_hits + 1;
      Obs.Counter.incr c_presolve_hits;
      finish res
    | None ->
    let dl =
      match deadline with
      | None -> Obs.Deadline.none
      | Some s -> Obs.Deadline.of_seconds s
    in
    let g = session.graph in
    (* Depth saturation: beyond [cap], search behaviour no longer depends
       on the exact depth, so states can be identified. *)
    let cap =
      match side.max_len with
      | Some m -> m
      | None ->
        let k =
          List.fold_left (fun acc (i, _) -> max acc (i + 1)) 0 side.char_at
        in
        max k side.min_len
    in
    let depth_key d = min d cap in
    let within_max d =
      match side.max_len with Some m -> d <= m | None -> true
    in
    let accepting r d = R.nullable r && d >= side.min_len && within_max d in
    (* Backpointers for witness reconstruction: state -> (parent, guard). *)
    let visited : (int * int, (int * int) option * A.pred) Hashtbl.t =
      Hashtbl.create 256
    in
    (* The frontier is a deque: BFS pops from the front, DFS from the
       back. *)
    let frontier_list = ref [] and frontier_rev = ref [] in
    let frontier_size = ref 0 in
    let push state parent guard =
      let r, d = state in
      let key = (r.R.id, depth_key d) in
      if not (Hashtbl.mem visited key) then begin
        Hashtbl.add visited key (parent, guard);
        frontier_list := state :: !frontier_list;
        incr frontier_size;
        if !frontier_size > session.peak_frontier then
          session.peak_frontier <- !frontier_size
      end
    in
    let pop () =
      let popped =
        match strategy with
        | Dfs -> (
          match !frontier_list with
          | x :: rest ->
            frontier_list := rest;
            Some x
          | [] -> (
            match !frontier_rev with
            | x :: rest ->
              frontier_rev := rest;
              Some x
            | [] -> None))
        | Bfs -> (
          match !frontier_rev with
          | x :: rest ->
            frontier_rev := rest;
            Some x
          | [] -> (
            match List.rev !frontier_list with
            | x :: rest ->
              frontier_list := [];
              frontier_rev := rest;
              Some x
            | [] -> None))
      in
      if popped <> None then decr frontier_size;
      popped
    in
    let reconstruct (r : R.t) (d : int) : int list =
      let rec go key acc =
        match Hashtbl.find visited key with
        | None, _ -> acc
        | Some parent_key, guard ->
          let c =
            match A.choose guard with
            | Some c -> c
            | None -> assert false (* guards are kept satisfiable *)
          in
          go parent_key (c :: acc)
      in
      go (r.R.id, depth_key d) []
    in
    let steps = ref 0 in
    push (r, 0) None A.top;
    let result = ref None in
    let finished = ref false in
    while (not !finished) && !result = None do
      (* Deadline enforcement point 1: between pops.  Point 2 is inside
         [D.transitions], which raises mid-expansion. *)
      if Obs.Deadline.expired dl then result := Some (Unknown "deadline")
      else
        match pop () with
        | None -> finished := true
        | Some (q, d) ->
          if d > session.max_depth then session.max_depth <- d;
          if accepting q d then result := Some (Sat (reconstruct q d))
          else if dead_state_elim && G.is_dead g q then begin
            (* bot rule: in(s, q) rewrites to false. *)
            session.dead_hits <- session.dead_hits + 1;
            Obs.Counter.incr c_dead_hits
          end
          else if within_max (d + 1) then begin
            (* der rule: |s| > 0 and in_tr(s_1.., delta_dnf(q)). *)
            incr steps;
            session.expansions <- session.expansions + 1;
            Obs.Counter.incr c_expansions;
            if !steps > budget then result := Some (Unknown "budget exhausted")
            else begin
              match D.transitions ~deadline:dl q with
              | exception Obs.Deadline_exceeded _ ->
                result := Some (Unknown "deadline")
              | edges ->
                (* upd rule: record q's derivatives in the persistent graph,
                   independent of the side constraints of this query. *)
                if not (G.is_closed g q) then
                  G.close g q ~final:(R.nullable q)
                    ~targets:
                      (List.map (fun (_, t) -> (t, R.nullable t)) edges);
                (* ite/or/ere rules: one guarded successor per DNF
                   transition, additionally constrained by the context's
                   predicate on s_d. *)
                let extra = char_constraint side d in
                (* Edges are sorted by ascending target id; pushing in
                   reverse makes the DFS pop the oldest (typically
                   simplest) successor first, which empirically keeps the
                   search out of the blowup-prone freshly-created compound
                   states. *)
                List.iter
                  (fun (guard, target) ->
                    let guard = A.conj guard extra in
                    if not (A.is_bot guard) then
                      push (target, d + 1) (Some (q.R.id, depth_key d)) guard)
                  (List.rev edges)
            end
          end
    done;
    let res =
      match !result with
      | Some res -> res
      | None ->
        (* Frontier exhausted: every reachable vertex is closed and none is
           accepting.  Without side constraints this proves the regex
           denotes the empty language (Theorem 5.2); with side constraints
           it proves the constrained query unsatisfiable. *)
        Unsat
    in
    finish res

  (* -- derived queries ------------------------------------------------ *)

  (** Language emptiness: [L(r) = ∅]. *)
  let is_empty_lang ?budget ?deadline session r =
    match solve ?budget ?deadline session r with
    | Unsat -> Some true
    | Sat _ -> Some false
    | Unknown _ -> None

  (** Language containment: [L(r1) ⊆ L(r2)] iff [r1 & ~r2] is empty. *)
  let subset ?budget ?deadline session r1 r2 =
    is_empty_lang ?budget ?deadline session (R.diff r1 r2)

  (** Language equivalence via double containment reduced to a single
      emptiness check of the symmetric difference. *)
  let equiv ?budget ?deadline session r1 r2 =
    is_empty_lang ?budget ?deadline session
      (R.alt (R.diff r1 r2) (R.diff r2 r1))

  (** Enumerate up to [n] distinct members of [L(r)], SMT-style: after
      each model, a blocking constraint (the complement of the witness
      literal) is conjoined and the solver re-runs.  Stops early when the
      language is exhausted or the budget trips. *)
  let enumerate ?budget ?deadline ?strategy (session : session) (r : R.t)
      (n : int) : int list list =
    let rec go r acc k =
      if k = 0 then List.rev acc
      else
        match solve ?budget ?deadline ?strategy session r with
        | Sat w ->
          let literal = R.concat_list (List.map R.chr w) in
          go (R.diff r literal) (w :: acc) (k - 1)
        | Unsat | Unknown _ -> List.rev acc
    in
    go r [] n

  (* -- formulas over a single string variable -------------------------- *)

  type formula =
    | In of R.t  (** [s ∈ L(r)] *)
    | Len_eq of int
    | Len_ge of int
    | Len_le of int
    | Char_at of int * A.pred  (** [|s| > i] and [s_i ∈ [[p]]] *)
    | FAnd of formula list
    | FOr of formula list
    | FNot of formula
    | FTrue
    | FFalse

  (* Negation normal form over formula atoms.  [¬In r] becomes membership
     in the complement -- the move that turns Boolean combinations of
     constraints into a single ERE. *)
  let rec fnnf = function
    | FNot f -> fneg f
    | FAnd fs -> FAnd (List.map fnnf fs)
    | FOr fs -> FOr (List.map fnnf fs)
    | (In _ | Len_eq _ | Len_ge _ | Len_le _ | Char_at _ | FTrue | FFalse) as
      atom ->
      atom

  and fneg = function
    | In r -> In (R.compl r)
    | Len_eq n -> if n = 0 then Len_ge 1 else FOr [ Len_le (n - 1); Len_ge (n + 1) ]
    | Len_ge n -> if n = 0 then FFalse else Len_le (n - 1)
    | Len_le n -> Len_ge (n + 1)
    | Char_at (i, p) -> FOr [ Len_le i; Char_at (i, A.neg p) ]
    | FAnd fs -> FOr (List.map fneg fs)
    | FOr fs -> FAnd (List.map fneg fs)
    | FNot f -> fnnf f
    | FTrue -> FFalse
    | FFalse -> FTrue

  (* Distribute an NNF formula into a disjunction of conjunctions of
     atoms.  Benchmark formulas are small, so the worst-case blowup is a
     non-issue; the regex-level Boolean structure is where the paper's
     machinery earns its keep. *)
  let rec dnf_clauses (f : formula) : formula list list =
    match f with
    | FOr fs -> List.concat_map dnf_clauses fs
    | FAnd fs ->
      List.fold_left
        (fun acc f ->
          let cs = dnf_clauses f in
          List.concat_map (fun clause -> List.map (fun c -> clause @ c) cs) acc)
        [ [] ] fs
    | FFalse -> []
    | FTrue -> [ [] ]
    | (In _ | Len_eq _ | Len_ge _ | Len_le _ | Char_at _ | FNot _) as atom ->
      [ [ atom ] ]

  (* Assemble one DNF clause into a single ERE plus side constraints. *)
  let clause_to_query (atoms : formula list) : (R.t * side) option =
    let regexes = ref [] in
    let min_len = ref 0 in
    let max_len = ref None in
    let char_at = ref [] in
    let ok = ref true in
    let set_max n =
      match !max_len with
      | Some m -> max_len := Some (min m n)
      | None -> max_len := Some n
    in
    List.iter
      (fun atom ->
        match atom with
        | In r -> regexes := r :: !regexes
        | Len_eq n ->
          min_len := max !min_len n;
          set_max n
        | Len_ge n -> min_len := max !min_len n
        | Len_le n -> set_max n
        | Char_at (i, p) ->
          min_len := max !min_len (i + 1);
          char_at := (i, p) :: !char_at
        | FTrue -> ()
        | FFalse -> ok := false
        | FAnd _ | FOr _ | FNot _ -> invalid_arg "clause_to_query: not an atom")
      atoms;
    let bounds_ok =
      match !max_len with Some m -> m >= !min_len | None -> true
    in
    if (not !ok) || not bounds_ok then None
    else
      Some
        ( R.inter_list (R.full :: !regexes),
          { min_len = !min_len; max_len = !max_len; char_at = !char_at } )

  let solve_formula ?budget ?deadline ?dead_state_elim (session : session)
      (f : formula) : result =
    let clauses = dnf_clauses (fnnf f) in
    let rec try_clauses unknown = function
      | [] -> if unknown then Unknown "budget exhausted" else Unsat
      | clause :: rest -> (
        match clause_to_query clause with
        | None -> try_clauses unknown rest
        | Some (r, side) -> (
          match solve ?budget ?deadline ?dead_state_elim ~side session r with
          | Sat w -> Sat w
          | Unsat -> try_clauses unknown rest
          | Unknown _ -> try_clauses true rest))
    in
    try_clauses false clauses
end
