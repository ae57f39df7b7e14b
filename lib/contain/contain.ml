(** Containment and equivalence of extended regular expressions by
    coinduction on symbolic derivatives (DESIGN.md §14).

    [L(r) ⊆ L(s)] holds iff [ν(r) ⇒ ν(s)] and, for every character [a],
    [L(δ_a r) ⊆ L(δ_a s)]: derivation commutes with left quotients
    (Theorem 4.3), and the set of derivative pairs reachable from
    [(r, s)] is finite modulo similarity (Theorem 7.1).  The prover
    therefore searches the pair graph breadth-first: a pair with
    [ν(left) ∧ ¬ν(right)] refutes containment — the path to it spells a
    distinguishing word — and exhausting the frontier proves it, the
    visited pair set being the coinductive hypothesis.  This is the
    symbolic-derivative containment procedure of Keil–Thiemann (arXiv
    1410.3227) specialized to the paper's DNF transition regexes; unlike
    the reduction to emptiness of [r & ~s] it never builds a complement,
    so the DNF blowup that [~s] would trigger (Section 4.1) is avoided.

    The character quantification is discharged symbolically: both sides'
    outgoing guards are refined into their joint minterm partition, and
    one representative per minterm steps the pair.  Characters within a
    minterm have identical derivatives on both sides, so each reachable
    pair is processed once per {e symbolically distinct} class.

    Pair identity is O(1) by hash-consing: a pair key packs the two node
    ids into one int.  Sessions keep two persistent id-pair memos per
    mode — pairs proved contained (a completed exploration proves every
    visited pair, not just the root) and pairs refuted, the latter with
    the distinguishing {e suffix} from that pair, so a later query
    hitting a known-refuted pair refutes immediately with
    [path ++ suffix]. *)

(** The prover over one abstract domain [Ab] and its derivative tower
    [Ab.D], shared with the solver and the analyzer. *)
module type S = sig
  module Ab : Sbd_absdom.Absdom.S
  module D = Ab.D
  module R = D.R
  module A = R.A

  type verdict =
    | Proved
    | Refuted of int list
        (** distinguishing word (code points): for [subset r s] a word in
            [L(r) \ L(s)]; for [equiv r s] a word in exactly one of the
            two languages *)
    | Unknown of string  (** budget or deadline exhausted *)

  val string_of_verdict : verdict -> string
  val pp_verdict : Format.formatter -> verdict -> unit

  (** A prover session: persistent id-pair memo tables (proved and
      refuted pairs survive across queries) plus work counters.  Pair
      keys are O(1) thanks to hash-consing: two packed node ids. *)
  type session

  val create_session : unit -> session

  val session_stats : session -> (string * float) list
  (** Machine-readable counters (name, value): queries, pair expansions,
      memo hits, peak frontier, verdict tallies, memo sizes, wall time. *)

  val memo_entries : session -> int
  (** Total entries across the pair memo tables (cache-pressure gauge;
      the shared [D] and [Ab] memos are counted by the tower). *)

  val clear : session -> unit
  (** Drop the pair memo tables (not the underlying derivative memos).
      Safe at any query boundary. *)

  val default_budget : int

  val subset :
    ?budget:int ->
    ?deadline:Sbd_obs.Obs.Deadline.t ->
    ?presolve:bool ->
    session ->
    R.t ->
    R.t ->
    verdict
  (** Decide [L(r) ⊆ L(s)].  [budget] bounds pair expansions (default
      {!default_budget}); on exhaustion the verdict is [Unknown], never
      a guess.  [deadline] is additionally enforced between expansions
      and inside the derivative/DNF machinery.

      [presolve] (default [true]) first runs the abstract-domain
      prescan on the emptiness reduction [r & ~s]: an abstractly empty
      difference proves the containment, a matcher-validated member of
      the difference refutes it with that distinguishing word, and on
      any doubt the coinductive pair search runs as before.  Set
      [presolve:false] for A/B measurements. *)

  val equiv :
    ?budget:int ->
    ?deadline:Sbd_obs.Obs.Deadline.t ->
    ?presolve:bool ->
    session ->
    R.t ->
    R.t ->
    verdict
  (** Decide [L(r) = L(s)] by direct pair coinduction (one pass over
      unordered pairs, not two containment runs).  The memo key is
      canonical under argument order. *)
end

module Make (Ab : Sbd_absdom.Absdom.S) : S with module Ab = Ab = struct
  module Ab = Ab
  module D = Ab.D
  module R = D.R
  module A = R.A
  module Mt = Sbd_alphabet.Minterm.Make (A)
  module Obs = Sbd_obs.Obs

  let c_queries = Obs.Counter.make "contain.queries"
  let c_expansions = Obs.Counter.make "contain.expansions"
  let c_memo_hits = Obs.Counter.make "contain.memo_hits"
  let c_deadline_hits = Obs.Counter.make "contain.deadline_hits"
  let c_presolve_hits = Obs.Counter.make "contain.presolve_hits"
  let sp_contain = Obs.Span.make "contain"

  type verdict =
    | Proved
    | Refuted of int list  (** distinguishing word, as code points *)
    | Unknown of string

  let string_of_verdict = function
    | Proved -> "proved"
    | Refuted _ -> "refuted"
    | Unknown _ -> "unknown"

  let pp_verdict ppf = function
    | Proved -> Format.fprintf ppf "proved"
    | Refuted w ->
      Format.fprintf ppf "refuted \"%s\""
        (String.concat ""
           (List.map
              (fun c ->
                if c >= 0x20 && c < 0x7F then String.make 1 (Char.chr c)
                else Printf.sprintf "\\u{%04X}" c)
              w))
    | Unknown why -> Format.fprintf ppf "unknown (%s)" why

  (* Pair keys: two hash-cons ids packed into one int.  Node ids are
     dense counters, far below 2^31 in any feasible run, so the packing
     is collision-free on 64-bit OCaml. *)
  let key2 a b = (a lsl 31) + b

  type mode = Subset | Equiv

  (* One memo set per mode: [proved] pairs are theorems ([key] only),
     [refuted] pairs carry the distinguishing suffix from that pair. *)
  type memo = {
    proved : (int, unit) Hashtbl.t;
    refuted : (int, int list) Hashtbl.t;
  }

  let make_memo () = { proved = Hashtbl.create 256; refuted = Hashtbl.create 64 }

  type session = {
    sub : memo;
    eq : memo;
    mutable queries : int;
    mutable expansions : int;  (** pair expansions across all queries *)
    mutable memo_hits : int;
    mutable peak_frontier : int;
    mutable deadline_hits : int;
    mutable n_proved : int;
    mutable n_refuted : int;
    mutable n_unknown : int;
    mutable presolve_hits : int;
        (** queries decided by the abstract-domain prescan *)
    mutable wall_time : float;
    mutable last_wall_time : float;
  }

  let create_session () =
    {
      sub = make_memo ();
      eq = make_memo ();
      queries = 0;
      expansions = 0;
      memo_hits = 0;
      peak_frontier = 0;
      deadline_hits = 0;
      n_proved = 0;
      n_refuted = 0;
      n_unknown = 0;
      presolve_hits = 0;
      wall_time = 0.0;
      last_wall_time = 0.0;
    }

  let memo_entries (s : session) =
    Hashtbl.length s.sub.proved + Hashtbl.length s.sub.refuted
    + Hashtbl.length s.eq.proved + Hashtbl.length s.eq.refuted

  let clear (s : session) =
    Hashtbl.reset s.sub.proved;
    Hashtbl.reset s.sub.refuted;
    Hashtbl.reset s.eq.proved;
    Hashtbl.reset s.eq.refuted

  let session_stats (s : session) : (string * float) list =
    [
      ("contain.queries", float_of_int s.queries);
      ("contain.expansions", float_of_int s.expansions);
      ("contain.memo_hits", float_of_int s.memo_hits);
      ("contain.peak_frontier", float_of_int s.peak_frontier);
      ("contain.deadline_hits", float_of_int s.deadline_hits);
      ("contain.proved", float_of_int s.n_proved);
      ("contain.refuted", float_of_int s.n_refuted);
      ("contain.unknown", float_of_int s.n_unknown);
      ("contain.presolve_hits", float_of_int s.presolve_hits);
      ("contain.memo_entries", float_of_int (memo_entries s));
      ("contain.wall_time_s", s.wall_time);
      ("contain.last_wall_time_s", s.last_wall_time);
    ]

  let default_budget = 20_000

  (* A pair needs no exploration when the mode's local relation holds
     for every word by a syntactic argument: O(1) checks only. *)
  let trivial mode (x : R.t) (y : R.t) =
    match mode with
    | Subset -> R.equal x y || R.is_empty x || R.is_full y
    | Equiv -> R.equal x y

  (* Local (one-pair) violation of the coinductive invariant. *)
  let violates mode (x : R.t) (y : R.t) =
    match mode with
    | Subset -> R.nullable x && not (R.nullable y)
    | Equiv -> R.nullable x <> R.nullable y

  (* Canonical memo/visited key for a pair.  Equiv is symmetric, so its
     key is order-independent — [equiv a b] and [equiv b a] share memo
     lines (and the service builds its cache key the same way). *)
  let pair_key mode (x : R.t) (y : R.t) =
    match mode with
    | Subset -> key2 x.R.id y.R.id
    | Equiv ->
      if x.R.id <= y.R.id then key2 x.R.id y.R.id else key2 y.R.id x.R.id

  (* Abstract-domain prescan over the emptiness reduction: containment
     holds iff the difference language is empty, so an abstractly proven
     empty difference proves the containment without exploring a single
     pair, and a matcher-validated member of the difference is already a
     distinguishing word.  [None] on any doubt — the coinductive search
     then runs as before. *)
  let prescan (mode : mode) (r : R.t) (s : R.t) : verdict option =
    let diff =
      match mode with
      | Subset -> R.diff r s
      | Equiv -> R.alt (R.diff r s) (R.diff s r)
    in
    match Ab.presolve_word diff with
    | `Unsat -> Some Proved
    | `Sat w -> Some (Refuted w)
    | `Unknown -> None

  let prove ?(budget = default_budget) ?(deadline = Obs.Deadline.none)
      ?(presolve = true) (session : session) (mode : mode) (r : R.t)
      (s : R.t) : verdict =
    session.queries <- session.queries + 1;
    Obs.Counter.incr c_queries;
    let t_start = Obs.now () in
    let fast = if presolve then prescan mode r s else None in
    (match fast with
    | Some _ ->
      session.presolve_hits <- session.presolve_hits + 1;
      Obs.Counter.incr c_presolve_hits
    | None -> ());
    let memo = match mode with Subset -> session.sub | Equiv -> session.eq in
    (* Backpointers for witness reconstruction:
       pair key -> (parent key, step character). *)
    let visited : (int, (int * int) option) Hashtbl.t = Hashtbl.create 256 in
    let frontier : (R.t * R.t) Queue.t = Queue.create () in
    let push x y parent =
      if not (trivial mode x y) then begin
        let key = pair_key mode x y in
        if not (Hashtbl.mem visited key) then begin
          Hashtbl.add visited key parent;
          Queue.add (x, y) frontier;
          let n = Queue.length frontier in
          if n > session.peak_frontier then session.peak_frontier <- n
        end
      end
    in
    (* The word spelled by the path from the root to [key], continued
       with [suffix]; as a side effect, records the refuted suffix at
       every pair along the path (each ancestor of a refuted pair is
       itself refuted, by the word it spells down to the violation). *)
    let reconstruct key suffix : int list =
      let rec go key acc =
        Hashtbl.replace memo.refuted key acc;
        match Hashtbl.find_opt visited key with
        | None | Some None -> acc
        | Some (Some (parent, c)) -> go parent (c :: acc)
      in
      go key suffix
    in
    let steps = ref 0 in
    if fast = None then push r s None;
    let result = ref fast in
    (try
       while !result = None && not (Queue.is_empty frontier) do
         if Obs.Deadline.expired deadline then
           result := Some (Unknown "deadline")
         else begin
           let x, y = Queue.pop frontier in
           let key = pair_key mode x y in
           if violates mode x y then
             result := Some (Refuted (reconstruct key []))
           else if Hashtbl.mem memo.proved key then begin
             (* coinductive hypothesis discharged in an earlier query *)
             session.memo_hits <- session.memo_hits + 1;
             Obs.Counter.incr c_memo_hits
           end
           else
             match Hashtbl.find_opt memo.refuted key with
             | Some suffix ->
               session.memo_hits <- session.memo_hits + 1;
               Obs.Counter.incr c_memo_hits;
               result := Some (Refuted (reconstruct key suffix))
             | None ->
               incr steps;
               session.expansions <- session.expansions + 1;
               Obs.Counter.incr c_expansions;
               if !steps > budget then
                 result := Some (Unknown "budget exhausted")
               else begin
                 (* Joint refinement: DNF transitions are nondeterministic
                    (several targets can share a guard), so the pair steps
                    per minterm of the combined guard sets — within one
                    minterm both derivatives are constant. *)
                 let guards r = List.map fst (D.transitions ~deadline r) in
                 let classes = Mt.minterms (guards x @ guards y) in
                 List.iter
                   (fun cls ->
                     match A.choose cls with
                     | Some c ->
                       push (D.derive c x) (D.derive c y) (Some (key, c))
                     | None -> ())
                   classes
               end
         end
       done
     with Obs.Deadline_exceeded _ -> result := Some (Unknown "deadline"));
    let res =
      match !result with
      | Some res -> res
      | None ->
        (* Frontier exhausted without a violation: the visited pairs form
           a closed simulation, so every one of them — the root included —
           is a theorem worth memoizing. *)
        Hashtbl.iter
          (fun key _ ->
            if not (Hashtbl.mem memo.proved key) then
              Hashtbl.add memo.proved key ())
          visited;
        Proved
    in
    (* Self-check refutations against the derivative matcher: a wrong
       distinguishing word can only come from a reconstruction bug, and
       [Unknown] is always sound. *)
    let res =
      match res with
      | Refuted w ->
        let in_l = D.matches r w and in_r = D.matches s w in
        let ok =
          match mode with
          | Subset -> in_l && not in_r
          | Equiv -> in_l <> in_r
        in
        if ok then res else Unknown "witness self-check failed"
      | Proved | Unknown _ -> res
    in
    (match res with
    | Proved -> session.n_proved <- session.n_proved + 1
    | Refuted _ -> session.n_refuted <- session.n_refuted + 1
    | Unknown why ->
      session.n_unknown <- session.n_unknown + 1;
      if why = "deadline" then begin
        session.deadline_hits <- session.deadline_hits + 1;
        Obs.Counter.incr c_deadline_hits
      end);
    let elapsed = Obs.now () -. t_start in
    session.wall_time <- session.wall_time +. elapsed;
    session.last_wall_time <- elapsed;
    Obs.Span.add sp_contain elapsed;
    res

  let subset ?budget ?deadline ?presolve session r s =
    prove ?budget ?deadline ?presolve session Subset r s

  let equiv ?budget ?deadline ?presolve session r s =
    prove ?budget ?deadline ?presolve session Equiv r s
end
