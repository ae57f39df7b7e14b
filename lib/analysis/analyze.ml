(** Static analysis of extended regular expressions.

    The solver and the match engine discover blowup at runtime, via
    deadlines and [max_states] cache resets.  This module predicts it
    ahead of time, in two layers:

    - {b Layer 1 (structural, O(|r|))}: metrics over the hash-consed AST
      (size, star height, complement depth, Boolean-operator counts, the
      Theorem 7.3 unfolding measure, a minterm-count estimate), fragment
      classification (plain [RE], [B(RE)] with its linear state bound, or
      general ERE), and a rule-based linter with stable rule identifiers.
    - {b Layer 2 (semantic, budgeted)}: bounded exploration of the
      derivative graph to issue {e sound} emptiness/universality
      verdicts.  Verdicts are [Proved]/[Refuted]/[Unknown]: [Proved] and
      [Refuted] are theorems (frontier exhaustion per Theorem 5.2,
      resp. an accepting path whose witness is reconstructed), [Unknown]
      is returned whenever the budget or deadline runs out.  The analyzer
      never guesses.

    The result is a {!report}: findings, metrics, semantic verdicts and a
    {!hints} record (suggested engine [max_states], memo cap, byte-mode
    safety, routing) consumed by the service worker.

    Lint rules (stable IDs; severities are error/warning/info):
    - [SBD101] (error) pattern is syntactically ⊥;
    - [SBD102] (error) pattern is unsatisfiable by ⊥-propagation
      (e.g. an intersection of disjoint character classes);
    - [SBD103] (warning) a proper subterm is trivially dead
      (⊥-propagation), e.g. an unsatisfiable intersection under [~];
    - [SBD104] (warning) an intersection constrains a single character
      with contradictory positive/negated classes;
    - [SBD105] (warning) double complement in the source text (the AST
      normalizes [~~r = r], so this is detected syntactically);
    - [SBD106] (warning) complement over a counted repetition
      ([~(.{k}...)]): DNF blowup risk (Section 4.1 of the paper);
    - [SBD107] (warning) intersection of two or more counter-carrying
      branches: state-product risk;
    - [SBD108] (info) counted repetitions unfold heavily (Theorem 7.3
      measure above threshold);
    - [SBD109] (info) many distinct predicates (mintermization pressure
      for the byte-class compiler and classical baselines);
    - [SBD110] (info) deep complement nesting;
    - [SBD201] (error) language proved empty by bounded exploration;
    - [SBD202] (info) language proved universal;
    - [SBD203] (warning) an alternation branch is proved empty and can
      be removed;
    - [SBD204] (warning) an intersection conjunct is proved universal
      and can be removed;
    - [SBD205] (warning) an alternation branch is contained in the
      union of its siblings (containment prover): it is redundant;
    - [SBD206] (warning) an intersection conjunct is entailed by the
      conjunction of the others: it is redundant;
    - [SBD401] (error) unsatisfiable by the length abstraction
      (infeasible min/max interval or residue conflict);
    - [SBD402] (error) unsatisfiable by the character abstraction (a
      required class is disjoint from the possible characters);
    - [SBD403] (warning) a counted repetition collapses (abstractly
      empty body, or a body that only matches the empty word);
    - [SBD404] (warning) an intersection imposes incompatible length
      constraints on its conjuncts (with a [replacement] at the root);
    - [SBD405] (info) the overall length bound caps every starred
      subterm: a counter would make the bound explicit;
    - [SBD406] (info) the abstract length bound tightens the suggested
      engine state cap below the structural suggestion;
    - [SBD407] (info) every accepted word has exactly one length;
    - [SBD408] (warning) an alternation branch is abstractly empty and
      can be removed (the O(|r|) sibling of SBD203).

    Rules SBD203–SBD206, SBD404 and SBD408 attach a [replacement]: the
    whole pattern with the redundant branch removed (resp. the empty
    language for SBD404).  Each replacement is justified by a [Proved]
    containment/emptiness theorem or an abstract-interpretation theorem
    ({!Sbd_absdom.Absdom}), and the corpus sweep
    ([experiments analyze-bench]) additionally re-checks every
    suggestion against the solver (symmetric difference must be
    unsatisfiable). *)

module Make (C : Sbd_contain.Contain.S) = struct
  module Ab = C.Ab
  module D = C.D
  module R = D.R
  module A = R.A
  module Mt = Sbd_alphabet.Minterm.Make (A)
  module Obs = Sbd_obs.Obs
  module J = Obs.Json

  let c_runs = Obs.Counter.make "analysis.runs"
  let c_expansions = Obs.Counter.make "analysis.expansions"
  let c_proved = Obs.Counter.make "analysis.proved"

  (* ------------------------------------------------------------------ *)
  (* Layer 1: structural metrics                                         *)
  (* ------------------------------------------------------------------ *)

  (** A bounded loop with an upper bound at least this large counts as a
      "counter" for the blowup heuristics. *)
  let counter_threshold = 4

  type fragment =
    | Plain_re  (** no [&], [~]: Theorem 7.3 linear bound applies *)
    | Bool_re  (** Boolean combination of classical regexes, ibid. *)
    | Ext_re  (** general ERE: worst-case exponential *)

  let fragment_name = function
    | Plain_re -> "RE"
    | Bool_re -> "B(RE)"
    | Ext_re -> "ERE"

  type metrics = {
    size : int;  (** AST nodes *)
    star_height : int;  (** nesting depth of [*] / unbounded loops *)
    compl_depth : int;  (** nesting depth of [~] *)
    n_or : int;
    n_and : int;
    n_not : int;
    n_loop : int;  (** bounded loops *)
    n_pred : int;  (** predicate leaf occurrences *)
    distinct_preds : int;
    minterms : int;  (** minterm count; exact iff [minterms_exact] *)
    minterms_exact : bool;
    unfolded : int;  (** Theorem 7.3 measure: ♯(r) with loops unfolded *)
    max_counter : int;  (** largest finite loop bound, 0 when none *)
    counter_under_compl : bool;
    and_counter_branches : int;
      (** max number of counter-carrying conjuncts of a single [&] *)
    ascii_only : bool;  (** every predicate denotes a subset of ASCII *)
    nullable : bool;
    fragment : fragment;
    state_bound : int option;
      (** Theorem 7.3: for RE/B(RE), at most [unfolded + 1] derivatives *)
    abs : Ab.summary;
      (** abstract-domain summary: length progression, character sets,
          three-valued emptiness (see {!Sbd_absdom.Absdom}) *)
  }

  (* Per-node structural summary, combined bottom-up over the hash-consed
     DAG.  The memo table keys on [r.id] so shared subterms (common after
     similarity normalization) are visited once; a naive recursion could
     be exponential on DAG-shaped terms. *)
  type summary = {
    s_size : int;
    s_sh : int;  (* star height *)
    s_cd : int;  (* complement depth *)
    s_or : int;
    s_and : int;
    s_not : int;
    s_loop : int;
    s_pred : int;
    s_unf : int;
    s_maxc : int;
    s_counter : bool;  (* subtree contains a loop with bound >= threshold *)
    s_cuc : bool;  (* counter under complement *)
    s_acb : int;  (* max counter-carrying conjunct count of an [&] *)
  }

  let scan_memo : (int, summary) Hashtbl.t = Hashtbl.create 256

  let rec scan (r : R.t) : summary =
    match Hashtbl.find_opt scan_memo r.R.id with
    | Some s -> s
    | None ->
      let leaf =
        { s_size = 1; s_sh = 0; s_cd = 0; s_or = 0; s_and = 0; s_not = 0
        ; s_loop = 0; s_pred = 0; s_unf = 0; s_maxc = 0; s_counter = false
        ; s_cuc = false; s_acb = 0 }
      in
      let combine a b =
        { s_size = a.s_size + b.s_size
        ; s_sh = max a.s_sh b.s_sh
        ; s_cd = max a.s_cd b.s_cd
        ; s_or = a.s_or + b.s_or
        ; s_and = a.s_and + b.s_and
        ; s_not = a.s_not + b.s_not
        ; s_loop = a.s_loop + b.s_loop
        ; s_pred = a.s_pred + b.s_pred
        ; s_unf = a.s_unf + b.s_unf
        ; s_maxc = max a.s_maxc b.s_maxc
        ; s_counter = a.s_counter || b.s_counter
        ; s_cuc = a.s_cuc || b.s_cuc
        ; s_acb = max a.s_acb b.s_acb }
      in
      let s =
        match r.R.node with
        | Pred _ -> { leaf with s_pred = 1; s_unf = 1 }
        | Eps -> leaf
        | Concat (a, b) ->
          let s = combine (scan a) (scan b) in
          { s with s_size = s.s_size + 1 }
        | Star a ->
          let sa = scan a in
          { sa with s_size = sa.s_size + 1; s_sh = sa.s_sh + 1 }
        | Loop (a, m, n) ->
          let sa = scan a in
          let bound = match n with Some k -> k | None -> m in
          let copies = match n with Some k -> max k 1 | None -> m + 1 in
          { sa with
            s_size = sa.s_size + 1
          ; s_sh = (match n with None -> sa.s_sh + 1 | Some _ -> sa.s_sh)
          ; s_loop = (match n with Some _ -> sa.s_loop + 1 | None -> sa.s_loop)
          ; s_unf = copies * sa.s_unf
          ; s_maxc = max sa.s_maxc bound
          ; s_counter = sa.s_counter || bound >= counter_threshold }
        | Or xs ->
          let s = List.fold_left (fun acc x -> combine acc (scan x)) leaf xs in
          { s with s_size = s.s_size + 1; s_or = s.s_or + 1 }
        | And xs ->
          let subs = List.map scan xs in
          let s = List.fold_left combine leaf subs in
          let carrying =
            List.length (List.filter (fun x -> x.s_counter) subs)
          in
          { s with
            s_size = s.s_size + 1
          ; s_and = s.s_and + 1
          ; s_acb = max s.s_acb carrying }
        | Not a ->
          let sa = scan a in
          { sa with
            s_size = sa.s_size + 1
          ; s_cd = sa.s_cd + 1
          ; s_not = sa.s_not + 1
          ; s_cuc = sa.s_cuc || sa.s_counter }
      in
      Hashtbl.add scan_memo r.R.id s;
      s

  (** Above this many distinct predicates the minterm count is reported
      as the (capped) upper bound [2^n] instead of being computed. *)
  let minterm_exact_limit = 12

  let ascii_pred p =
    List.for_all (fun (_, hi) -> hi <= 0x7F) (A.ranges p)

  let metrics_of (r : R.t) : metrics =
    let s = scan r in
    let preds = R.preds r in
    let distinct = List.length preds in
    let minterms, exact =
      if distinct <= minterm_exact_limit then
        (List.length (Mt.minterms preds), true)
      else (1 lsl min distinct 24, false)
    in
    let fragment =
      if R.in_re r then Plain_re
      else if R.in_bre r then Bool_re
      else Ext_re
    in
    let state_bound =
      match fragment with
      | Plain_re | Bool_re -> Some (s.s_unf + 1)
      | Ext_re -> None
    in
    { size = s.s_size
    ; star_height = s.s_sh
    ; compl_depth = s.s_cd
    ; n_or = s.s_or
    ; n_and = s.s_and
    ; n_not = s.s_not
    ; n_loop = s.s_loop
    ; n_pred = s.s_pred
    ; distinct_preds = distinct
    ; minterms
    ; minterms_exact = exact
    ; unfolded = s.s_unf
    ; max_counter = s.s_maxc
    ; counter_under_compl = s.s_cuc
    ; and_counter_branches = s.s_acb
    ; ascii_only = List.for_all ascii_pred preds
    ; nullable = R.nullable r
    ; fragment
    ; state_bound
    ; abs = Ab.summarize r }

  (** A scalar difficulty score used by the bench harness to correlate
      prediction with measured solver effort.  Monotone in the blowup
      signals; the absolute value is meaningless. *)
  let difficulty (m : metrics) : float =
    (* Abstract length contribution: a finite maximum length bounds the
       depth of any derivative exploration, so the counter bounds that
       the structural metrics ignore enter through [lmax]; a non-trivial
       period (stride > 1) signals counting structure the search has to
       track.  Unbounded patterns contribute via [lmin] only. *)
    let abs_len =
      let l = m.abs.Ab.len in
      let reach = match l.Ab.lmax with Some mx -> mx | None -> l.Ab.lmin in
      (0.25 *. log (float_of_int (1 + reach)))
      +. (if l.Ab.stride > 1 then 0.5 else 0.0)
    in
    log (float_of_int (1 + m.unfolded))
    +. (2.0 *. float_of_int m.compl_depth)
    +. (1.5 *. float_of_int m.n_and)
    +. (0.5 *. float_of_int m.star_height)
    +. (if m.counter_under_compl then 4.0 else 0.0)
    +. (if m.and_counter_branches >= 2 then 3.0 else 0.0)
    +. abs_len
    +.
    (match m.fragment with Ext_re -> 2.0 | Bool_re -> 1.0 | Plain_re -> 0.0)

  (* ------------------------------------------------------------------ *)
  (* Layer 1: linter                                                     *)
  (* ------------------------------------------------------------------ *)

  type severity = Error | Warning | Info

  let severity_name = function
    | Error -> "error"
    | Warning -> "warning"
    | Info -> "info"

  type finding = {
    rule : string;
    severity : severity;
    message : string;
    subterm : string option;
        (** rendering of the offending subterm; [None] = whole pattern *)
    replacement : string option;
        (** rendering of an equivalent simplified whole pattern, when
            the rule proves one (SBD203–SBD206) *)
  }

  let finding ?subterm ?replacement rule severity message =
    { rule; severity; message; subterm; replacement }

  (* ⊥-propagation: a cheap syntactic under-approximation of emptiness.
     Sound: [cheap_empty r = true] implies [L(r) = ∅].  The smart
     constructors already collapse most of these shapes, but conflicting
     predicate intersections (the constructors compare leaves only by
     identity, not semantically) and anything buried under [~] survive. *)

  (* A single-character constraint carried by a conjunct: [Pred p] means
     "one char satisfying p"; [Not (Pred q)] excludes the chars of [q]
     when some positive [Pred] is present (see [conj_char_conflict]). *)
  let conj_char_conflict (xs : R.t list) : bool =
    let pos =
      List.filter_map
        (fun (x : R.t) ->
          match x.R.node with
          | Pred p -> Some p
          | Eps | Concat _ | Star _ | Loop _ | Or _ | And _ | Not _ -> None)
        xs
    in
    match pos with
    | [] -> false
    | _ :: _ ->
      let neg =
        List.filter_map
          (fun (x : R.t) ->
            match x.R.node with
            | Not { R.node = Pred q; _ } -> Some q
            | Pred _ | Eps | Concat _ | Star _ | Loop _ | Or _ | And _
            | Not _ ->
              None)
          xs
      in
      let combined =
        List.fold_left
          (fun acc q -> A.conj acc (A.neg q))
          (List.fold_left A.conj A.top pos)
          neg
      in
      A.is_bot combined

  let cheap_empty_memo : (int, bool) Hashtbl.t = Hashtbl.create 256

  let rec cheap_empty (r : R.t) : bool =
    match Hashtbl.find_opt cheap_empty_memo r.R.id with
    | Some b -> b
    | None ->
      let b =
        match r.R.node with
        | Pred p -> A.is_bot p
        | Eps -> false
        | Concat (a, b) -> cheap_empty a || cheap_empty b
        | Star _ -> false (* contains eps *)
        | Loop (a, m, _) -> m >= 1 && cheap_empty a
        | Or xs -> List.for_all cheap_empty xs
        | And xs -> List.exists cheap_empty xs || conj_char_conflict xs
        | Not _ -> false
      in
      Hashtbl.add cheap_empty_memo r.R.id b;
      b

  (** Source-text lint: rules that the AST cannot express because the
      smart constructors normalize the shape away ([~~r = r]). *)
  let lint_source (src : string) : finding list =
    let has_double_compl =
      let n = String.length src in
      let rec go i =
        if i + 1 >= n then false
        else if src.[i] = '~' then
          (* skip whitespace and an optional '(' between the two tildes *)
          let rec skip j =
            if j < n && (src.[j] = ' ' || src.[j] = '(') then skip (j + 1)
            else j
          in
          let j = skip (i + 1) in
          (j < n && src.[j] = '~') || go (i + 1)
        else go (i + 1)
      in
      go 0
    in
    if has_double_compl then
      [ finding "SBD105" Warning
          "double complement in source: ~~r is equivalent to r" ]
    else []

  let lint_structural ?source (r : R.t) (m : metrics) : finding list =
    let out = ref [] in
    let add f = out := f :: !out in
    (* root-level emptiness *)
    if R.is_empty r then
      add
        (finding "SBD101" Error
           "pattern is the empty language: it matches nothing")
    else if cheap_empty r then
      add
        (finding "SBD102" Error
           "pattern is unsatisfiable: an intersection of disjoint \
            constraints makes it equivalent to the empty language");
    (* dead proper subterms: walk the DAG once *)
    let seen : (int, unit) Hashtbl.t = Hashtbl.create 64 in
    let rec walk (x : R.t) ~top =
      if not (Hashtbl.mem seen x.R.id) then begin
        Hashtbl.add seen x.R.id ();
        if (not top) && cheap_empty x && not (R.is_empty x) then
          add
            (finding "SBD103" Warning ~subterm:(R.to_string x)
               "subterm is trivially dead (denotes the empty language)")
        else begin
          (match x.R.node with
          | And xs when (not (cheap_empty x)) && conj_char_conflict xs ->
            add
              (finding "SBD104" Warning ~subterm:(R.to_string x)
                 "intersection constrains one character with \
                  contradictory classes")
          | Pred _ | Eps | Concat _ | Star _ | Loop _ | Or _ | And _
          | Not _ ->
            ());
          match x.R.node with
          | Pred _ | Eps -> ()
          | Concat (a, b) ->
            walk a ~top:false;
            walk b ~top:false
          | Star a | Loop (a, _, _) | Not a -> walk a ~top:false
          | Or xs | And xs -> List.iter (fun y -> walk y ~top:false) xs
        end
      end
    in
    walk r ~top:true;
    (* shape heuristics *)
    if m.counter_under_compl then
      add
        (finding "SBD106" Warning
           (Printf.sprintf
              "complement over a counted repetition (largest bound %d): \
               derivative DNF expansion may blow up"
              m.max_counter));
    if m.and_counter_branches >= 2 then
      add
        (finding "SBD107" Warning
           (Printf.sprintf
              "%d conjuncts of an intersection carry counters: state \
               space may grow with the product of the bounds"
              m.and_counter_branches));
    if m.unfolded >= 4096 then
      add
        (finding "SBD108" Info
           (Printf.sprintf
              "counted repetitions unfold to %d predicate positions \
               (Theorem 7.3 measure)"
              m.unfolded));
    if m.distinct_preds >= 16 then
      add
        (finding "SBD109" Info
           (Printf.sprintf
              "%d distinct predicates: mintermization-based backends \
               may suffer (up to 2^n minterms)"
              m.distinct_preds));
    if m.compl_depth >= 3 then
      add
        (finding "SBD110" Info
           (Printf.sprintf "complement nesting depth %d" m.compl_depth));
    let src_findings =
      match source with None -> [] | Some s -> lint_source s
    in
    List.rev !out @ src_findings

  (* ------------------------------------------------------------------ *)
  (* Layer 2: bounded semantic exploration                               *)
  (* ------------------------------------------------------------------ *)

  type verdict = Proved | Refuted | Unknown

  let verdict_name = function
    | Proved -> "proved"
    | Refuted -> "refuted"
    | Unknown -> "unknown"

  type semantic = {
    empty : verdict;  (** is [L(r) = ∅]? *)
    universal : verdict;  (** is [L(r)] all strings? *)
    witness : int list option;
        (** accepted word (code points) when [empty = Refuted] *)
    counterexample : int list option;
        (** rejected word when [universal = Refuted] *)
    expansions : int;  (** derivation steps spent (both directions) *)
    complete : bool;  (** both explorations exhausted their frontier *)
  }

  type outcome =
    | O_empty  (** frontier exhausted, no accepting state: L(r) = ∅ *)
    | O_witness of int list  (** accepting path found *)
    | O_unknown  (** budget or deadline ran out *)

  exception Found of int list

  (** Bounded BFS over the derivative graph.  The first nullable state
      popped is a witness.  If the frontier empties within [budget] and
      [deadline], every reachable state has been expanded and none is
      final, so [r0] is dead (Theorem 5.2): [E*(r0) ⊆ C \ Alive].
      [budget] bounds the number of state expansions; the [deadline]
      aborts a single pathological DNF. *)
  let explore ~budget ~deadline (r0 : R.t) : outcome * int =
    (* parent pointers for witness reconstruction: id -> (parent, guard) *)
    let parent : (int, R.t option * A.pred option) Hashtbl.t =
      Hashtbl.create 64
    in
    let q : R.t Queue.t = Queue.create () in
    Hashtbl.add parent r0.R.id (None, None);
    Queue.push r0 q;
    let expansions = ref 0 in
    let complete = ref true in
    let reconstruct (r : R.t) : int list =
      let rec go (x : R.t) acc =
        match Hashtbl.find_opt parent x.R.id with
        | None | Some (None, _) -> acc
        | Some (Some p, guard) ->
          let c =
            match guard with
            | None -> None
            | Some phi -> A.choose phi
          in
          go p (match c with None -> acc | Some c -> c :: acc)
      in
      go r []
    in
    let result =
      try
        while not (Queue.is_empty q) do
          let r = Queue.pop q in
          if R.nullable r then raise (Found (reconstruct r));
          if !expansions >= budget then begin
            complete := false;
            Queue.clear q
          end
          else begin
            incr expansions;
            match D.transitions ~deadline r with
            | ts ->
              List.iter
                (fun (phi, tgt) ->
                  if
                    not
                      (A.is_bot phi || R.is_empty tgt
                      || Hashtbl.mem parent tgt.R.id)
                  then begin
                    Hashtbl.add parent tgt.R.id (Some r, Some phi);
                    Queue.push tgt q
                  end)
                ts
            | exception Obs.Deadline_exceeded _ ->
              complete := false;
              Queue.clear q
          end
        done;
        if !complete then O_empty else O_unknown
      with Found w -> O_witness w
    in
    Obs.Counter.add c_expansions !expansions;
    (result, !expansions)

  let default_budget = 2_000

  (** Sound emptiness and universality verdicts for [r], each within
      [budget] state expansions.  Universality of [r] is emptiness of
      [~r] (the Boolean closure makes this a first-class query, per the
      paper's Section 7 discussion of intersection/complement). *)
  let semantic_of ?(budget = default_budget) ?(deadline = Obs.Deadline.none)
      (r : R.t) : semantic =
    let o_e, n_e = explore ~budget ~deadline r in
    let o_u, n_u = explore ~budget ~deadline (R.compl r) in
    let empty, witness =
      match o_e with
      | O_empty -> (Proved, None)
      | O_witness w -> (Refuted, Some w)
      | O_unknown -> (Unknown, None)
    in
    let universal, counterexample =
      match o_u with
      | O_empty -> (Proved, None)
      | O_witness w -> (Refuted, Some w)
      | O_unknown -> (Unknown, None)
    in
    if empty = Proved || empty = Refuted then Obs.Counter.incr c_proved;
    if universal = Proved || universal = Refuted then
      Obs.Counter.incr c_proved;
    { empty
    ; universal
    ; witness
    ; counterexample
    ; expansions = n_e + n_u
    ; complete =
        (match (o_e, o_u) with
        | (O_empty | O_witness _), (O_empty | O_witness _) -> true
        | O_unknown, (O_empty | O_witness _ | O_unknown)
        | (O_empty | O_witness _), O_unknown ->
          false) }

  (** The containment prover's session for entailment lints
      (SBD205/SBD206): memoized pair verdicts survive across [analyze]
      calls, like the derivative memo. *)
  let csession = C.create_session ()

  (** Semantic simplification suggestions at the root: dead alternation
      branches (SBD203), universal intersection conjuncts (SBD204), and
      entailment-based redundancy via the coinductive containment
      prover — an [|]-branch contained in the union of its siblings
      (SBD205), an [&]-conjunct entailed by the conjunction of the
      remaining ones (SBD206).  Bounded both in branch count and
      per-branch budget; only [Proved] verdicts are reported, and every
      finding carries the simplified whole pattern as [replacement]. *)
  let lint_semantic ?(budget = default_budget)
      ?(deadline = Obs.Deadline.none) (r : R.t) : finding list =
    let branch_limit = 8 in
    let rest_of xs i = List.filteri (fun j _ -> j <> i) xs in
    match r.R.node with
    | Or xs when List.length xs <= branch_limit ->
      let slice = max 64 (budget / List.length xs) in
      List.concat
        (List.mapi
           (fun i (x : R.t) ->
             let rest = R.alt_list (rest_of xs i) in
             match explore ~budget:slice ~deadline x with
             | O_empty, _ ->
               [ finding "SBD203" Warning ~subterm:(R.to_string x)
                   ~replacement:(R.to_string rest)
                   "alternation branch proved empty: it can be removed" ]
             | (O_witness _ | O_unknown), _ -> (
               match C.subset ~budget:slice ~deadline csession x rest with
               | C.Proved ->
                 [ finding "SBD205" Warning ~subterm:(R.to_string x)
                     ~replacement:(R.to_string rest)
                     "alternation branch is contained in the union of \
                      the other branches: it is redundant" ]
               | C.Refuted _ | C.Unknown _ -> []))
           xs)
    | And xs when List.length xs <= branch_limit ->
      let slice = max 64 (budget / List.length xs) in
      List.concat
        (List.mapi
           (fun i (x : R.t) ->
             let rest = R.inter_list (rest_of xs i) in
             match explore ~budget:slice ~deadline (R.compl x) with
             | O_empty, _ ->
               [ finding "SBD204" Warning ~subterm:(R.to_string x)
                   ~replacement:(R.to_string rest)
                   "intersection conjunct proved universal: it can be \
                    removed" ]
             | (O_witness _ | O_unknown), _ -> (
               match C.subset ~budget:slice ~deadline csession rest x with
               | C.Proved ->
                 [ finding "SBD206" Warning ~subterm:(R.to_string x)
                     ~replacement:(R.to_string rest)
                     "intersection conjunct is entailed by the other \
                      conjuncts: it is redundant" ]
               | C.Refuted _ | C.Unknown _ -> []))
           xs)
    | Pred _ | Eps | Concat _ | Star _ | Loop _ | Not _ | Or _ | And _ -> []

  (* ------------------------------------------------------------------ *)
  (* Hints                                                               *)
  (* ------------------------------------------------------------------ *)

  type risk = Low | Moderate | High

  let risk_name = function
    | Low -> "low"
    | Moderate -> "moderate"
    | High -> "high"

  type hints = {
    risk : risk;
    max_states : int;  (** suggested lazy-DFA state cap *)
    memo_cap : int;  (** suggested derivative memo-table cap *)
    byte_mode_ok : bool;
        (** ASCII-only predicates: Byte and Utf8 engine modes agree *)
    prefer_engine : bool;
        (** route membership to the byte engine rather than the
            derivative matcher *)
    solve_budget : int;  (** suggested solver expansion budget *)
  }

  (* Mirrors Sbd_engine.Dfa.default_max_states; lib/analysis sits below
     lib/engine in the dependency order, so the constant is repeated
     here (test_analysis checks they stay in sync). *)
  let default_max_states = 10_000

  let risk_of (m : metrics) : risk =
    if m.counter_under_compl || m.and_counter_branches >= 2 then High
    else
      match m.fragment with
      | Ext_re -> Moderate
      | Plain_re | Bool_re -> Low

  let clamp lo hi v = max lo (min hi v)

  let base_max_states (m : metrics) (risk : risk) : int =
    match risk with
    | Low ->
      (* Theorem 7.3: at most [unfolded + 1] derivatives.  4x slack
         covers the engine's unanchored variant (.* r), the backward
         pass, and UTF-8 byte expansion. *)
      let bound =
        match m.state_bound with Some b -> b | None -> m.unfolded + 1
      in
      clamp 256 default_max_states ((4 * bound) + 64)
    | Moderate -> default_max_states
    | High ->
      (* A reset throws away the whole cache; give blowup-prone
         patterns headroom before thrashing. *)
      32_768

  (* Abstraction-tightened state cap: a finite abstract maximum word
     length [M] bounds the depth of any anchored run at [M] characters
     (the engine additionally runs an unanchored [.*r] variant and a
     backward pass, covered by the per-depth slack factor), so the lazy
     DFA cannot usefully populate more cache than a few states per
     reachable depth. *)
  let abs_state_cap (m : metrics) : int option =
    match m.abs.Ab.len.Ab.lmax with
    | Some mx when m.abs.Ab.empty <> Ab.Empty ->
      Some (clamp 256 default_max_states ((64 * (mx + 1)) + 64))
    | _ -> None

  let hints_of (m : metrics) : hints =
    let risk = risk_of m in
    let max_states =
      let base = base_max_states m risk in
      match abs_state_cap m with
      | Some cap -> min base cap
      | None -> base
    in
    { risk
    ; max_states
    ; memo_cap = (match risk with High -> 400_000 | Low | Moderate -> 200_000)
    ; byte_mode_ok = m.ascii_only
    ; prefer_engine = (match risk with High -> false | Low | Moderate -> true)
    ; solve_budget =
        (match risk with
        | Low -> 50_000
        | Moderate -> 200_000
        | High -> 1_000_000) }

  (* ------------------------------------------------------------------ *)
  (* Layer 1.5: abstract-domain lints (SBD401-SBD408)                    *)
  (* ------------------------------------------------------------------ *)

  (** Lints fed by the {!Sbd_absdom.Absdom} sweep: O(|r|) like the
      structural rules, but semantic like Layer 2 — every Error below is
      a theorem of the abstraction.  SBD401/402 classify a root
      emptiness proof by the domain that found the conflict; SBD403/404
      flag collapsed counters and infeasible intersections on subterms;
      SBD405-407 surface length facts; SBD408 prunes abstractly dead
      alternation branches (the O(|r|) sibling of SBD203). *)
  let lint_abstract (r : R.t) (m : metrics) : finding list =
    let out = ref [] in
    let add f = out := f :: !out in
    let s = m.abs in
    let pp_bound = function Some b -> string_of_int b | None -> "inf" in
    (* root emptiness, classified by conflicting domain; SBD101/102
       already cover the syntactic cases *)
    if s.Ab.empty = Ab.Empty && (not (R.is_empty r)) && not (cheap_empty r)
    then begin
      if Ab.char_conflict s.Ab.chars then
        add
          (finding "SBD402" Error
             "pattern is unsatisfiable: a required character class is \
              disjoint from the characters the pattern can contain")
      else
        add
          (finding "SBD401" Error
             (Printf.sprintf
                "pattern is unsatisfiable by length abstraction: accepted \
                 word lengths would need min %d, max %s (period %d)"
                s.Ab.len.Ab.lmin
                (pp_bound s.Ab.len.Ab.lmax)
                s.Ab.len.Ab.stride))
    end;
    (* subterm rules: one DAG walk *)
    let seen : (int, unit) Hashtbl.t = Hashtbl.create 64 in
    let rec walk (x : R.t) ~top =
      if not (Hashtbl.mem seen x.R.id) then begin
        Hashtbl.add seen x.R.id ();
        (match x.R.node with
        | Loop (a, lo, hi) when lo >= 1 ->
          let sa = Ab.summarize a in
          if sa.Ab.empty = Ab.Empty && not (cheap_empty x) then
            add
              (finding "SBD403" Warning ~subterm:(R.to_string x)
                 "counted repetition of an abstractly empty language: \
                  the counter range collapses to nothing")
          else if sa.Ab.len.Ab.lmax = Some 0 && (hi <> Some lo || lo > 1)
          then
            add
              (finding "SBD403" Warning ~subterm:(R.to_string x)
                 "counted repetition collapses: its body only matches \
                  the empty word, so the bounds are vacuous")
        | And _ ->
          let sx = Ab.summarize x in
          if
            (not (Ab.feasible sx.Ab.len))
            && (not (cheap_empty x))
            && not (Ab.char_conflict sx.Ab.chars)
          then
            if top then
              add
                (finding "SBD404" Warning ~subterm:(R.to_string x)
                   ~replacement:"~(.*)"
                   "intersection imposes incompatible length constraints: \
                    the whole pattern is equivalent to the empty language")
            else
              add
                (finding "SBD404" Warning ~subterm:(R.to_string x)
                   "intersection imposes incompatible length constraints \
                    on its conjuncts")
        | Pred _ | Eps | Concat _ | Star _ | Loop _ | Or _ | Not _ -> ());
        match x.R.node with
        | Pred _ | Eps -> ()
        | Concat (a, b) ->
          walk a ~top:false;
          walk b ~top:false
        | Star a | Loop (a, _, _) | Not a -> walk a ~top:false
        | Or xs | And xs -> List.iter (fun y -> walk y ~top:false) xs
      end
    in
    walk r ~top:true;
    if s.Ab.empty <> Ab.Empty then begin
      (* length-bounded star: the iteration count is capped anyway *)
      (match s.Ab.len.Ab.lmax with
      | Some mx when m.star_height >= 1 ->
        add
          (finding "SBD405" Info
             (Printf.sprintf
                "the overall length bound caps every starred subterm at \
                 %d iterations: a counted repetition {0,%d} would make \
                 the bound explicit"
                mx mx))
      | Some _ | None -> ());
      (* exact-length patterns, when the exactness is computed rather
         than spelled out *)
      (match (s.Ab.len.Ab.lmin, s.Ab.len.Ab.lmax) with
      | lo, Some hi
        when lo = hi && lo >= 2 && (m.n_loop >= 1 || m.n_and >= 1) ->
        add
          (finding "SBD407" Info
             (Printf.sprintf
                "every accepted word has exactly length %d" lo))
      | _ -> ());
      (* abstraction-tightened engine cap *)
      match abs_state_cap m with
      | Some cap when cap < base_max_states m (risk_of m) ->
        add
          (finding "SBD406" Info
             (Printf.sprintf
                "abstract length bound tightens the suggested lazy-DFA \
                 state cap to %d (structural suggestion: %d)"
                cap
                (base_max_states m (risk_of m))))
      | Some _ | None -> ()
    end;
    (* abstractly dead alternation branches at the root *)
    (match r.R.node with
    | Or xs ->
      List.iteri
        (fun i (x : R.t) ->
          let sx = Ab.summarize x in
          if sx.Ab.empty = Ab.Empty && not (cheap_empty x) then
            let rest =
              R.alt_list (List.filteri (fun j _ -> j <> i) xs)
            in
            add
              (finding "SBD408" Warning ~subterm:(R.to_string x)
                 ~replacement:(R.to_string rest)
                 "alternation branch is abstractly empty: it can be \
                  removed"))
        xs
    | Pred _ | Eps | Concat _ | Star _ | Loop _ | And _ | Not _ -> ());
    List.rev !out

  (* ------------------------------------------------------------------ *)
  (* Reports                                                             *)
  (* ------------------------------------------------------------------ *)

  type report = {
    source : string option;
    metrics : metrics;
    findings : finding list;
    semantic : semantic option;  (** [None] when Layer 2 was skipped *)
    hints : hints;
  }

  let analyze ?source ?(layer2 = true) ?(budget = default_budget)
      ?(deadline = Obs.Deadline.none) (r : R.t) : report =
    Obs.Counter.incr c_runs;
    let m = metrics_of r in
    let structural = lint_structural ?source r m @ lint_abstract r m in
    let semantic, sem_findings =
      if not layer2 then (None, [])
      else begin
        let sem = semantic_of ~budget ~deadline r in
        let extra =
          (match sem.empty with
          | Proved when not (cheap_empty r) ->
            [ finding "SBD201" Error
                (Printf.sprintf
                   "language proved empty by derivative-graph \
                    exploration (%d expansions)"
                   sem.expansions) ]
          | Proved | Refuted | Unknown -> [])
          @
          match sem.universal with
          | Proved ->
            [ finding "SBD202" Info
                "language proved universal: the pattern matches every \
                 string" ]
          | Refuted | Unknown -> []
        in
        let suggestions =
          (* don't bother suggesting branch removals on a pattern whose
             overall verdict is already conclusive *)
          match sem.empty with
          | Proved -> []
          | Refuted | Unknown -> lint_semantic ~budget ~deadline r
        in
        (Some sem, extra @ suggestions)
      end
    in
    let findings = structural @ sem_findings in
    { source; metrics = m; findings; semantic; hints = hints_of m }

  let severity_rank = function Error -> 2 | Warning -> 1 | Info -> 0

  let max_severity (fs : finding list) : severity option =
    List.fold_left
      (fun acc f ->
        match acc with
        | None -> Some f.severity
        | Some s ->
          Some (if severity_rank f.severity > severity_rank s then f.severity else s))
      None fs

  (* -- JSON ----------------------------------------------------------- *)

  let json_of_word (w : int list) : J.t =
    let buf = Buffer.create 16 in
    List.iter
      (fun c ->
        if c >= 0x20 && c <= 0x7E then Buffer.add_char buf (Char.chr c)
        else Buffer.add_string buf (Printf.sprintf "\\u{%04X}" c))
      w;
    J.Str (Buffer.contents buf)

  let json_of_metrics (m : metrics) : J.t =
    J.Obj
      [ ("size", J.Int m.size)
      ; ("star_height", J.Int m.star_height)
      ; ("compl_depth", J.Int m.compl_depth)
      ; ("n_or", J.Int m.n_or)
      ; ("n_and", J.Int m.n_and)
      ; ("n_not", J.Int m.n_not)
      ; ("n_loop", J.Int m.n_loop)
      ; ("n_pred", J.Int m.n_pred)
      ; ("distinct_preds", J.Int m.distinct_preds)
      ; ("minterms", J.Int m.minterms)
      ; ("minterms_exact", J.Bool m.minterms_exact)
      ; ("unfolded", J.Int m.unfolded)
      ; ("max_counter", J.Int m.max_counter)
      ; ("counter_under_compl", J.Bool m.counter_under_compl)
      ; ("and_counter_branches", J.Int m.and_counter_branches)
      ; ("ascii_only", J.Bool m.ascii_only)
      ; ("nullable", J.Bool m.nullable)
      ; ("fragment", J.Str (fragment_name m.fragment))
      ; ( "state_bound",
          match m.state_bound with None -> J.Null | Some b -> J.Int b )
      ; ("difficulty", J.Float (difficulty m))
      ; ( "lengths",
          J.Obj
            [ ("min", J.Int m.abs.Ab.len.Ab.lmin)
            ; ( "max",
                match m.abs.Ab.len.Ab.lmax with
                | None -> J.Null
                | Some b -> J.Int b )
            ; ("period", J.Int m.abs.Ab.len.Ab.stride)
            ; ( "empty",
                J.Str
                  (match m.abs.Ab.empty with
                  | Ab.Empty -> "empty"
                  | Ab.Nonempty -> "nonempty"
                  | Ab.Maybe_empty -> "unknown") ) ] )
      ; ( "chars",
          J.Obj
            [ ( "possible",
                J.Str (Format.asprintf "%a" A.pp m.abs.Ab.chars.Ab.possible)
              )
            ; ( "required",
                J.Arr
                  (List.map
                     (fun p -> J.Str (Format.asprintf "%a" A.pp p))
                     m.abs.Ab.chars.Ab.required) )
            ; ( "required_disjoint",
                J.Int (Ab.disjoint_count m.abs.Ab.chars.Ab.required) ) ] ) ]

  let json_of_finding (f : finding) : J.t =
    J.Obj
      [ ("rule", J.Str f.rule)
      ; ("severity", J.Str (severity_name f.severity))
      ; ("message", J.Str f.message)
      ; ( "subterm",
          match f.subterm with None -> J.Null | Some s -> J.Str s )
      ; ( "replacement",
          match f.replacement with None -> J.Null | Some s -> J.Str s ) ]

  let json_of_semantic (s : semantic) : J.t =
    J.Obj
      [ ("empty", J.Str (verdict_name s.empty))
      ; ("universal", J.Str (verdict_name s.universal))
      ; ( "witness",
          match s.witness with None -> J.Null | Some w -> json_of_word w )
      ; ( "counterexample",
          match s.counterexample with
          | None -> J.Null
          | Some w -> json_of_word w )
      ; ("expansions", J.Int s.expansions)
      ; ("complete", J.Bool s.complete) ]

  let json_of_hints (h : hints) : J.t =
    J.Obj
      [ ("risk", J.Str (risk_name h.risk))
      ; ("max_states", J.Int h.max_states)
      ; ("memo_cap", J.Int h.memo_cap)
      ; ("byte_mode_ok", J.Bool h.byte_mode_ok)
      ; ("prefer_engine", J.Bool h.prefer_engine)
      ; ("solve_budget", J.Int h.solve_budget) ]

  let json_of_report (r : report) : J.t =
    J.Obj
      [ ( "pattern",
          match r.source with None -> J.Null | Some s -> J.Str s )
      ; ("metrics", json_of_metrics r.metrics)
      ; ("findings", J.Arr (List.map json_of_finding r.findings))
      ; ( "semantic",
          match r.semantic with
          | None -> J.Null
          | Some s -> json_of_semantic s )
      ; ("hints", json_of_hints r.hints) ]

  (* -- human-readable rendering --------------------------------------- *)

  let pp_finding ppf (f : finding) =
    Format.fprintf ppf "%s %s: %s" f.rule (severity_name f.severity)
      f.message;
    (match f.subterm with
    | None -> ()
    | Some s -> Format.fprintf ppf "  [in: %s]" s);
    match f.replacement with
    | None -> ()
    | Some s -> Format.fprintf ppf "  [suggest: %s]" s

  let pp_report ppf (r : report) =
    let m = r.metrics in
    Format.fprintf ppf
      "fragment %s  size %d  star-height %d  compl-depth %d  preds \
       %d/%d distinct  unfolded %d"
      (fragment_name m.fragment) m.size m.star_height m.compl_depth
      m.n_pred m.distinct_preds m.unfolded;
    (match m.state_bound with
    | Some b -> Format.fprintf ppf "  state-bound %d" b
    | None -> ());
    Format.fprintf ppf "  lengths %a" Ab.pp_len m.abs.Ab.len;
    Format.fprintf ppf "@\n";
    (match r.semantic with
    | None -> ()
    | Some s ->
      Format.fprintf ppf
        "semantic: empty=%s universal=%s (%d expansions%s)@\n"
        (verdict_name s.empty) (verdict_name s.universal) s.expansions
        (if s.complete then "" else ", incomplete"));
    let h = r.hints in
    Format.fprintf ppf
      "hints: risk=%s max_states=%d memo_cap=%d byte_mode_ok=%b \
       prefer_engine=%b solve_budget=%d@\n"
      (risk_name h.risk) h.max_states h.memo_cap h.byte_mode_ok
      h.prefer_engine h.solve_budget;
    match r.findings with
    | [] -> Format.fprintf ppf "no findings@\n"
    | fs ->
      List.iter (fun f -> Format.fprintf ppf "%a@\n" pp_finding f) fs

  (** Cache-pressure accounting for the analyzer's own tables: the
      structural scan memos and its containment session.  The shared
      derivative tower and abstract domain below are counted and
      cleared by their owner. *)
  let memo_entries () =
    Hashtbl.length scan_memo + Hashtbl.length cheap_empty_memo
    + C.memo_entries csession

  let clear () =
    Hashtbl.reset scan_memo;
    Hashtbl.reset cheap_empty_memo;
    C.clear csession
end
