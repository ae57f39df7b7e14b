(** A solver worker: a sequence of solver towers, one per generation.

    The memo tables of the tower, its hash-cons and intern tables, and
    the hash-cons / operation caches of the BDD algebra are mutable
    state scoped to a functor application, so parallel workers must not
    share them.  A {e generation} ({!generation}) applies
    {!Default.Make} over a generative [Sbd_alphabet.Bdd.Make ()] and
    packs the result as a first-class module.  Each pool domain calls
    {!create} once; the worker it gets forwards every op to its current
    generation and owns every piece of mutable solver state it touches.

    After every op the worker reads the generation's pressure gauge, in
    O(1): memo entries plus the terms interned since the generation
    began.  Past [memo_cap] it drops the whole tower — memos, intern
    tables, BDD node tables, compiled engines — and starts the next
    generation.  Only plain data (verdicts, witnesses, cache keys)
    leaves a generation, so nothing the service holds refers to a
    retired tower.

    Cache keys: queries are keyed by the digest of a {e canonical}
    rendering of the parsed (hash-consed, similarity-normalized) regex
    in which the children of [Or]/[And] are sorted lexicographically,
    so the key is independent of hash-cons id assignment and therefore
    identical across workers and generations — [a|b] and [b|a] share
    one cache line, as do any two queries equal modulo the paper's
    similarity relation. *)

module Obs = Sbd_obs.Obs

let c_queries = Obs.Counter.make "service.worker.queries"
let c_memo_clears = Obs.Counter.make "service.worker.memo_clears"

(** The ops of one generation. *)
module type GENERATION = sig
  val solve_pattern :
    ?deadline:float ->
    ?budget:int ->
    string ->
    (Protocol.verdict * (string * float) list, string) result
  (** Decide one ERE pattern; [Error] is a parse error.  The stats list
      is the per-query [session_stats] snapshot. *)

  val solve_conj :
    ?deadline:float ->
    ?budget:int ->
    string list ->
    (Protocol.verdict * (string * float) list, string) result
  (** Decide the intersection of the given patterns (the session
      [check] operation); the empty conjunction is [.*] (sat). *)

  val run_smt2 :
    ?deadline:float ->
    ?budget:int ->
    string ->
    ((string * string option) list * string, string) result
  (** Evaluate an SMT-LIB script: per-[check-sat] (status, reason)
      pairs plus the printed output. *)

  val match_input :
    ?deadline:float ->
    pattern:string ->
    input:string ->
    unit ->
    (Protocol.match_verdict * (string * float) list, string) result
  (** Match [input] (UTF-8 bytes, decoded lossily) against [pattern]
      with the byte-level engine ({!Sbd_engine}): full-match flag plus
      leftmost-earliest span in byte offsets.  Engines are cached per
      pattern within the worker.  A deadline expiry yields
      [Ok (Match_unknown "deadline", _)]; [Error] is a parse error.
      The stats list reports engine state/reset gauges.

      The pattern grammar is the {e extended} one
      ({!Sbd_locregex.Locparser}): ['^']/['$'] anchors and lookarounds
      route to the location-aware engine ({!Sbd_engine.Locmatch}).
      That engine reports the earliest match {e end} but no span start;
      located verdicts carry [span = None] (the located engine does not
      recover start positions) and report the earliest match end in the
      verdict's [found_end] field, mirrored as the
      ["locmatch.found_end"] stat (-1 = no match). *)

  val match_ref :
    pattern:string -> input:string -> (bool * (int * int) option) option
  (** Independent reference for {!match_input} verdicts: decodes the
      input the same way, then asks {!Sbd_classic.Refmatch} for the
      full-match flag and (by brute-force enumeration over scalar
      boundaries) the leftmost-earliest span.  Exponential in the input
      length — test-sized inputs only.  [None] on parse error. *)

  val contain_pattern :
    ?deadline:float ->
    ?budget:int ->
    equiv:bool ->
    string ->
    string ->
    (Protocol.verdict * (string * float) list, string) result
  (** Decide containment (or, with [equiv], language equality) of two
      ERE patterns with the coinductive pair prover ({!Sbd_contain}).
      The verdict reuses the solver shape via the emptiness-reduction
      view: [Unsat] = proved, [Sat] = refuted with the distinguishing
      word as witness.  [budget] bounds pair expansions (not der-rule
      applications); [Error] is a parse error. *)

  val cache_key : string -> (string, string) result
  (** Digest of the canonical form of the pattern (worker-independent,
      see above); [Error] is a parse error. *)

  val conj_cache_key : string list -> (string, string) result

  val contain_cache_key :
    equiv:bool -> string -> string -> (string, string) result
  (** Cache key of a containment query: digest over the op tag and the
      canonical forms of both sides.  For [equiv] the two renderings are
      sorted first, so the key — hence the shared LRU line — is
      canonical under argument order. *)

  val check_witness : ?ref_limit:int -> string -> int list -> bool option
  (** Validate a witness against the pattern.  Witnesses up to
      [ref_limit] code points (default 64) go through the independent
      reference matcher, whose DP is cubic in the word length; longer
      ones fall back to the linear derivative matcher, which solver
      witnesses for counting-heavy patterns (thousands of code points)
      would otherwise stall on.  [None] on parse error. *)

  val analyze_pattern :
    ?deadline:float ->
    ?budget:int ->
    string ->
    (Sbd_obs.Obs.Json.t, string) result
  (** Run the static analyzer ({!Sbd_analysis.Analyze}) on a pattern:
      structural metrics, lint findings, budgeted sound
      emptiness/universality verdicts, and routing hints, as the
      analyzer's JSON report.  [budget] bounds Layer-2 state
      expansions (default 2000); [Error] is a parse error.

      Extended patterns (anchors/lookarounds) are analyzed by the
      located analyzer ({!Sbd_analysis.Locanalyze}) instead — its JSON
      report (fragment, degenerate-lookaround and dead-anchor findings,
      lowered form) has a different shape, distinguished by its
      ["zero_width"] field. *)

  val engine_max_states : string -> (int, string) result
  (** The analyzer-chosen engine state cap for the pattern — the cap
      {!match_input}'s cached engine is (or will be) created with.
      Exposed so tests can observe that hints steer worker behavior. *)

  val memo_entries : unit -> int
  (** Cache-pressure gauge, O(1): entries across every memo of the tower
      ({!Default.Make.memo_entries}) plus the terms it interned
      ({!Default.Make.interned}), both counted from the generation's
      start. *)
end

module type WORKER = sig
  include GENERATION

  val relieve_pressure : unit -> bool
  (** Retire the current generation and start the next one if
      {!memo_entries} exceeds the worker's cap; returns whether it did.
      Every op ends with this check. *)

  val queries : unit -> int
  (** Ops run, across generations. *)
end

let generation () : (module GENERATION) =
  let module B = Sbd_alphabet.Bdd.Make () in
  let module T = Default.Make (Sbd_regex.Regex.Make (B)) in
  let open T in
  (module struct
    let session = S.create_session ()

    let parse pat =
      match P.parse pat with
      | Ok r -> Ok r
      | Error (pos, msg) ->
        Error (Printf.sprintf "parse error at %d: %s" pos msg)

    (* Extended grammar (anchors, lookarounds) for the match/analyze
       workloads; the solver workloads stay on the plain grammar, whose
       corpora treat '^'/'$' as literals. *)
    let parse_ext pat =
      match LP.parse pat with
      | Ok t -> Ok t
      | Error (pos, msg) ->
        Error (Printf.sprintf "parse error at %d: %s" pos msg)

    (* Canonical, instantiation-independent rendering (see header). *)
    let rec canon (r : R.t) : string =
      match r.R.node with
      | R.Pred p ->
        let range (lo, hi) =
          if lo = hi then string_of_int lo else Printf.sprintf "%d-%d" lo hi
        in
        "[" ^ String.concat "," (List.map range (B.ranges p)) ^ "]"
      | R.Eps -> "e"
      | R.Concat (a, b) -> "(" ^ canon a ^ "." ^ canon b ^ ")"
      | R.Star a -> canon a ^ "*"
      | R.Loop (a, m, n) ->
        Printf.sprintf "%s{%d,%s}" (canon a) m
          (match n with None -> "" | Some k -> string_of_int k)
      | R.Or xs ->
        "(" ^ String.concat "|" (List.sort compare (List.map canon xs)) ^ ")"
      | R.And xs ->
        "(" ^ String.concat "&" (List.sort compare (List.map canon xs)) ^ ")"
      | R.Not a -> "~" ^ canon a

    let key_of_regex r = Digest.to_hex (Digest.string (canon r))

    let cache_key pat = Result.map key_of_regex (parse pat)

    let parse_conj pats =
      let rec go acc = function
        | [] -> Ok (R.inter_list (List.rev acc))
        | p :: rest -> (
          match parse p with
          | Ok r -> go (r :: acc) rest
          | Error msg -> Error msg)
      in
      go [ R.full ] pats

    let conj_cache_key pats = Result.map key_of_regex (parse_conj pats)

    let contain_cache_key ~equiv left right =
      match (parse left, parse right) with
      | Error msg, _ | _, Error msg -> Error msg
      | Ok l, Ok r ->
        let cl = canon l and cr = canon r in
        (* equiv is symmetric: sort the renderings so both argument
           orders land on the same LRU line *)
        let cl, cr = if equiv && cr < cl then (cr, cl) else (cl, cr) in
        let tag = if equiv then "equiv" else "subset" in
        Ok
          (Digest.to_hex
             (Digest.string (tag ^ "\x00" ^ cl ^ "\x00" ^ cr)))

    let verdict_of = function
      | S.Sat w ->
        Protocol.Sat { witness = S.string_of_witness w; codepoints = w }
      | S.Unsat -> Protocol.Unsat
      | S.Unknown why -> Protocol.Unknown why

    let pressure () = T.memo_entries () + T.interned ()
    let born = pressure ()
    let memo_entries () = pressure () - born

    let solve_regex ?deadline ?(budget = 1_000_000) r =
      let res = S.solve ~budget ?deadline session r in
      (verdict_of res, S.session_stats session)

    let solve_pattern ?deadline ?budget pat =
      Result.map (solve_regex ?deadline ?budget) (parse pat)

    let solve_conj ?deadline ?budget pats =
      Result.map (solve_regex ?deadline ?budget) (parse_conj pats)

    let contain_pattern ?deadline ?(budget = C.default_budget) ~equiv left
        right =
      match (parse left, parse right) with
      | Error msg, _ | _, Error msg -> Error msg
      | Ok l, Ok r ->
        let deadline = Option.map Obs.Deadline.of_seconds deadline in
        let res =
          if equiv then C.equiv ~budget ?deadline T.csession l r
          else C.subset ~budget ?deadline T.csession l r
        in
        let verdict =
          match res with
          | C.Proved -> Protocol.Unsat
          | C.Refuted w ->
            Protocol.Sat { witness = S.string_of_witness w; codepoints = w }
          | C.Unknown why -> Protocol.Unknown why
        in
        Ok (verdict, C.session_stats T.csession)

    let run_smt2 ?deadline ?(budget = 1_000_000) script =
      match E.run ~budget ?deadline script with
      | result ->
        let answers =
          List.map
            (fun (o : E.outcome) ->
              match o with
              | E.Sat _ -> ("sat", None)
              | E.Unsat -> ("unsat", None)
              | E.Unknown why -> ("unknown", Some why))
            result.E.outcomes
        in
        Ok (answers, result.E.output)
      | exception E.Unsupported what -> Error ("unsupported: " ^ what)

    (* -- the match workload ------------------------------------------- *)

    (* Compiled engines are cached per pattern string; the cap bounds
       worker memory on adversarial pattern churn (reset is cheap — the
       engine recompiles lazily). *)
    let engines : (string, Eng.t) Hashtbl.t = Hashtbl.create 16
    let engine_cap = 64

    (* Located engines are cached separately: same cap, same churn
       bound.  A pattern lands in exactly one of the two tables. *)
    let loc_engines : (string, LM.t) Hashtbl.t = Hashtbl.create 16

    let loc_engine_for pat (t : LR.t) : LM.t =
      match Hashtbl.find_opt loc_engines pat with
      | Some e -> e
      | None ->
        if Hashtbl.length loc_engines >= engine_cap then
          Hashtbl.reset loc_engines;
        let e = LM.create ~mode:Sbd_engine.Byteclass.Utf8 t in
        Hashtbl.add loc_engines pat e;
        e

    (* Engine state caps come from the structural analyzer: a tight cap
       (Theorem 7.3 bound with slack) for linear-fragment patterns, the
       default for general EREs, and extra headroom for blowup-prone
       shapes where a reset would thrash. *)
    let cap_for r = (An.hints_of (An.metrics_of r)).An.max_states

    let engine_for pat : (Eng.t, string) result =
      match Hashtbl.find_opt engines pat with
      | Some e -> Ok e
      | None ->
        Result.map
          (fun r ->
            if Hashtbl.length engines >= engine_cap then Hashtbl.reset engines;
            let e =
              Eng.create ~max_states:(cap_for r)
                ~mode:Sbd_engine.Byteclass.Utf8 r
            in
            Hashtbl.add engines pat e;
            e)
          (parse pat)

    let engine_max_states pat =
      match Hashtbl.find_opt engines pat with
      | Some e -> Ok (Eng.max_states e)
      | None -> Result.map cap_for (parse pat)

    let analyze_pattern ?deadline ?budget pat =
      Result.map
        (fun t ->
          match LR.to_plain t with
          | Some r ->
            let deadline = Option.map Obs.Deadline.of_seconds deadline in
            An.json_of_report (An.analyze ~source:pat ?budget ?deadline r)
          | None -> LA.json_of_report (LA.analyze t))
        (parse_ext pat)

    let loc_match_input ~pattern ~input (t : LR.t) =
      let e = loc_engine_for pattern t in
      let res = LM.run e input in
      let f = float_of_int in
      Ok
        ( Protocol.Matched
            { full = res.LM.full; span = None; found_end = res.LM.found_end },
          [
            ("locmatch.atoms", f (LM.num_atoms e));
            ("locmatch.memo_entries", f (LM.memo_entries e));
            ( "locmatch.found_end",
              match res.LM.found_end with None -> -1.0 | Some j -> f j );
          ] )

    let match_input ?deadline ~pattern ~input () =
      match parse_ext pattern with
      | Error msg -> Error msg
      | Ok t when LR.to_plain t = None ->
        loc_match_input ~pattern ~input t
      | Ok _ ->
      match engine_for pattern with
      | Error msg -> Error msg
      | Ok e ->
        let dl = Option.map Obs.Deadline.of_seconds deadline in
        let verdict =
          try
            let full = Eng.matches ?deadline:dl e input in
            let span = Eng.find ?deadline:dl e input in
            Protocol.Matched { full; span; found_end = None }
          with Obs.Deadline_exceeded _ -> Protocol.Match_unknown "deadline"
        in
        let st = Eng.stats e in
        let f = float_of_int in
        Ok
          ( verdict,
            [
              ("engine.classes", f st.Eng.num_classes);
              ("engine.fwd_states", f st.Eng.fwd_states);
              ("engine.unanch_states", f st.Eng.unanch_states);
              ("engine.back_states", f st.Eng.back_states);
              ("engine.resets", f st.Eng.resets);
              (* acceleration gauges: 0 = that fast path is off *)
              ("engine.accel_bytes", f st.Eng.accel_bytes);
              ("engine.back_accel_bytes", f st.Eng.back_accel_bytes);
              ("engine.factor_len", f st.Eng.factor_len);
            ] )

    let match_ref ~pattern ~input =
      match parse pattern with
      | Error _ -> None
      | Ok r ->
        (* Segment the input exactly like the engine: lossy UTF-8
           scalars with their byte offsets. *)
        let n = String.length input in
        let rec seg i offs cps =
          if i >= n then (List.rev (i :: offs), List.rev cps)
          else
            let cp, i' = Sbd_engine.Byteclass.scalar_forward input i n in
            seg i' (i :: offs) (cp :: cps)
        in
        let offs, cps = seg 0 [] [] in
        let offs = Array.of_list offs and cps = Array.of_list cps in
        let k = Array.length cps in
        let full = Ref.matches r (Array.to_list cps) in
        let sub i j = Array.to_list (Array.sub cps i (j - i)) in
        let span = ref None in
        (try
           for i = 0 to k do
             for j = i to k do
               if Ref.matches r (sub i j) then begin
                 span := Some (offs.(i), offs.(j));
                 raise Exit
               end
             done
           done
         with Exit -> ());
        Some (full, !span)

    let check_witness ?(ref_limit = 64) pat w =
      match P.parse pat with
      | Ok r ->
        if List.length w <= ref_limit then Some (Ref.matches r w)
        else Some (S.D.matches r w)
      | Error _ -> None
  end)

let create ?(memo_cap = 200_000) () : (module WORKER) =
  let current = ref (generation ()) in
  let nqueries = ref 0 in
  (module struct
    let memo_entries () =
      let (module G : GENERATION) = !current in
      G.memo_entries ()

    let relieve_pressure () =
      memo_entries () > memo_cap
      && begin
           current := generation ();
           Obs.Counter.incr c_memo_clears;
           true
         end

    (* Every op runs on the current generation and ends with the
       pressure check, so no op grows a generation unchecked. *)
    let op f =
      incr nqueries;
      Obs.Counter.incr c_queries;
      let res = f !current in
      ignore (relieve_pressure ());
      res

    let solve_pattern ?deadline ?budget pat =
      op (fun (module G : GENERATION) -> G.solve_pattern ?deadline ?budget pat)

    let solve_conj ?deadline ?budget pats =
      op (fun (module G : GENERATION) -> G.solve_conj ?deadline ?budget pats)

    let run_smt2 ?deadline ?budget script =
      op (fun (module G : GENERATION) -> G.run_smt2 ?deadline ?budget script)

    let match_input ?deadline ~pattern ~input () =
      op (fun (module G : GENERATION) ->
          G.match_input ?deadline ~pattern ~input ())

    let contain_pattern ?deadline ?budget ~equiv left right =
      op (fun (module G : GENERATION) ->
          G.contain_pattern ?deadline ?budget ~equiv left right)

    let analyze_pattern ?deadline ?budget pat =
      op (fun (module G : GENERATION) -> G.analyze_pattern ?deadline ?budget pat)

    (* Lookups: no op runs, so no check either. *)
    let match_ref ~pattern ~input =
      let (module G : GENERATION) = !current in
      G.match_ref ~pattern ~input

    let cache_key pat =
      let (module G : GENERATION) = !current in
      G.cache_key pat

    let conj_cache_key pats =
      let (module G : GENERATION) = !current in
      G.conj_cache_key pats

    let contain_cache_key ~equiv left right =
      let (module G : GENERATION) = !current in
      G.contain_cache_key ~equiv left right

    let check_witness ?ref_limit pat w =
      let (module G : GENERATION) = !current in
      G.check_witness ?ref_limit pat w

    let engine_max_states pat =
      let (module G : GENERATION) = !current in
      G.engine_max_states pat

    let queries () = !nqueries
  end)
