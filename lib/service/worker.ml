(** A solver worker: one freshly instantiated solver tower.

    The memo tables of the tower and the hash-cons / operation caches
    of the BDD algebra are mutable state scoped to a functor
    application, so parallel workers must not share them.  {!create}
    applies {!Default.Make} over a generative [Sbd_alphabet.Bdd.Make ()]
    per call and packs the result as a first-class module: each pool
    domain calls [create] once and owns every piece of mutable solver
    state it touches.  One [Deriv.Make] and one [Absdom.Make] serve
    every op of the worker, and {!WORKER.relieve_pressure} clears all
    their memos at once.

    Cache keys: queries are keyed by the digest of a {e canonical}
    rendering of the parsed (hash-consed, similarity-normalized) regex
    in which the children of [Or]/[And] are sorted lexicographically,
    so the key is independent of hash-cons id assignment and therefore
    identical across workers — [a|b] and [b|a] share one cache line,
    as do any two queries equal modulo the paper's similarity
    relation. *)

module Obs = Sbd_obs.Obs

let c_queries = Obs.Counter.make "service.worker.queries"
let c_memo_clears = Obs.Counter.make "service.worker.memo_clears"

module type WORKER = sig
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
  (** Cache-pressure gauge: entries across every memo of the tower
      ({!Default.Make.memo_entries}). *)

  val relieve_pressure : unit -> bool
  (** Clear every memo of the tower if {!memo_entries} exceeds the
      worker's cap; returns whether a clear happened. *)

  val queries : unit -> int
end

let create ?(memo_cap = 200_000) () : (module WORKER) =
  let module B = Sbd_alphabet.Bdd.Make () in
  let module T = Default.Make (Sbd_regex.Regex.Make (B)) in
  let open T in
  (module struct
    let session = S.create_session ()
    let nqueries = ref 0

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

    let memo_entries = T.memo_entries

    let relieve_pressure () =
      if T.memo_entries () > memo_cap then begin
        T.clear ();
        Obs.Counter.incr c_memo_clears;
        true
      end
      else false

    let solve_regex ?deadline ?(budget = 1_000_000) r =
      incr nqueries;
      Obs.Counter.incr c_queries;
      let res = S.solve ~budget ?deadline session r in
      let stats = S.session_stats session in
      ignore (relieve_pressure ());
      (verdict_of res, stats)

    let solve_pattern ?deadline ?budget pat =
      Result.map (solve_regex ?deadline ?budget) (parse pat)

    let solve_conj ?deadline ?budget pats =
      Result.map (solve_regex ?deadline ?budget) (parse_conj pats)

    let contain_pattern ?deadline ?(budget = C.default_budget) ~equiv left
        right =
      match (parse left, parse right) with
      | Error msg, _ | _, Error msg -> Error msg
      | Ok l, Ok r ->
        incr nqueries;
        Obs.Counter.incr c_queries;
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
        let stats = C.session_stats T.csession in
        ignore (relieve_pressure ());
        Ok (verdict, stats)

    let run_smt2 ?deadline ?(budget = 1_000_000) script =
      incr nqueries;
      Obs.Counter.incr c_queries;
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
        ignore (relieve_pressure ());
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
      incr nqueries;
      Obs.Counter.incr c_queries;
      Result.map
        (fun t ->
          match LR.to_plain t with
          | Some r ->
            let deadline = Option.map Obs.Deadline.of_seconds deadline in
            let report = An.analyze ~source:pat ?budget ?deadline r in
            ignore (relieve_pressure ());
            An.json_of_report report
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
      incr nqueries;
      Obs.Counter.incr c_queries;
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

    let queries () = !nqueries
  end)
