(** A symbolic regex {e matcher} in the style of SRM (Symbolic Regex
    Matcher, Section 8.5 of the paper).

    Matching is the dual situation to solving: the next character is
    always {e known}, so no transition regexes are needed -- classical
    Brzozowski derivatives apply directly -- and building the minterms of
    the regex's predicates upfront is profitable rather than harmful,
    because every input character can be classified once into a small
    number of equivalence classes.

    The matcher lazily compiles a DFA whose states are derivative regexes
    (hash-consed, so state identity is O(1)) and whose alphabet is the
    minterm set of the pattern: transitions are computed on first use and
    memoized.  This supports full ERE including intersection and
    complement, and amortizes to one array lookup (character
    classification) plus one table lookup per input character. *)

module Make (R : Sbd_regex.Regex.S) = struct
  module A = R.A
  module Brz = Sbd_classic.Brzozowski.Make (R)
  module M = Sbd_alphabet.Minterm.Make (A)
  module Obs = Sbd_obs.Obs

  (* Process-global telemetry across all matcher instances. *)
  let c_compiles = Obs.Counter.make "matcher.compiles"
  let c_states = Obs.Counter.make "matcher.states"
  let c_cache_hit = Obs.Counter.make "matcher.cache_hit"
  let c_cache_miss = Obs.Counter.make "matcher.cache_miss"

  (* A private tower: the matcher reads only the structural hints and
     the abstract length bound, never the derivative memos. *)
  module Ab = Sbd_absdom.Absdom.Make (Sbd_core.Deriv.Make (R))
  module Eng = Sbd_engine.Search.Make (Ab)
  module An = Sbd_analysis.Analyze.Make (Sbd_contain.Contain.Make (Ab))

  type t = {
    pattern : R.t;
    hints : An.hints;
        (** structural-analyzer routing hints, computed at {!create};
            drives the [max_states] cap of the byte engines below *)
    classify : int -> int;  (** code point -> minterm index *)
    representatives : int array;  (** one concrete character per minterm *)
    mutable num_states : int;
    mutable cache_hits : int;  (** delta-table lookups served memoized *)
    mutable cache_misses : int;  (** delta-table lookups that derived *)
    delta : (int * int, R.t) Hashtbl.t;  (** (state id, minterm) -> state *)
    ids : (int, unit) Hashtbl.t;  (** distinct state ids seen (for stats) *)
    mutable engine : Eng.t option;
        (** byte-mode linear-search engine, built on first {!find} /
            {!count_matching_prefixes} *)
    mutable engine_utf8 : Eng.t option;
        (** UTF-8-mode engine, built on first {!matches_utf8} *)
  }

  (** Compile a matcher for [pattern].  The minterm computation is
      [O(2^n)] in the number of distinct predicates in the worst case,
      but patterns in practice have few, mostly-disjoint predicates. *)
  let create (pattern : R.t) : t =
    let minterm_preds = M.minterms (R.preds pattern) in
    (* flatten the minterms into a sorted range table for classification *)
    let ranges =
      List.concat
        (List.mapi
           (fun idx p -> List.map (fun (lo, hi) -> (lo, hi, idx)) (A.ranges p))
           minterm_preds)
    in
    let table = Array.of_list (List.sort compare ranges) in
    let classify (c : int) : int =
      let lo = ref 0 and hi = ref (Array.length table - 1) in
      let result = ref 0 in
      while !lo <= !hi do
        let mid = (!lo + !hi) / 2 in
        let l, h, idx = table.(mid) in
        if c < l then hi := mid - 1
        else if c > h then lo := mid + 1
        else begin
          result := idx;
          lo := !hi + 1
        end
      done;
      !result
    in
    let representatives =
      Array.of_list
        (List.map
           (fun p -> match A.choose p with Some c -> c | None -> 0)
           minterm_preds)
    in
    let ids = Hashtbl.create 16 in
    Hashtbl.add ids pattern.R.id ();
    Obs.Counter.incr c_compiles;
    Obs.Counter.incr c_states;
    {
      pattern;
      hints = An.hints_of (An.metrics_of pattern);
      classify;
      representatives;
      num_states = 1;
      cache_hits = 0;
      cache_misses = 0;
      delta = Hashtbl.create 64;
      ids;
      engine = None;
      engine_utf8 = None;
    }

  (* Both engines take their state cap from the structural analyzer:
     patterns in the linear RE/B(RE) fragment (Theorem 7.3) get a tight
     cap derived from the unfolding bound, blowup-prone ERE shapes get
     extra headroom before a cache reset thrashes. *)
  let engine (m : t) : Eng.t =
    match m.engine with
    | Some e -> e
    | None ->
      let e =
        Eng.create ~max_states:m.hints.An.max_states
          ~mode:Sbd_engine.Byteclass.Byte m.pattern
      in
      m.engine <- Some e;
      e

  let engine_utf8 (m : t) : Eng.t =
    match m.engine_utf8 with
    | Some e -> e
    | None ->
      let e =
        Eng.create ~max_states:m.hints.An.max_states
          ~mode:Sbd_engine.Byteclass.Utf8 m.pattern
      in
      m.engine_utf8 <- Some e;
      e

  (** The lazy-DFA state cap the analyzer picked for this pattern's
      engines (the live consumer of the hint; see {!An.hints_of}). *)
  let engine_max_states (m : t) : int = m.hints.An.max_states

  (* One DFA step: classify the character, then look up / compute the
     derivative by the minterm's representative (sound by Theorem 7.1's
     argument: characters in the same minterm have identical
     derivatives). *)
  let step (m : t) (state : R.t) (c : int) : R.t =
    let mt = m.classify c in
    let key = (state.R.id, mt) in
    match Hashtbl.find_opt m.delta key with
    | Some next ->
      m.cache_hits <- m.cache_hits + 1;
      Obs.Counter.incr c_cache_hit;
      next
    | None ->
      m.cache_misses <- m.cache_misses + 1;
      Obs.Counter.incr c_cache_miss;
      let next = Brz.derive m.representatives.(mt) state in
      Hashtbl.add m.delta key next;
      if not (Hashtbl.mem m.ids next.R.id) then begin
        Hashtbl.add m.ids next.R.id ();
        m.num_states <- m.num_states + 1;
        Obs.Counter.incr c_states
      end;
      next

  (** Full-match of a word against the pattern. *)
  let matches (m : t) (w : int list) : bool =
    R.nullable (List.fold_left (step m) m.pattern w)

  let matches_string (m : t) (s : string) : bool =
    let state = ref m.pattern in
    String.iter (fun c -> state := step m !state (Char.code c)) s;
    R.nullable !state

  (** Historical per-position scan for {!count_matching_prefixes}:
      restarts the DFA at every position, O(n·m).  Kept as a reference
      implementation for differential testing and benchmarking against
      the engine-backed fast path. *)
  let count_matching_prefixes_scan (m : t) (s : string) : int =
    let n = String.length s in
    let count = ref 0 in
    for i = 0 to n - 1 do
      let state = ref m.pattern in
      let j = ref i in
      let hit = ref (R.nullable !state) in
      while (not !hit) && !j < n && not (R.is_empty !state) do
        state := step m !state (Char.code s.[!j]);
        incr j;
        if R.nullable !state then hit := true
      done;
      if !hit then incr count
    done;
    !count

  (** Historical per-position scan for {!find} (leftmost-earliest span),
      O(n·m): restarts the DFA at every start position.  Kept as a
      reference implementation for differential testing and
      benchmarking. *)
  let find_scan (m : t) (s : string) : (int * int) option =
    let n = String.length s in
    let result = ref None in
    let i = ref 0 in
    while !result = None && !i <= n do
      let state = ref m.pattern in
      if R.nullable !state then result := Some (!i, !i)
      else begin
        let j = ref !i in
        while !result = None && !j < n && not (R.is_empty !state) do
          state := step m !state (Char.code s.[!j]);
          incr j;
          if R.nullable !state then result := Some (!i, !j)
        done
      end;
      incr i
    done;
    !result

  (** [count_matching_prefixes m s] counts positions [i] such that some
      prefix of [s.[i..]] matches.  Engine-backed: one linear backward
      pass of the [⊤*·rev(pattern)] DFA instead of a per-position
      restart (see {!Sbd_engine.Search}). *)
  let count_matching_prefixes (m : t) (s : string) : int =
    Eng.count_matching_prefixes (engine m) s

  (** [find m s] returns the span [(start, stop)] of the leftmost-
      earliest substring of [s] matching the pattern ([stop] exclusive),
      or [None].  Matches of the empty word are reported when the
      pattern is nullable.  Engine-backed: at most two linear DFA passes
      instead of the historical O(n·m) per-position restart. *)
  let find (m : t) (s : string) : (int * int) option = Eng.find (engine m) s

  (** Full match of a UTF-8 encoded string: bytes are decoded to code
      points (lossily -- malformed bytes read as U+FFFD) and matched
      against the pattern's code-point alphabet, unlike
      {!matches_string} which treats each byte as a Latin-1 code
      point. *)
  let matches_utf8 (m : t) (s : string) : bool =
    Eng.matches (engine_utf8 m) s

  (** Number of distinct DFA states materialized so far. *)
  let state_count (m : t) = m.num_states

  (** Number of minterms (the compiled alphabet size). *)
  let alphabet_size (m : t) = Array.length m.representatives

  (** [(hits, misses)] of the lazy transition table: misses are the
      derivative computations, hits the amortized fast path. *)
  let cache_stats (m : t) = (m.cache_hits, m.cache_misses)

  (** Machine-readable per-matcher counters, for the stats surface.
      Once a byte engine has been built (first [find]/[count]/
      [matches_utf8]), its acceleration gauges ride along: how many
      skip-loop candidate bytes and how long a required-factor
      prefilter the search runs with (0 = that path is off). *)
  let stats (m : t) : (string * float) list =
    let f = float_of_int in
    let engine_gauges prefix = function
      | None -> []
      | Some e ->
        let st = Eng.stats e in
        [
          (prefix ^ ".accel_bytes", f st.Eng.accel_bytes);
          (prefix ^ ".factor_len", f st.Eng.factor_len);
          (prefix ^ ".resets", f st.Eng.resets);
        ]
    in
    [
      ("matcher.states", f m.num_states);
      ("matcher.alphabet", f (Array.length m.representatives));
      ("matcher.cache_hits", f m.cache_hits);
      ("matcher.cache_misses", f m.cache_misses);
    ]
    @ engine_gauges "matcher.engine" m.engine
    @ engine_gauges "matcher.engine_utf8" m.engine_utf8
end
