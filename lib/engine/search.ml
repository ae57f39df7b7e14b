(** Anchored and unanchored search over the dense lazy DFA.

    Three scan shapes, all linear in the input length:

    - {!matches}: anchored full match, one forward pass;
    - {!contains}: unanchored containment via the forward DFA of
      [⊤*·r] — nullability at position [j] says some match ends at [j],
      so the scan can stop at the {e earliest match end};
    - {!find}: leftmost-earliest span — the same semantics as the
      matcher's quadratic per-position scan — in linear time.  The
      trick is language reversal: running the DFA of [⊤*·rev(r)]
      {e backward} from the end of the input, nullability after
      consuming [s[i..n)] in reverse says [s[i..n)] has a prefix in
      [L(r)], i.e. a match {e starts} at [i].  The minimal such [i] is
      the leftmost start; a forward anchored pass from it finds the
      earliest end.  The backward pass stops as soon as it reaches a
      full state (every earlier position is then a start).  When every
      match spans at most [L] bytes, [find] reads only what its answer
      depends on: a forward [⊤*·r] pass from just before the first
      required-factor occurrence finds the earliest match end [e], and
      the backward pass runs over the window [\[e − L, e + L\]] alone,
      since the leftmost match starts in [\[e − L, e\]].

    All three byte-class tables are shared: [⊤] contributes no new
    predicate and reversal permutes subterms without changing the
    predicate set, so the minterms of [r], [⊤*·r] and [⊤*·rev r]
    coincide.

    {2 The hot path (DESIGN.md §13)}

    There are two scan loops, one forward ({!scan_fwd}, behind
    {!matches}, {!contains} and [find]'s earliest end) and one backward
    ({!backward_scan}, behind [find]'s least start and
    {!count_matching_prefixes}).  Both are block-structured: the
    per-byte path is one byte→class table read plus one flat-table hit
    ([trans.(q * num_classes + cls)], {!Dfa}) plus a one-byte flags
    load, with deadline polling hoisted to block boundaries.  The
    forward loop ends on the first state whose flags meet its stop
    mask — nullable or dead for a search, dead or full for a verdict —
    so that test costs the flags load it already makes.  Two sublinear
    shortcuts sit on top, in the style of RE# (arXiv 2407.20479):

    - {e accelerated states} ({!Dfa}): a state that loops on all but at
      most three bytes, or all but one ASCII range, also ends a block,
      and the scan skips from it to the next exit byte with a
      word-at-a-time search.  The forward loop skips from any such state
      that does not meet its stop mask, nullable or not, since only the
      state it stops on matters.  The backward loop skips from
      non-nullable ones: every nullable position is a match start, and
      {!count_matching_prefixes} counts them all.  [find]'s least start
      needs only the lowest, so there a nullable state skips too.
    - {e required literals} ({!Prefilter}, shared with {!Locmatch}):
      {!Sbd_analysis.Literals} proves a factor every match contains and
      a prefix and suffix it starts and ends with.  If the factor (or
      prefix) does not occur in the input, every entry point answers
      without running any DFA; where they first occur bounds where a
      match can start; an input that lacks the prefix or suffix is no
      full match.  {!full_and_find} takes [full] from the same search
      as the span: a full match starts at 0, so the anchored pass runs
      only when the leftmost span does. *)

let c_compiles = Sbd_obs.Obs.Counter.make "engine.compiles"
let default_max_states = Dfa.default_max_states

(* Stop masks of {!Make.scan_fwd}, over {!Dfa}'s flag bits: a search
   stops at the first match end or once no match can follow, a
   full-match verdict once the state settles it. *)
let stop_match = Dfa.f_nullable lor Dfa.f_dead
let stop_verdict = Dfa.f_dead lor Dfa.f_full
let f_accel = Dfa.f_accel
let f_nullable = Dfa.f_nullable

module Obs = Sbd_obs.Obs

(** Bytes per inner-loop block: the spacing of deadline polls.  Small
    enough that a deadline overrun is bounded by microseconds, large
    enough that the polls vanish from the per-byte path. *)
let block = Dfa.block

module Make (Ab : Sbd_absdom.Absdom.S) = struct
  module R = Ab.D.R
  module Bc = Byteclass.Make (R)
  module Dfa = Dfa.Make (R)
  module Lit = Sbd_analysis.Literals.Make (R)

  type t = {
    pattern : R.t;
    mode : Byteclass.mode;
    bc : Bc.t;
    max_states : int;
    lits : Prefilter.lits;
        (** the required prefix, suffix and factor, as bytes *)
    fwd : Dfa.t;  (** anchored: start = pattern *)
    mutable unanch : Dfa.t option;  (** start = ⊤*·pattern, built lazily *)
    mutable back : Dfa.t option;  (** start = ⊤*·rev pattern, built lazily *)
    abs_min_bytes : int;
        (** abstract length hint: every match spans ≥ this many bytes
            (every code point of the decoded stream — including U+FFFD
            for malformed input — consumes at least one byte, so a
            code-point lower bound is a byte lower bound in both
            modes) *)
    abs_max_bytes : int option;
        (** abstract length hint: an anchored full match spans ≤ this
            many bytes ([lmax] in [Byte] mode where byte = code point;
            [3·lmax] in [Utf8] mode where a code point consumes ≤ 3
            bytes).  [None] = unbounded *)
    mutable scan_bytes : int;
        (** bytes stepped by the DFA scan loops over this engine's
            life (skips and the prefilter excluded) *)
    mutable windows : int;
        (** calls of [find] that took the bounded-length window path *)
    mutable anchored : int;  (** anchored full-match passes run *)
  }

  let create ?(max_states = default_max_states)
      ?(mode = Byteclass.Byte) (pattern : R.t) : t =
    Obs.Counter.incr c_compiles;
    let bc = Bc.compile ~mode pattern in
    let len = (Ab.summarize pattern).Ab.len in
    let abs_min_bytes, abs_max_bytes =
      Prefilter.byte_bounds ~mode ~lmin:len.Ab.lmin ~lmax:len.Ab.lmax
    in
    let lit = Lit.study pattern in
    {
      pattern;
      mode;
      bc;
      max_states;
      lits =
        Prefilter.lits ~mode ~prefix:lit.Lit.prefix ~suffix:lit.Lit.suffix
          ~factor:lit.Lit.factor;
      fwd = Dfa.create ~max_states ~bc ~dir:`Fwd pattern;
      unanch = None;
      back = None;
      abs_min_bytes;
      abs_max_bytes;
      scan_bytes = 0;
      windows = 0;
      anchored = 0;
    }

  let unanchored t =
    match t.unanch with
    | Some d -> d
    | None ->
      let d =
        Dfa.create ~max_states:t.max_states ~bc:t.bc ~dir:`Fwd
          (R.concat R.full t.pattern)
      in
      t.unanch <- Some d;
      d

  let backward t =
    match t.back with
    | Some d -> d
    | None ->
      let d =
        Dfa.create ~max_states:t.max_states ~bc:t.bc ~dir:`Back
          (R.concat R.full (R.rev t.pattern))
      in
      t.back <- Some d;
      d

  (* -- scan loops -------------------------------------------------------- *)

  (* Both loops below are block-structured.  Within a block the fast
     path is fully inlined — byte→class table read, flat-table hit,
     flags byte — with [String.unsafe_get]/[Array.unsafe_get]
     throughout (indices are bounded by the loop guards; state ids come
     from the table itself).  [Dfa.step] can grow or reset the
     transition array, so any slow-path step ends the current block:
     the locally-cached [trans] is refetched at the block boundary.
     Deadline polling lives at block boundaries; the test that ends a
     scan is one flags-byte mask per step, and the same load sends an
     accelerated state back out to the skip at the block boundary. *)

  (** The forward pass: step [dfa] from its start state over
      [s.[pos..limit)] until it enters a state whose {!Dfa} flags meet
      the mask [stop], or reaches [limit].  Returns that state and the
      offset after the scalar that entered it (or [limit]).  The start
      state itself is tested first. *)
  let scan_fwd ?(deadline = Obs.Deadline.none) (t : t) (dfa : Dfa.t)
      ~(stop : int) (s : string) (pos : int) (limit : int) : int * int =
    Dfa.rearm dfa;
    let table = t.bc.Bc.table in
    let nc = dfa.Dfa.num_classes in
    (* a flagged state ends the block: one that meets [stop] also ends
       the scan, an accelerated one goes back out to its skip *)
    let leave = stop lor f_accel in
    let poll = not (Obs.Deadline.is_none deadline) in
    let q = ref Dfa.start_id and p = ref pos in
    let fin =
      ref (Char.code (Bytes.get dfa.Dfa.flags Dfa.start_id) land stop <> 0)
    in
    while (not !fin) && !p < limit do
      if poll then Obs.Deadline.check_now deadline;
      if Char.code (Bytes.get dfa.Dfa.flags !q) land f_accel <> 0 then
        p := Dfa.skip_forward dfa !q s !p limit;
      let p0 = !p in
      let block_end = ref (min limit (!p + block)) in
      let trans = dfa.Dfa.trans in
      let flags = dfa.Dfa.flags in
      while !p < !block_end do
        let cls = Array.unsafe_get table (Char.code (String.unsafe_get s !p)) in
        let tgt =
          if cls >= 0 then Array.unsafe_get trans ((!q * nc) + cls) else -1
        in
        if tgt >= 0 then begin
          q := tgt;
          incr p;
          let f = Char.code (Bytes.unsafe_get flags tgt) in
          if f land leave <> 0 then begin
            if f land stop <> 0 then fin := true;
            block_end := !p
          end
        end
        else begin
          let cls, p' = Bc.next t.bc s !p limit in
          q := Dfa.step dfa !q cls;
          p := p';
          if Char.code (Bytes.get dfa.Dfa.flags !q) land stop <> 0 then fin := true;
          block_end := !p
        end
      done;
      t.scan_bytes <- t.scan_bytes + (!p - p0)
    done;
    (!q, !p)

  (** Full-match verdict of the anchored DFA on [s.[pos..limit)].  The
      scan ends early in a dead state (no extension matches) or a full
      one (every extension matches); full implies nullable and dead
      excludes it, so the verdict is the final state's nullability. *)
  let run_anchored ?deadline (t : t) (s : string) (pos : int) (limit : int) :
      bool =
    let q, _ = scan_fwd ?deadline t t.fwd ~stop:stop_verdict s pos limit in
    Dfa.is_nullable t.fwd q

  (** Forward pass of the [⊤*·r] DFA over [s.[pos..limit)]: byte offset
      just after the first position where some match ends, or [None]. *)
  let first_nullable ?deadline (t : t) (s : string) (pos : int) (limit : int) :
      int option =
    let dfa = unanchored t in
    let q, p = scan_fwd ?deadline t dfa ~stop:stop_match s pos limit in
    if Dfa.is_nullable dfa q then Some p else None

  (** Forward anchored pass from [pos]: earliest [j] with
      [s.[pos..j) ∈ L(pattern)]. *)
  let first_nullable_anchored ?deadline (t : t) (s : string) (pos : int)
      (limit : int) : int option =
    let q, p = scan_fwd ?deadline t t.fwd ~stop:stop_match s pos limit in
    if Dfa.is_nullable t.fwd q then Some p else None

  (** Backward pass of the [⊤*·rev r] DFA over [s.\[lo, hi)], scanning
      scalars right to left; [lo] and [hi] must be scalar starts.
      [on_hit i] is called (in decreasing order of [i]) for every
      position [i] such that a match of [t.pattern] starts at [i] and
      ends by [hi]; positions are scalar starts plus possibly [hi]
      itself (when the pattern is nullable the empty match at [hi] is
      reported first).

      A non-nullable accelerated state skips.  A nullable one passes a
      hit at every scalar start, so it skips only under [least], when
      the caller wants the least hit alone: the hits it passes are then
      reported by the one where it lands.  [least] also ends the scan at
      a step into a full state at [p], reporting [lo]: every scalar
      start in [\[lo, p\]] is then a match start. *)
  let backward_scan ?(deadline = Obs.Deadline.none) ~least (t : t)
      (s : string) ~lo ~hi (on_hit : int -> unit) : unit =
    let dfa = backward t in
    Dfa.rearm dfa;
    let table = t.bc.Bc.table in
    let nc = dfa.Dfa.num_classes in
    let byte_mode = t.mode = Byteclass.Byte in
    if Dfa.is_nullable dfa Dfa.start_id then on_hit hi;
    if not (Dfa.is_dead dfa Dfa.start_id) then begin
      let poll = not (Obs.Deadline.is_none deadline) in
      (* the flags, under this mask, of a state that skips *)
      let skip_mask = if least then f_accel else f_accel lor f_nullable in
      (* a hit at [p] in a state that is [full] or not; [true] ends
         the scan *)
      let report p full =
        if least && full then begin
          on_hit lo;
          true
        end
        else begin
          on_hit p;
          false
        end
      in
      let q = ref Dfa.start_id and p = ref hi in
      let fin = ref false in
      while (not !fin) && !p > lo do
        if poll then Obs.Deadline.check_now deadline;
        let f = Char.code (Bytes.get dfa.Dfa.flags !q) in
        if f land skip_mask = f_accel then begin
          let p' = Dfa.skip_backward dfa !q s lo !p in
          (* an accelerated state is never full *)
          if p' < !p && f land f_nullable <> 0 then on_hit p';
          p := p'
        end;
        if !p > lo then begin
          let p0 = !p in
          let stop = ref (max lo (!p - block)) in
          let trans = dfa.Dfa.trans in
          let flags = dfa.Dfa.flags in
          while !p > !stop do
            let b = Char.code (String.unsafe_get s (!p - 1)) in
            let cls = Array.unsafe_get table b in
            if cls >= 0 && (byte_mode || b < 0x80) then begin
              let tgt = Array.unsafe_get trans ((!q * nc) + cls) in
              if tgt >= 0 then begin
                q := tgt;
                decr p;
                (* flag bits: 1 nullable, 4 full (full implies nullable) *)
                let f = Char.code (Bytes.unsafe_get flags tgt) in
                if f land 1 <> 0 && report !p (f land 4 <> 0) then begin
                  fin := true;
                  stop := !p
                end
                else if f land skip_mask = f_accel then stop := !p
              end
              else begin
                q := Dfa.step dfa !q cls;
                decr p;
                stop := !p;
                if Dfa.is_nullable dfa !q then
                  fin := report !p (Dfa.is_full dfa !q)
              end
            end
            else begin
              let cls, p' = Bc.prev t.bc s !p 0 in
              q := Dfa.step dfa !q cls;
              p := p';
              stop := !p;
              if Dfa.is_nullable dfa !q then fin := report !p (Dfa.is_full dfa !q)
            end
          done;
          t.scan_bytes <- t.scan_bytes + (p0 - !p)
        end
      done
    end

  (* -- public API -------------------------------------------------------- *)

  (** Full-match verdict: the length bounds, then (after a deadline
      check, so that a prefilter exit still honors an expired deadline)
      the prefix, the suffix and, unless [factor_seen], the factor, then
      the anchored pass. *)
  let full_match ?deadline ~factor_seen (t : t) (s : string) : bool =
    let n = String.length s in
    n >= t.abs_min_bytes
    && (match t.abs_max_bytes with Some mx -> n <= mx | None -> true)
    && begin
         (match deadline with Some d -> Obs.Deadline.check_now d | None -> ());
         not (Prefilter.rules_out_full t.lits s)
       end
    && (factor_seen || Prefilter.index t.lits.Prefilter.factor s >= 0)
    && begin
         t.anchored <- t.anchored + 1;
         run_anchored ?deadline t s 0 n
       end

  (** Is all of [s] a match?  An absent factor, prefix or suffix
      answers [false] before any scan. *)
  let matches ?deadline (t : t) (s : string) : bool =
    full_match ?deadline ~factor_seen:false t s

  (** The prefilter on [s] ({!Prefilter.earliest_start}): [-1] when it
      rules out any match, else the least offset, moved down to a
      scalar start, at which a match can start.  Entry deadline check
      included so that prefilter short-circuits still honor an
      already-expired deadline. *)
  let earliest_start ?deadline (t : t) (s : string) : int =
    (match deadline with Some d -> Obs.Deadline.check_now d | None -> ());
    match Prefilter.earliest_start t.lits ~max_bytes:t.abs_max_bytes s with
    | -1 -> -1
    | st -> Byteclass.floor_in t.mode s st

  (** [contains t s]: earliest byte offset at which a match of the
      pattern ends, or [None] when no substring of [s] matches. *)
  let contains ?deadline (t : t) (s : string) : int option =
    if R.nullable t.pattern then Some 0
    else if String.length s < t.abs_min_bytes then None
      (* any match spans ≥ abs_min_bytes bytes, so a shorter haystack
         cannot contain one (nullable patterns have abs_min_bytes = 0) *)
    else
      match earliest_start ?deadline t s with
      | -1 -> None
      | from -> first_nullable ?deadline t s from (String.length s)

  (** Least match start in [s.\[lo, hi)] among matches that end by
      [hi] ([lo], [hi] scalar starts): the backward scan reports hits in
      decreasing position order, so the last one is the least. *)
  let least_start ?deadline (t : t) (s : string) ~lo ~hi : int option =
    let least = ref (-1) in
    backward_scan ?deadline ~least:true t s ~lo ~hi (fun i -> least := i);
    if !least < 0 then None else Some !least

  (** Leftmost-earliest match span [(i, j)] with [i] the minimal start
      of any match and [j] the minimal end of a match starting at [i]
      (byte offsets, [s.[i..j)] is the matched substring).  Agrees with
      the classic lazy DFA's per-position scan
      ({!Sbd_classic.Brzozowski.Make.Dfa.find_scan}) but runs in linear
      time instead of O(n·m) restarts.  An unbounded pattern takes one
      backward pass from the end of [s] down to {!earliest_start} (cut
      short by a full state) for the least start.  A pattern whose matches span at most [l] bytes,
      with [l] below [length s] ({!Prefilter.span_bound}), takes a
      forward [⊤*·r] pass from {!earliest_start} to the earliest match
      end [e], then the backward pass over [\[e − l, e + l\]] only.
      Either way a forward anchored pass from the start finds the
      earliest end. *)
  let find ?deadline (t : t) (s : string) : (int * int) option =
    let n = String.length s in
    if R.nullable t.pattern then Some (0, 0)
    else if n < t.abs_min_bytes then None
    else
      let start =
        match
          (earliest_start ?deadline t s, Prefilter.span_bound t.abs_max_bytes n)
        with
        | -1, _ -> None
        | from, None -> least_start ?deadline t s ~lo:from ~hi:n
        | from, Some l -> (
          (* the earliest match end [e] bounds the leftmost start to
             [\[e − l, e\]], and the match from there ends by [e + l] *)
          match first_nullable ?deadline t s from n with
          | None -> None
          | Some e ->
            t.windows <- t.windows + 1;
            least_start ?deadline t s
              ~lo:(Byteclass.floor_in t.mode s (max 0 (e - l)))
              ~hi:(Byteclass.ceil_in t.mode s (min n (e + l))))
      in
      match start with
      | None -> None
      | Some i ->
        (* a match starts at [i], so the anchored forward pass is
           guaranteed to hit a nullable state at some [j <= n] *)
        Option.map (fun j -> (i, j)) (first_nullable_anchored ?deadline t s i n)

  (** The full-match verdict and the {!find} span of [s] from one
      search: a full match starts at 0, so it exists only when the
      leftmost span does, and the anchored pass runs only then. *)
  let full_and_find ?deadline (t : t) (s : string) : bool * (int * int) option =
    let span = find ?deadline t s in
    let full =
      match span with
      | Some (0, _) -> full_match ?deadline ~factor_seen:true t s
      | Some _ | None -> false
    in
    (full, span)

  (** Number of positions [i < n] (byte offsets of scalar starts) such
      that some match starts at [i] — the count of nonempty-input
      "matching prefixes" the classic lazy DFA's per-position scan
      counts.  One backward pass. *)
  let count_matching_prefixes ?deadline (t : t) (s : string) : int =
    if String.length s < t.abs_min_bytes then 0
    else if (not (R.nullable t.pattern)) && earliest_start ?deadline t s < 0
    then 0
    else begin
      let n = String.length s in
      let count = ref 0 in
      backward_scan ?deadline ~least:false t s ~lo:0 ~hi:n (fun i ->
          if i < n then incr count);
      !count
    end

  (** The state cap this engine was created with (per DFA: forward,
      unanchored and backward each get their own budget).  Exposed so
      hint consumers (the service worker) can be tested
      against the cap they actually installed. *)
  let max_states (t : t) : int = t.max_states

  type stats = {
    num_classes : int;
    fwd_states : int;
    unanch_states : int;
    back_states : int;
    resets : int;
    accel_bytes : int;
        (** exit bytes of the unanchored DFA's start state; 0 = it does
            not skip (or the unanchored DFA was never built) *)
    back_accel_bytes : int;  (** same for the backward DFA's start state *)
    factor_len : int;
        (** byte length of the required-factor prefilter; 0 = none *)
    abs_min_bytes : int;
        (** abstract-length early-exit floor (bytes); 0 = no floor *)
    abs_max_bytes : int;
        (** abstract-length full-match ceiling (bytes); -1 = unbounded *)
    scan_bytes : int;
        (** bytes the DFA loops have stepped, over the engine's life *)
    skip_bytes : int;
        (** bytes the DFA loops have skipped from accelerated states,
            over the engine's life *)
    windows : int;
        (** [find] calls that took the bounded-length window path, over
            the engine's life *)
    anchored : int;  (** anchored full-match passes, over the engine's life *)
  }

  let start_exits = function
    | None -> 0
    | Some d -> Byteclass.skip_size (Dfa.skip_of d Dfa.start_id)

  let stats (t : t) : stats =
    let opt f = function None -> 0 | Some d -> f d in
    {
      num_classes = t.bc.Bc.num_classes;
      fwd_states = Dfa.num_states t.fwd;
      unanch_states = opt Dfa.num_states t.unanch;
      back_states = opt Dfa.num_states t.back;
      resets =
        Dfa.resets t.fwd + opt Dfa.resets t.unanch + opt Dfa.resets t.back;
      accel_bytes = start_exits t.unanch;
      back_accel_bytes = start_exits t.back;
      factor_len =
        Prefilter.length t.lits.Prefilter.factor;
      abs_min_bytes = t.abs_min_bytes;
      abs_max_bytes = (match t.abs_max_bytes with Some mx -> mx | None -> -1);
      scan_bytes = t.scan_bytes;
      skip_bytes =
        Dfa.skip_bytes t.fwd + opt Dfa.skip_bytes t.unanch
        + opt Dfa.skip_bytes t.back;
      windows = t.windows;
      anchored = t.anchored;
    }
end
