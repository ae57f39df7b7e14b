(** Match engine for location-aware patterns ({!Sbd_locregex}): anchors
    and lookarounds on top of the byte-level machinery, linear time.

    The classical engine's state is a derivative regex; here a state is
    a {e located} derivative, and a transition depends on the input
    character {e and} the truth of the pattern's zero-width atoms at the
    current position — the "position kind" of RE#.  A position kind is
    a [mask] with one bit per distinct atom, so states carry it without
    the term itself growing.

    The mask bits are produced by small parallel automata, one per
    obligation, running in lockstep with the main derivative walk
    (obligation threading):

    - [^] is true exactly at offset 0 and [$] exactly at end of input
      ([$]'s bit is raised only in the final nullability check — during
      a step the position provably has a next character);
    - a lookbehind body [b] holds at position [i] iff some suffix of
      [w[0..i)] is in [L(b)]: the forward DFA of [⊤*·b] is nullable
      there — one int of state;
    - a lookahead body [b] holds at [i] iff some prefix of [w[i..)] is
      in [L(b)]: the DFA of [⊤*·rev b] over the {e reversed} input is
      nullable — computed by backward passes that record its truth per
      byte offset.  The passes segment scalars with
      {!Byteclass.scalar_backward}, which mirrors the forward lossy
      segmentation exactly (malformed UTF-8 included), so the forward
      walk finds a recorded truth at each of its own boundaries.

    With [k] distinct atoms the whole match is [O((k+1)·n)] — each
    obligation automaton plus the main walk see each scalar once.

    {b Reading only what the answer depends on} (DESIGN.md §15).
    {!create} studies [L.strip pattern], a plain regex whose language
    holds every span the pattern matches anywhere, through the
    {!Prefilter} that {!Search} uses: its required factor, prefix and
    suffix, and its length bounds in bytes.  A run then answers without
    walking when the factor (or prefix) is absent or the input is
    shorter than the least match; skips the full-match walk when the
    input is longer than the longest match or lacks the prefix or
    suffix; and starts the search walk at the least offset a match can
    start at, with each lookbehind DFA warmed up from its body's byte
    bound before it.  Lookahead truths are recorded only where the walk
    goes: a bounded body one window at a time, an unbounded one by a
    single pass from the end that stops at the walk's start.  A pattern
    whose every branch begins with [^] runs one walk.

    {b Skips.}  The lookaround DFAs are {!Dfa}s, with its accelerated
    states: a lookahead pass skips from a non-nullable one (the truths
    it passes stay false), a lookbehind warm-up from any.  The walk of a
    pattern with no lookahead skips too: where one walk is live and its
    state loops under the current valuation on all but a few bytes, as
    does every lookbehind DFA's, nothing the walk reads changes until
    the nearest of their exit bytes ({!walk}).

    {b Tables.}  Located terms get dense state ids, and masks get dense
    {e valuation} ids in order of first sight.  The laid-out lazy DFA
    is {!Dfa}'s: transitions live in one flat [int array] at
    [((q * stride) + v) * slots + cls] ([-1] = not yet derived), ν in
    one byte table at [q * stride + v] (0 = not yet computed).  Both
    the stride and the class slots are powers of two, so an index is
    shifts and ors, not multiplies, on the walk's critical path.  The
    stride doubles as new valuations appear, so a row costs class slots
    × valuations {e seen}, never classes × 2{^k}.  Past
    [max_states] states — or a cell budget that bounds wide rows — the
    tables reset as {!Dfa}'s do; the walks in flight are re-interned,
    so a reset costs throughput, never answers.

    Search ([found_end]) reuses the paper's padding trick located: the
    derivative walk of [⊤*·pattern] under the {e same} valuation stream
    is nullable at the earliest end of a match, because anchors and
    lookarounds reference absolute input positions, which padding does
    not shift.  The search walk stops at [found_end]; the whole walk
    stops once [found_end] is known and the pattern walk is ⊥ (verdict
    false) or ⊤* (verdict true), or was never needed. *)

module Obs = Sbd_obs.Obs

(* unchecked native-endian 16-bit access, for the lookahead record *)
external get16u : Bytes.t -> int -> int = "%caml_bytes_get16u"
external set16u : Bytes.t -> int -> int -> unit = "%caml_bytes_set16u"

let default_max_states = Dfa.default_max_states

(* [Dfa]'s flag bits: the hot loops read its flags bytes directly, as
   calls into a functor instance are not inlined *)
let f_nullable = Dfa.f_nullable
let f_top = Dfa.f_full
let f_accel = Dfa.f_accel
let f_looped = Dfa.f_looped
let block = Dfa.block
let guard = Dfa.guard

(* {!Search}'s counter: a compile of either engine counts *)
let c_compiles = Obs.Counter.make "engine.compiles"

module Make
    (Ab : Sbd_absdom.Absdom.S)
    (L : Sbd_locregex.Locregex.S with module R = Ab.D.R) =
struct
  module R = L.R
  module Bc = Byteclass.Make (R)
  module Dfa = Dfa.Make (R)
  module Lit = Sbd_analysis.Literals.Make (R)

  let max_atoms = 16

  (* Bounds on the table: past [max_valuations] distinct masks every
     cell is dropped (ids are reused), and the state cap shrinks so that
     states × stride × class slots stays under [max_cells]. *)
  let max_valuations = 1024
  let max_cells = 1 lsl 22
  let min_states = 4

  (* the walk's window: it opens at [first_window] bytes and doubles up
     to [block], the deadline poll stride *)
  let first_window = 64

  module Tbl = Hashtbl.Make (struct
    type t = L.t

    let equal = L.equal
    let hash = L.hash
  end)

  module Vtbl = Hashtbl.Make (Int)

  (* per-state flag bits *)
  let f_dead = 1
  let f_full = 2

  type t = {
    pattern : L.t;
    search : L.t;  (** [⊤*·pattern]: same atoms, search semantics *)
    mode : Byteclass.mode;
    bc : Bc.t;
    nc : int;  (** byte classes *)
    cshift : int;  (** log2 of the class slots per valuation, ≥ [nc] *)
    atoms : L.atom array;  (** the atom owning mask bit [i] *)
    aheads : Dfa.t array;
        (** lookahead [j] owns mask bit [j]: DFA of [⊤*·rev body] *)
    behinds : Dfa.t array;
        (** lookbehind [j] owns bit [#aheads + j]: DFA of [⊤*·body] *)
    begin_bit : int;  (** mask of [^], or 0 *)
    end_bit : int;  (** mask of [$], or 0 *)
    lits : Prefilter.lits;  (** of [L.strip pattern] *)
    min_bytes : int;  (** every match spans at least this many bytes *)
    max_bytes : int option;  (** and at most this many; [None] = unbounded *)
    anchored : bool;  (** every branch begins with [^] *)
    walk_skips : bool;
        (** no lookahead atoms, so the walk can skip ({!walk}) *)
    ahead_bytes : int array;
        (** per lookahead, its body's byte bound; -1 = unbounded or
            past {!block} *)
    ahead_reach : int;  (** the largest bounded [ahead_bytes], or -1 *)
    behind_bytes : int array;  (** per lookbehind, likewise *)
    mutable record : Bytes.t;
        (** lookahead truths, reused across runs: bit [j] of the 16-bit
            entry at [2 * (i - rbase)] is lookahead [j]'s truth at the
            scalar boundary [i] *)
    mutable rbase : int;
    mutable scan_bytes : int;
        (** bytes stepped by the forward walks and the lookaround DFAs,
            over the engine's life (skips excluded) *)
    mutable walk_skip_bytes : int;  (** bytes the walks skipped, likewise *)
    mutable windows : int;
        (** runs that started the walk past 0 or skipped the pattern
            walk, over the engine's life *)
    max_states : int;
    index : int Tbl.t;  (** term → state id *)
    mutable terms : L.t array;  (** state id → term *)
    mutable flags : Bytes.t;  (** per state: [f_dead] / [f_full] *)
    mutable n : int;
    mutable resets : int;
    vindex : int Vtbl.t;  (** mask → valuation id *)
    mutable masks : int array;  (** valuation id → mask *)
    mutable nv : int;
    mutable sshift : int;  (** log2 of the valuation slots per state row *)
    mutable rshift : int;  (** [sshift + cshift]: log2 of a row's cells *)
    mutable trans : int array;
    mutable nul : Bytes.t;
        (** per state and valuation: ν in the low bits (0 unknown,
            1 false, 2 true), [f_looped] once the state's skip under
            that valuation is worked out, [f_accel] while it skips *)
    mutable vstrikes : Bytes.t;  (** per ν cell, {!Dfa.guard}'s count *)
    mutable vstruck : int list;  (** ν cells the guard turned off since {!run} began *)
    mutable vskips : Byteclass.skip array;  (** per ν cell, read under [f_accel] *)
    mutable filled : int;  (** cells derived since the last reset *)
    mutable last_mask : int;  (** one-entry cache of {!valuation} *)
    mutable last_v : int;
    mutable wp : int;
        (** the pattern walk's state while a run is in flight, else
            -1; a reset re-interns it *)
    mutable ws : int;  (** the search walk's, likewise *)
  }

  type result = {
    full : bool;  (** the whole input is in the located language *)
    found_end : int option;
        (** earliest byte offset at which some match ends, the start
            ranging over all positions (absolute anchor semantics) *)
  }

  (* -- the tables --------------------------------------------------------- *)

  let state_cap_for t sshift =
    max min_states (min t.max_states (max_cells asr (sshift + t.cshift)))

  (* The column of valuation [v] within a state row.  The walks keep it
     next to [v], so a transition cell costs one shift and two ors. *)
  let column t v = v lsl t.cshift

  (* the transition cell of state [q], valuation column [vc], class
     [cls] *)
  let[@inline] cell t q vc cls = (q lsl t.rshift) lor vc lor cls

  (* Reallocate for [cap] states at [1 lsl sshift] valuation slots,
     keeping the rows of states [0 .. keep). *)
  let realloc t ~cap ~sshift ~keep =
    let terms = Array.make cap t.pattern in
    Array.blit t.terms 0 terms 0 keep;
    let flags = Bytes.make cap '\000' in
    Bytes.blit t.flags 0 flags 0 keep;
    let trans = Array.make (cap lsl (sshift + t.cshift)) (-1) in
    let nul = Bytes.make (cap lsl sshift) '\000' in
    let vstrikes = Bytes.make (cap lsl sshift) '\000' in
    let vskips = Array.make (cap lsl sshift) Byteclass.No_skip in
    let old = t.sshift in
    for q = 0 to keep - 1 do
      Array.blit t.trans (q lsl (old + t.cshift)) trans
        (q lsl (sshift + t.cshift))
        (1 lsl (old + t.cshift));
      Bytes.blit t.nul (q lsl old) nul (q lsl sshift) (1 lsl old);
      Bytes.blit t.vstrikes (q lsl old) vstrikes (q lsl sshift) (1 lsl old);
      Array.blit t.vskips (q lsl old) vskips (q lsl sshift) (1 lsl old)
    done;
    t.vstruck <-
      List.filter_map
        (fun c ->
          let q = c lsr old in
          if q < keep then Some ((q lsl sshift) lor (c land ((1 lsl old) - 1))) else None)
        t.vstruck;
    t.terms <- terms;
    t.flags <- flags;
    t.trans <- trans;
    t.nul <- nul;
    t.vstrikes <- vstrikes;
    t.vskips <- vskips;
    t.sshift <- sshift;
    t.rshift <- sshift + t.cshift

  let add_state t (term : L.t) : int =
    if t.n >= Array.length t.terms then
      realloc t
        ~cap:(min (state_cap_for t t.sshift) (2 * t.n))
        ~sshift:t.sshift ~keep:t.n;
    let id = t.n in
    t.n <- id + 1;
    Tbl.replace t.index term id;
    t.terms.(id) <- term;
    (* overwrite: after a reset the slot holds its previous occupant's
       cells *)
    Array.fill t.trans (cell t id 0 0) (1 lsl t.rshift) (-1);
    Bytes.fill t.nul (id lsl t.sshift) (1 lsl t.sshift) '\000';
    Bytes.fill t.vstrikes (id lsl t.sshift) (1 lsl t.sshift) '\000';
    Array.fill t.vskips (id lsl t.sshift) (1 lsl t.sshift) Byteclass.No_skip;
    let f =
      (if L.equal term L.empty then f_dead else 0)
      lor if L.equal term L.full then f_full else 0
    in
    Bytes.set t.flags id (Char.chr f);
    id

  (* Drop every state and cell; the walks in flight are re-interned, so
     their ids stay valid against the fresh table. *)
  let rec reset t =
    let wp = if t.wp >= 0 then Some t.terms.(t.wp) else None in
    let ws = if t.ws >= 0 then Some t.terms.(t.ws) else None in
    Tbl.reset t.index;
    t.n <- 0;
    t.filled <- 0;
    t.vstruck <- [];
    t.resets <- t.resets + 1;
    Option.iter (fun term -> t.wp <- intern t term) wp;
    Option.iter (fun term -> t.ws <- intern t term) ws

  and intern t (term : L.t) : int =
    match Tbl.find t.index term with
    | id -> id
    | exception Not_found ->
      if t.n >= state_cap_for t t.sshift then begin
        (* the term may come back as a re-interned walk *)
        reset t;
        intern t term
      end
      else add_state t term

  (* Double the valuation stride; past the cell budget the states go
     first. *)
  let widen t =
    let sshift = t.sshift + 1 in
    let cap = min (Array.length t.terms) (state_cap_for t sshift) in
    if t.n > cap then reset t;
    realloc t ~cap ~sshift ~keep:t.n

  let add_valuation t mask =
    if t.nv >= max_valuations then begin
      (* cells are keyed by valuation id, and ids are about to be
         reused: drop them all *)
      Vtbl.reset t.vindex;
      t.nv <- 0;
      reset t
    end
    else if t.nv = 1 lsl t.sshift then widen t;
    let v = t.nv in
    t.nv <- v + 1;
    if v >= Array.length t.masks then begin
      let masks = Array.make (2 * v) 0 in
      Array.blit t.masks 0 masks 0 v;
      t.masks <- masks
    end;
    t.masks.(v) <- mask;
    Vtbl.add t.vindex mask v;
    v

  (** Valuation id of [mask], interning it on first sight. *)
  let valuation t mask =
    if mask = t.last_mask then t.last_v
    else begin
      let v =
        match Vtbl.find t.vindex mask with
        | v -> v
        | exception Not_found -> add_valuation t mask
      in
      t.last_mask <- mask;
      t.last_v <- v;
      v
    end

  (* The valuation encoded by a mask.  Atom counts are tiny (≤ 16, and
     in practice ≤ 4), so a linear scan beats any indexing structure;
     it only runs on a cell miss. *)
  let sat_of t mask (a : L.atom) =
    let rec idx i =
      if i >= Array.length t.atoms then -1
      else if L.atom_equal t.atoms.(i) a then i
      else idx (i + 1)
    in
    let i = idx 0 in
    i >= 0 && mask land (1 lsl i) <> 0

  let set_nul_bits t c bits =
    Bytes.set t.nul c (Char.chr (Char.code (Bytes.get t.nul c) lor bits))

  let nul_slow t q v =
    let term = t.terms.(q) in
    let b =
      if not term.L.zw then term.L.nul
      else L.nullable ~sat:(sat_of t t.masks.(v)) term
    in
    let c = (q lsl t.sshift) lor v in
    set_nul_bits t c (if b then 2 else 1);
    t.filled <- t.filled + 1;
    Char.code (Bytes.get t.nul c)

  (** The ν cell of state [q] under valuation [v], ν worked out: bit 2
      is ν, [f_accel] whether [q] skips under [v]. *)
  let[@inline] nul_cell t q v =
    let b = Char.code (Bytes.unsafe_get t.nul ((q lsl t.sshift) lor v)) in
    if b land 3 <> 0 then b else nul_slow t q v

  (** ν of state [q] under valuation [v]. *)
  let[@inline] nullable t q v = nul_cell t q v land 2 <> 0

  let flags t q = Char.code (Bytes.unsafe_get t.flags q)

  (* The cell miss: derive, intern, memoize unless the intern reset the
     table (then [q]'s row is gone).  A self-loop of a pattern with no
     lookaheads works out [q]'s skip under that valuation, as
     {!Dfa.step} does. *)
  let rec step_slow t q vc cls =
    let d =
      L.deriv
        ~sat:(sat_of t t.masks.(vc lsr t.cshift))
        t.bc.Bc.representatives.(cls) t.terms.(q)
    in
    let resets = t.resets in
    let tgt = intern t d in
    if t.resets <> resets then tgt
    else begin
      t.trans.(cell t q vc cls) <- tgt;
      t.filled <- t.filled + 1;
      if
        tgt <> q || (not t.walk_skips)
        || Char.code (Bytes.get t.nul ((q lsl t.sshift) lor (vc lsr t.cshift)))
           land f_looped
           <> 0
      then tgt
      else begin
        accelerate t q vc;
        (* forcing the row may have reset the table *)
        if t.resets = resets then tgt else intern t d
      end
    end

  and accelerate t q vc =
    let c = (q lsl t.sshift) lor (vc lsr t.cshift) in
    set_nul_bits t c f_looped;
    let resets = t.resets in
    let skip =
      Bc.skip t.bc ~dir:`Fwd ~loops:(fun cls ->
          t.resets = resets
          &&
          let tgt = t.trans.(cell t q vc cls) in
          (if tgt >= 0 then tgt else step_slow t q vc cls) = q)
    in
    if t.resets = resets && skip <> Byteclass.No_skip then begin
      t.vskips.(c) <- skip;
      set_nul_bits t c f_accel
    end

  (** Successor of state [q] on byte class [cls] under the valuation
      whose {!column} is [vc].  Valid only while [q] is one of the walks
      in flight ([wp]/[ws]): a reset renumbers states and re-interns
      only those. *)
  let[@inline] step t q vc cls =
    let tgt = Array.unsafe_get t.trans (cell t q vc cls) in
    if tgt >= 0 then tgt else step_slow t q vc cls

  (* Does every match start at offset 0?  A branch that begins with
     [^] can match only where [^] holds; a lookaround or [$] in front
     consumes nothing, so the [^] after it still sees the match's
     start. *)
  let rec starts_at_begin (t : L.t) =
    match t.L.node with
    | L.Begin -> true
    | L.Concat (a, b) -> (
      starts_at_begin a
      ||
      match a.L.node with
      | L.Look _ | L.Endl -> starts_at_begin b
      | L.Pred _ | L.Eps | L.Begin | L.Concat _ | L.Star _ | L.Loop _ | L.Or _
      | L.And _ | L.Not _ ->
        false)
    | L.Or xs -> xs <> [] && List.for_all starts_at_begin xs
    | L.And xs -> List.exists starts_at_begin xs
    | L.Pred _ | L.Eps | L.Endl | L.Look _ | L.Star _ | L.Loop _ | L.Not _ ->
      false

  (* A byte bound on the spans of [r], -1 when unbounded (or so large
     that offset sums could overflow). *)
  let byte_bound mode (r : R.t) =
    let len = (Ab.summarize r).Ab.len in
    match Prefilter.byte_bounds ~mode ~lmin:len.Ab.lmin ~lmax:len.Ab.lmax with
    | _, Some b when b <= max_int / 2 -> b
    | _, (Some _ | None) -> -1

  let create ?(mode = Byteclass.Utf8) ?(max_states = default_max_states)
      (pattern : L.t) : t =
    Obs.Counter.incr c_compiles;
    let all = L.atoms pattern in
    if List.length all > max_atoms then
      invalid_arg
        (Printf.sprintf "Locmatch.create: more than %d distinct zero-width \
                         atoms" max_atoms);
    let bc = Bc.compile ~mode (L.pred_carrier pattern) in
    let look behind = function[@warning "-4"]
      | L.Alook l when l.behind = behind -> Some l.body
      | _ -> None
    in
    let ahead_bodies = List.filter_map (look false) all in
    let behind_bodies = List.filter_map (look true) all in
    (* bit layout: lookaheads low (their pre-pass record is the low
       mask bits as is), then lookbehinds, then the anchors *)
    let anchors =
      List.filter (function L.Abegin | L.Aend -> true | L.Alook _ -> false) all
    in
    let atoms =
      Array.of_list
        (List.map (fun body -> L.Alook { behind = false; body }) ahead_bodies
        @ List.map (fun body -> L.Alook { behind = true; body }) behind_bodies
        @ anchors)
    in
    let bit a =
      let rec go i =
        if i >= Array.length atoms then 0
        else if L.atom_equal atoms.(i) a then 1 lsl i
        else go (i + 1)
      in
      go 0
    in
    let dfa dir body = Dfa.create ~bc ~dir (R.concat R.full body) in
    let aheads =
      Array.of_list (List.map (fun b -> dfa `Back (R.rev b)) ahead_bodies)
    in
    let plain = L.strip pattern in
    let lit = Lit.study plain in
    let len = (Ab.summarize plain).Ab.len in
    let min_bytes, max_bytes =
      Prefilter.byte_bounds ~mode ~lmin:len.Ab.lmin ~lmax:len.Ab.lmax
    in
    (* a lookahead bound past one block counts as unbounded: a window's
       pass then reads at most its window plus a block *)
    let ahead_bytes =
      Array.of_list
        (List.map
           (fun b -> match byte_bound mode b with x when x <= block -> x | _ -> -1)
           ahead_bodies)
    in
    let t =
      {
        pattern;
        search = L.concat L.full pattern;
        mode;
        bc;
        nc = max 1 bc.Bc.num_classes;
        cshift =
          (let rec log2 k = if 1 lsl k >= bc.Bc.num_classes then k else log2 (k + 1) in
           log2 0);
        atoms;
        aheads;
        behinds = Array.of_list (List.map (dfa `Fwd) behind_bodies);
        begin_bit = bit L.Abegin;
        end_bit = bit L.Aend;
        lits =
          Prefilter.lits ~mode ~prefix:lit.Lit.prefix ~suffix:lit.Lit.suffix
            ~factor:lit.Lit.factor;
        min_bytes;
        max_bytes;
        anchored = starts_at_begin pattern;
        walk_skips = ahead_bodies = [];
        ahead_bytes;
        ahead_reach = Array.fold_left max (-1) ahead_bytes;
        behind_bytes = Array.of_list (List.map (byte_bound mode) behind_bodies);
        record = Bytes.empty;
        rbase = 0;
        scan_bytes = 0;
        walk_skip_bytes = 0;
        windows = 0;
        max_states = max max_states min_states;
        index = Tbl.create 64;
        terms = [||];
        flags = Bytes.empty;
        n = 0;
        resets = 0;
        vindex = Vtbl.create 16;
        masks = Array.make 4 0;
        nv = 0;
        sshift = 1;
        rshift = 0;
        trans = [||];
        nul = Bytes.empty;
        vstrikes = Bytes.empty;
        vstruck = [];
        vskips = [||];
        filled = 0;
        last_mask = -1;
        last_v = -1;
        wp = -1;
        ws = -1;
      }
    in
    realloc t ~cap:min_states ~sshift:1 ~keep:0;
    t

  let num_atoms t = Array.length t.atoms

  (** Transition and ν cells derived since the last reset. *)
  let memo_entries t = t.filled

  let resets t = t.resets

  (** Distinct valuations seen, and the cells one state row holds —
      class slots × a stride that covers the valuations seen. *)
  let valuations t = t.nv

  let row_cells t = 1 lsl t.rshift

  (** Bytes stepped ({!t.scan_bytes}), bytes skipped from accelerated
      states by the walks and the lookaround DFAs, and runs that took a
      window ({!t.windows}), over the engine's life. *)
  let scan_bytes t = t.scan_bytes

  let skip_bytes t =
    let dfas = Array.fold_left (fun acc d -> acc + Dfa.skip_bytes d) 0 in
    t.walk_skip_bytes + dfas t.aheads + dfas t.behinds

  let windows t = t.windows

  (* -- the lookahead passes ---------------------------------------------- *)

  (* Make the record hold [entries] zeroed entries from offset [base].
     A window's record is kept for the next run; one past
     [kept_record] bytes (a whole-input record) is dropped after its
     run, so an idle engine does not pin an input's worth of memory. *)
  let kept_record = 1 lsl 16

  let clear_record t ~base entries =
    if Bytes.length t.record < 2 * entries then t.record <- Bytes.create (2 * entries);
    Bytes.fill t.record 0 (2 * entries) '\000';
    t.rbase <- base

  (* Lookahead [j]'s backward pass from [hi] down to [lo] (both scalar
     boundaries), or-ing its truth into the record.  The truth at [i] is
     whether some prefix of [s[i..hi)] is in the body: exact when
     [hi = n] or when [hi - i] covers the body's byte bound.  The inner
     loop inlines the table hit as {!Search}'s scan loops do: [Dfa.step]
     may grow or reset the table, so [trans] is refetched after it.  A
     non-nullable accelerated state skips: the truth stays false over
     what it passes, and the record already says so. *)
  let ahead_pass ~deadline t (s : string) j ~lo ~hi =
    let dfa = t.aheads.(j) in
    let skipped0 = Dfa.skip_bytes dfa in
    let record = t.record and base = t.rbase in
    let bit = 1 lsl j in
    let set i =
      let k = 2 * (i - base) in
      set16u record k (get16u record k lor bit)
    in
    let table = t.bc.Bc.table in
    let nc = t.nc in
    let poll = not (Obs.Deadline.is_none deadline) in
    let q = ref Dfa.start_id and pos = ref hi in
    if Dfa.is_nullable dfa !q then set hi;
    while !pos > lo do
      if poll then Obs.Deadline.check_now deadline;
      if Char.code (Bytes.get dfa.Dfa.flags !q) land (f_accel lor f_nullable) = f_accel
      then pos := Dfa.skip_backward dfa !q s lo !pos;
      let stop = ref (if !pos - lo > block then !pos - block else lo) in
      let trans = ref dfa.Dfa.trans and flags = ref dfa.Dfa.flags in
      while !pos > !stop do
        (* ASCII (every byte in Byte mode) classifies by one table
           read; anything else takes the lossy backward decoder *)
        let cls =
          Array.unsafe_get table (Char.code (String.unsafe_get s (!pos - 1)))
        in
        let tgt =
          if cls >= 0 then Array.unsafe_get !trans ((!q * nc) + cls) else -1
        in
        if tgt >= 0 then begin
          q := tgt;
          decr pos
        end
        else begin
          let cls, p = Bc.prev t.bc s !pos 0 in
          q := Dfa.step dfa !q cls;
          trans := dfa.Dfa.trans;
          flags := dfa.Dfa.flags;
          pos := p
        end;
        let f = Char.code (Bytes.unsafe_get !flags !q) in
        if f land f_nullable <> 0 then begin
          set !pos;
          if f land f_top <> 0 then begin
            (* [⊤*] stays [⊤*]: the body holds at every boundary below *)
            for i = lo to !pos - 1 do
              set i
            done;
            pos := lo
          end
        end
        else if f land f_accel <> 0 then stop := !pos
      done
    done;
    t.scan_bytes <- t.scan_bytes + (hi - lo) - (Dfa.skip_bytes dfa - skipped0)

  (* The walk's next window from [b0]: its end [b1], a scalar boundary
     at most [size] bytes on (or [n]), with every bounded lookahead's
     truth recorded exactly on [\[b0, b1\]] by a pass from [b1] plus
     the largest bounded body.  With no unbounded lookahead the record
     holds this window alone; otherwise it holds [\[st, n\]], and a
     pass's entries past [b1] are or-ed into by the next window's pass,
     which is sound because a pass that stops short of [n] records a
     truth that implies the exact one. *)
  let open_window ~deadline ~whole t s ~b0 ~size =
    let n = String.length s in
    let b1 = Byteclass.ceil_in t.mode s (min n (b0 + size)) in
    if t.ahead_reach >= 0 then begin
      let hi = Byteclass.ceil_in t.mode s (min n (b1 + t.ahead_reach)) in
      if not whole then clear_record t ~base:b0 (hi - b0 + 1);
      Array.iteri
        (fun j b -> if b >= 0 then ahead_pass ~deadline t s j ~lo:b0 ~hi)
        t.ahead_bytes
    end;
    b1

  (* -- the forward walk -------------------------------------------------- *)

  (* [mask] plus the bits of the lookbehinds that hold, their DFAs
     advanced to states [bq]; lookbehind [j] owns bit [na + j]. *)
  let with_behinds t bq na mask =
    let m = ref mask in
    for j = 0 to Array.length bq - 1 do
      if Dfa.is_nullable (Array.unsafe_get t.behinds j) (Array.unsafe_get bq j)
      then m := !m lor (1 lsl (na + j))
    done;
    !m

  (* Lookbehind [j]'s DFA state at [st]: run from [st] minus its body's
     byte bound (from 0 when unbounded), since every body match that
     ends at or after [st] starts there or later.  Only the state at
     [st] matters, so every accelerated state skips. *)
  let warm_behind ~deadline t (s : string) j st =
    let d = t.behinds.(j) and b = t.behind_bytes.(j) in
    let from = if b < 0 || b >= st then 0 else Byteclass.floor_in t.mode s (st - b) in
    let skipped0 = Dfa.skip_bytes d in
    let n = String.length s in
    let table = t.bc.Bc.table in
    let nc = t.nc in
    let poll = not (Obs.Deadline.is_none deadline) in
    let q = ref Dfa.start_id and pos = ref from in
    while !pos < st do
      if poll then Obs.Deadline.check_now deadline;
      if Char.code (Bytes.get d.Dfa.flags !q) land f_accel <> 0 then
        pos := Dfa.skip_forward d !q s !pos st;
      let stop = ref (min st (!pos + block)) in
      while !pos < !stop do
        let cls = Array.unsafe_get table (Char.code (String.unsafe_get s !pos)) in
        if cls >= 0 then begin
          let tgt = Array.unsafe_get d.Dfa.trans ((!q * nc) + cls) in
          q := if tgt >= 0 then tgt else Dfa.step d !q cls;
          incr pos
        end
        else begin
          let cls, p = Bc.next t.bc s !pos n in
          q := Dfa.step d !q cls;
          pos := p
        end;
        if Char.code (Bytes.unsafe_get d.Dfa.flags !q) land f_accel <> 0 then
          stop := !pos
      done
    done;
    t.scan_bytes <- t.scan_bytes + (st - from) - (Dfa.skip_bytes d - skipped0);
    !q

  (* The walks from [st], where no match starts earlier, live in
     [t.wp]/[t.ws] (-1 once stopped), where a reset re-interns them.
     The pattern walk runs only when [need_full] (the verdict is still
     open, so [st = 0]); for an [anchored] pattern it is also the
     search walk.  Per scalar the hot path is table reads only: byte
     class, lookahead record, valuation cache, one transition cell per
     live walk, one ν cell for the search walk.

     The skip (DESIGN.md §15): with no lookaheads, the mask at a
     boundary past 0 and before [n] is the lookbehind bits alone.  When
     the lone live walk's state loops under the current valuation on
     all but a few bytes, and so does every lookbehind DFA's state,
     then up to the nearest of their exit bytes every state, hence
     every mask bit and the valuation, stays put.  The walk's ν there
     cannot report: a walk that can still report a match end was tested
     non-nullable under this valuation on arriving, and the pattern
     walk's [full] depends only on its state at [n].  The mask at the
     landing offset is the same, with [$] at [n]. *)
  let walk ~deadline t (s : string) ~st ~need_full : result =
    let n = String.length s in
    let na = Array.length t.aheads and nb = Array.length t.behinds in
    let anchored = t.anchored in
    let whole = Array.exists (fun b -> b < 0) t.ahead_bytes in
    if whole then begin
      clear_record t ~base:st (n - st + 1);
      Array.iteri
        (fun j b -> if b < 0 then ahead_pass ~deadline t s j ~lo:st ~hi:n)
        t.ahead_bytes
    end;
    let skipped0 = t.walk_skip_bytes in
    let win = ref first_window in
    let b1 = ref (open_window ~deadline ~whole t s ~b0:st ~size:!win) in
    let ahead = ref t.record and base = ref t.rbase in
    let bq = Array.init nb (fun j -> warm_behind ~deadline t s j st) in
    let table = t.bc.Bc.table in
    let nc = t.nc in
    let poll = not (Obs.Deadline.is_none deadline) in
    let walk_skips = t.walk_skips in
    (* the start of the last scalar: a skip lands short of it, where
       the mask is the same *)
    let last = if n = 0 then 0 else Byteclass.floor_in t.mode s (n - 1) in
    t.wp <- (if need_full || anchored then intern t t.pattern else -1);
    t.ws <- (if anchored then -1 else intern t t.search);
    (* the mask at a scalar boundary: the lookahead record, the anchors,
       and the lookbehind DFAs as advanced through the boundary *)
    let mask =
      ref
        (with_behinds t bq na
           ((if na = 0 then 0 else get16u !ahead (2 * (st - !base)))
           lor (if st = 0 then t.begin_bit else 0)
           lor if st = n then t.end_bit else 0))
    in
    let v = ref (valuation t !mask) in
    let vc = ref (column t !v) in
    (* the pattern walk stops on ⊥ (verdict 0) or ⊤* (verdict 1) *)
    let verdict = ref (-1) in
    let found = ref (-1) in
    if t.ws >= 0 && nullable t t.ws !v then begin
      found := st;
      t.ws <- -1
    end;
    (if t.wp >= 0 then
       let f = flags t t.wp land (f_dead lor f_full) in
       if f <> 0 then begin
         verdict := if f land f_dead <> 0 then 0 else 1;
         t.wp <- -1
       end);
    if anchored && (!verdict = 1 || (t.wp >= 0 && nullable t t.wp !v)) then begin
      found := st;
      if not need_full then t.wp <- -1
    end;
    let pos = ref st in
    while !pos < n && (t.wp >= 0 || t.ws >= 0) do
      if !pos >= !b1 then begin
        if poll then Obs.Deadline.check_now deadline;
        win := min block (2 * !win);
        b1 := open_window ~deadline ~whole t s ~b0:!pos ~size:!win;
        ahead := t.record;
        base := t.rbase
      end;
      let stop = !b1 and ahead = !ahead and base = !base in
      (* one walk live: exactly one of [ws], [wp] is -1 *)
      let q = t.ws + t.wp + 1 in
      if
        walk_skips && t.ws lxor t.wp < 0
        && !mask land t.begin_bit = 0
        && nul_cell t q !v land f_accel <> 0
      then begin
        (* the skip: up to the nearest exit of the walk and of each
           lookbehind DFA, short of the last scalar, so the walk lands
           in the same state, valuation and ν *)
        let skips = ref true in
        for j = 0 to nb - 1 do
          let d = Array.unsafe_get t.behinds j in
          if Char.code (Bytes.unsafe_get d.Dfa.flags (Array.unsafe_get bq j)) land f_accel = 0
          then skips := false
        done;
        if !skips then begin
          let c = (q lsl t.sshift) lor !v in
          let limit = if stop < n then stop else last in
          let p = ref (Byteclass.skip_forward (Array.unsafe_get t.vskips c) s !pos limit) in
          for j = 0 to nb - 1 do
            let d = Array.unsafe_get t.behinds j in
            p := Byteclass.skip_forward (Dfa.skip_of d (Array.unsafe_get bq j)) s !pos !p
          done;
          if guard ~flags:t.nul ~strikes:t.vstrikes c (!p - !pos) then
            t.vstruck <- c :: t.vstruck;
          t.walk_skip_bytes <- t.walk_skip_bytes + (!p - !pos);
          pos := !p
        end
      end;
      let lim = ref stop in
      while !pos < !lim && (t.wp >= 0 || t.ws >= 0) do
        (* ASCII (every byte in Byte mode) classifies by one table read *)
        let cls =
          ref (Array.unsafe_get table (Char.code (String.unsafe_get s !pos)))
        in
        let next = ref (!pos + 1) in
        if !cls < 0 then begin
          let c, p = Bc.next t.bc s !pos n in
          cls := c;
          next := p
        end;
        let cls = !cls and next = !next in
        if t.wp >= 0 then begin
          t.wp <- step t t.wp !vc cls;
          let f = flags t t.wp land (f_dead lor f_full) in
          if f <> 0 then begin
            verdict := if f land f_dead <> 0 then 0 else 1;
            t.wp <- -1
          end
        end;
        if t.ws >= 0 then t.ws <- step t t.ws !vc cls;
        (* the mask at [next] (> 0), the lookbehind bits as their DFAs
           step *)
        let m = ref (if na = 0 then 0 else get16u ahead (2 * (next - base))) in
        for j = 0 to nb - 1 do
          let d = Array.unsafe_get t.behinds j and q = Array.unsafe_get bq j in
          let tgt = Array.unsafe_get d.Dfa.trans ((q * nc) + cls) in
          let q = if tgt >= 0 then tgt else Dfa.step d q cls in
          Array.unsafe_set bq j q;
          if Char.code (Bytes.unsafe_get d.Dfa.flags q) land f_nullable <> 0
          then m := !m lor (1 lsl (na + j))
        done;
        pos := next;
        let m = if next = n then !m lor t.end_bit else !m in
        if m <> !mask then begin
          mask := m;
          v := valuation t m;
          vc := column t !v
        end;
        (* the block ends early on a step that leaves the lone live
           walk in a state that skips ([next] > 0: [^] is false) *)
        if t.ws >= 0 then begin
          let b = nul_cell t t.ws !v in
          if b land 2 <> 0 then begin
            found := next;
            t.ws <- -1
          end
          else if b land f_accel <> 0 && t.wp < 0 then lim := next
        end
        else if t.wp >= 0 then begin
          (* an anchored pattern's walk is also its search walk *)
          let b = nul_cell t t.wp !v in
          if anchored && !found < 0 && b land 2 <> 0 then begin
            found := next;
            if not need_full then t.wp <- -1
          end
          else if walk_skips && b land f_accel <> 0 then lim := next
        end
        else if anchored && !found < 0 && !verdict = 1 then found := next
      done
    done;
    t.scan_bytes <- t.scan_bytes + (!pos - st) - (t.walk_skip_bytes - skipped0);
    let full =
      need_full && if !verdict >= 0 then !verdict = 1 else nullable t t.wp !v
    in
    { full; found_end = (if !found >= 0 then Some !found else None) }

  let no_match = { full = false; found_end = None }

  (* The exits and the window of DESIGN.md §15, in front of {!walk}. *)
  let run_windowed ~deadline t (s : string) : result =
    if not (Obs.Deadline.is_none deadline) then Obs.Deadline.check_now deadline;
    let n = String.length s in
    let st =
      if n < t.min_bytes then -1
      else Prefilter.earliest_start t.lits ~max_bytes:t.max_bytes s
    in
    (* every match starts at or after [st]; an anchored one at 0 *)
    if st < 0 || (t.anchored && st > 0) then begin
      t.windows <- t.windows + 1;
      no_match
    end
    else begin
      let st = Byteclass.floor_in t.mode s st in
      let need_full =
        st = 0
        && (match t.max_bytes with Some mx -> n <= mx | None -> true)
        && not (Prefilter.rules_out_full t.lits s)
      in
      if st > 0 || not need_full then t.windows <- t.windows + 1;
      walk ~deadline t s ~st ~need_full
    end

  (** Match [s] whole ([full]) and find the earliest end of any match
      ([found_end]) in one forward walk over the window where a match
      can lie, plus lookahead passes over what the walk reads.  Raises
      {!Obs.Deadline_exceeded} when [deadline] expires, checked on
      entry and polled once per 4096 bytes of every pass. *)
  let run ?(deadline = Obs.Deadline.none) (t : t) (s : string) : result =
    (* a skip the guard turned off on an earlier input is back on *)
    (match t.vstruck with
    | [] -> ()
    | cells ->
      List.iter (fun c -> set_nul_bits t c f_accel) cells;
      t.vstruck <- []);
    Array.iter Dfa.rearm t.aheads;
    Array.iter Dfa.rearm t.behinds;
    Fun.protect
      ~finally:(fun () ->
        t.wp <- -1;
        t.ws <- -1;
        if Bytes.length t.record > kept_record then t.record <- Bytes.empty)
      (fun () -> run_windowed ~deadline t s)
end
