(** Dense lazy DFA over a byte-class alphabet, flat-table layout.

    States are small integers.  All transitions live in one flat
    [int array]: the successor of state [q] on byte class [cls] sits at
    [trans.(q * num_classes + cls)], with [-1] marking a cell not yet
    filled.  Rows are materialized lazily from classical Brzozowski
    derivatives ({!Sbd_classic.Brzozowski}) taken at each class's
    representative code point; hash-consing in {!Sbd_regex.Regex} makes
    the regex → state-id mapping a plain physical-identity hashtable
    lookup.

    The single-array layout (RE#'s choice, arXiv 2407.20479) exists for
    the scan loops in {!Search}: the hot path is one
    multiply-add index into one array the CPU can keep streaming from,
    instead of chasing a per-state row pointer.  Two further
    invariants keep the per-byte path short:

    - {e dead} (⊥) and {e full} ([.*]) states have their whole row
      pre-filled with a self-loop at creation.  This is exact — the
      derivative of ⊥ (resp. [.*]) by any character is itself — so a
      scan never takes the slow path through such a state.
    - per-state flags (nullable / dead / full / accelerated) are packed
      into one byte of {!flags}, so every test a scan makes after a step
      is a single byte load and mask.

    {b Accelerated states} (DESIGN.md §13).  A state that steps to
    itself on every byte but a few is {e accelerated}: a scan that
    enters it skips to the next exit byte with one word-at-a-time
    search ({!skip_forward}, {!skip_backward}), as regex-automata's
    dense DFAs do.  Its exit set ({!Byteclass.Make.skip}) is worked out
    once, when a slow-path {!step} first fills a self-loop cell
    [q → q]; that forces the rest of [q]'s row, so states that never
    loop pay nothing, and a cache reset drops the sets with the table.
    A state whose skips keep stopping within a word loses its flag
    ({!max_strikes}), so dense exits cost no more than plain stepping;
    {!rearm} gives it back at the start of the next scan, so one dense
    input does not turn the skip off for the inputs after it.

    Unbounded state growth (complement/intersection blowups) is bounded
    by a hard [max_states] cap: exceeding it {e resets} the cache —
    every state table is cleared, the start regex is re-interned as
    state 0, and the in-flight target is re-interned into the fresh
    table.  Degradation is graceful (a scan loop holding one current
    state id simply continues from the re-interned state; answers stay
    exact because states denote the same regexes), only throughput
    suffers if the input keeps cycling through more than [max_states]
    distinct derivatives. *)

let c_states = Sbd_obs.Obs.Counter.make "engine.states"
let c_resets = Sbd_obs.Obs.Counter.make "engine.resets"
let c_transitions = Sbd_obs.Obs.Counter.make "engine.transitions"

let default_max_states = 10_000

(* flag bits in {!flags} *)
let f_nullable = 1
let f_dead = 2
let f_full = 4

(* an accelerated state: a scan loop leaves its block on entering one,
   to skip from it *)
let f_accel = 8

(* the state's exit set has been worked out *)
let f_looped = 16

(** Bytes per scan-loop block, the spacing of deadline polls, and the
    longest single skip, so that a skip polls no less often. *)
let block = 4096

(* The short-skip guard: a skip that stops within one word is a strike,
   a longer one takes a strike back, and a state [max_strikes] strikes
   up stops skipping.  Where exit bytes are dense, stepping is
   cheaper than a search call per few bytes. *)
let short_skip = 8
let max_strikes = 16

(** The guard's bookkeeping for one skip of [len] bytes from state [id]
    of a table with per-state [flags] and [strikes] bytes; it clears
    [id]'s [f_accel] bit on its last strike, and then returns [true]
    so that the caller can re-arm [id] later.  {!Locmatch}'s walk table
    shares it. *)
let guard ~(flags : Bytes.t) ~(strikes : Bytes.t) id len : bool =
  let k = Char.code (Bytes.unsafe_get strikes id) in
  if len >= short_skip then begin
    if k > 0 then Bytes.unsafe_set strikes id (Char.unsafe_chr (k - 1));
    false
  end
  else if k + 1 < max_strikes then begin
    Bytes.unsafe_set strikes id (Char.unsafe_chr (k + 1));
    false
  end
  else begin
    Bytes.unsafe_set strikes id '\000';
    Bytes.set flags id (Char.chr (Char.code (Bytes.get flags id) land lnot f_accel));
    true
  end

module Make (R : Sbd_regex.Regex.S) = struct
  module Brz = Sbd_classic.Brzozowski.Make (R)
  module Bc = Byteclass.Make (R)

  module Tbl = Hashtbl.Make (struct
    type t = R.t

    let equal = R.equal
    let hash = R.hash
  end)

  type t = {
    start : R.t;
    bc : Bc.t;  (** the byte classes; their representatives derive rows *)
    dir : [ `Fwd | `Back ];  (** the direction the scans read input in *)
    num_classes : int;
    max_states : int;
    mutable index : int Tbl.t;  (** regex → state id *)
    mutable regexes : R.t array;  (** state id → regex *)
    mutable trans : int array;
        (** flat transition table, [state * num_classes + cls];
            [-1] marks an unfilled cell.  Reallocated by {!grow} and
            invalidated by a cache reset: scan loops that cache this
            array locally must refetch it after any slow-path
            {!step}. *)
    mutable flags : Bytes.t;
        (** per-state [f_nullable]/[f_dead]/[f_full]/[f_accel] *)
    mutable skips : Byteclass.skip array;  (** per state, read under [f_accel] *)
    mutable strikes : Bytes.t;  (** per state, the short-skip guard's count *)
    mutable struck : int list;  (** states the guard turned off since {!rearm} *)
    mutable n : int;  (** number of materialized states *)
    mutable resets : int;
    mutable skip_bytes : int;  (** bytes passed by skips, over the DFA's life *)
  }

  let grow t =
    let cap = Array.length t.regexes in
    if t.n >= cap then begin
      let cap' = min t.max_states (max 8 (2 * cap)) in
      let regexes = Array.make cap' t.start in
      Array.blit t.regexes 0 regexes 0 t.n;
      let trans = Array.make (cap' * t.num_classes) (-1) in
      Array.blit t.trans 0 trans 0 (t.n * t.num_classes);
      let flags = Bytes.make cap' '\000' in
      Bytes.blit t.flags 0 flags 0 t.n;
      let skips = Array.make cap' Byteclass.No_skip in
      Array.blit t.skips 0 skips 0 t.n;
      let strikes = Bytes.make cap' '\000' in
      Bytes.blit t.strikes 0 strikes 0 t.n;
      t.regexes <- regexes;
      t.trans <- trans;
      t.flags <- flags;
      t.skips <- skips;
      t.strikes <- strikes
    end

  (* Materialize [r] as a fresh state (capacity is doubled as needed,
     up to [max_states]). *)
  let add_state t (r : R.t) : int =
    grow t;
    let id = t.n in
    t.n <- id + 1;
    Tbl.add t.index r id;
    t.regexes.(id) <- r;
    let dead = R.is_empty r and full = R.is_full r in
    let row = id * t.num_classes in
    (* overwrite, don't just set: after a cache reset the slot may hold
       the bits of its previous occupant.  Dead and full states are
       fixpoints of derivation, so their rows are complete self-loops
       from birth and the hot loops never fault through them. *)
    Array.fill t.trans row t.num_classes (if dead || full then id else -1);
    let f =
      (if R.nullable r then f_nullable else 0)
      lor (if dead then f_dead else 0)
      lor if full then f_full else 0
    in
    Bytes.set t.flags id (Char.chr f);
    t.skips.(id) <- Byteclass.No_skip;
    Bytes.set t.strikes id '\000';
    Sbd_obs.Obs.Counter.incr c_states;
    id

  let reset t =
    Tbl.reset t.index;
    t.n <- 0;
    t.struck <- [];
    t.resets <- t.resets + 1;
    Sbd_obs.Obs.Counter.incr c_resets;
    ignore (add_state t t.start : int)

  (** State id for [r], materializing it if new.  On hitting
      [max_states] the whole cache is reset first, so the returned id is
      always valid against the {e current} table — callers must not mix
      ids from before and after a step. *)
  let intern t (r : R.t) : int =
    match Tbl.find_opt t.index r with
    | Some id -> id
    | None ->
      if t.n >= t.max_states then reset t;
      (match Tbl.find_opt t.index r with
      | Some id -> id (* r was the start regex *)
      | None -> add_state t r)

  (** The DFA of [start] over the byte classes [bc], for scans that
      read input in direction [dir] (which decides the skips a
      multi-byte [Utf8] scalar allows, {!Bc.skip}). *)
  let create ?(max_states = default_max_states) ~(bc : Bc.t) ~dir (start : R.t) :
      t =
    let max_states = max max_states 2 in
    let t =
      {
        start;
        bc;
        dir;
        num_classes = max 1 (Array.length bc.Bc.representatives);
        max_states;
        index = Tbl.create 256;
        regexes = [||];
        trans = [||];
        flags = Bytes.empty;
        skips = [||];
        strikes = Bytes.empty;
        struck = [];
        n = 0;
        resets = 0;
        skip_bytes = 0;
      }
    in
    ignore (add_state t t.start : int);
    t

  let start_id = 0

  (** The slow path behind the scan loops' inlined table hit: follow the
      transition for byte class [cls] out of state [id], deriving and
      interning the successor on a cell miss.  Returns the successor id.
      A cache reset inside [intern] can invalidate [id]'s row (and
      {!grow} reallocates {!trans}), so the cell write is guarded by
      re-checking the reset counter — and callers caching [t.trans]
      locally must refetch it after calling this. *)
  let rec step (t : t) (id : int) (cls : int) : int =
    let tgt = Array.unsafe_get t.trans ((id * t.num_classes) + cls) in
    if tgt >= 0 then tgt
    else begin
      Sbd_obs.Obs.Counter.incr c_transitions;
      let r = t.regexes.(id) in
      let d = Brz.derive t.bc.Bc.representatives.(cls) r in
      let resets_before = t.resets in
      let tgt = intern t d in
      (* After a reset [id] names a different (or vacant) state; only
         memoize into the row when the table it belongs to survived. *)
      if t.resets <> resets_before then tgt
      else begin
        t.trans.((id * t.num_classes) + cls) <- tgt;
        if tgt <> id || flag t id f_looped then tgt
        else begin
          accelerate t id;
          (* forcing the row may have reset the table *)
          if t.resets = resets_before then tgt else intern t d
        end
      end
    end

  (* Work out the exit set of [id], which has just stepped to itself, by
     forcing the rest of its row; give up if that resets the table. *)
  and accelerate t id =
    set_flag t id f_looped;
    let resets = t.resets in
    let skip =
      Bc.skip t.bc ~dir:t.dir ~loops:(fun cls ->
          t.resets = resets && step t id cls = id)
    in
    if t.resets = resets && skip <> Byteclass.No_skip then begin
      t.skips.(id) <- skip;
      set_flag t id f_accel
    end

  and flag t id bit = Char.code (Bytes.unsafe_get t.flags id) land bit <> 0

  and set_flag t id bit =
    Bytes.set t.flags id (Char.chr (Char.code (Bytes.get t.flags id) lor bit))

  let skipped t id len =
    t.skip_bytes <- t.skip_bytes + len;
    if guard ~flags:t.flags ~strikes:t.strikes id len then t.struck <- id :: t.struck

  (** Turn the skips the guard turned off back on; the scans call it on
      entry.  A struck state keeps its exit set, so this is one flag
      write per state. *)
  let rearm t =
    match t.struck with
    | [] -> ()
    | ids ->
      List.iter (fun id -> set_flag t id f_accel) ids;
      t.struck <- []

  (** From accelerated state [id] at the scalar start [pos], the least
      offset in [\[pos, limit\]] where a forward scan must step again:
      the next exit byte, [limit], or a scalar start after at most
      {!block} bytes. *)
  let skip_forward t id (s : string) pos limit =
    let cap = if limit - pos > block then pos + block else limit in
    let p = Byteclass.skip_forward (Array.unsafe_get t.skips id) s pos cap in
    skipped t id (p - pos);
    if p = cap && cap < limit then Byteclass.floor_in t.bc.Bc.mode s p else p

  (** The same for a backward scan from the scalar boundary [pos] down
      to [lo]: the greatest offset in [\[lo, pos\]] where it must step
      again. *)
  let skip_backward t id (s : string) lo pos =
    let cap = if pos - lo > block then pos - block else lo in
    let p = Byteclass.skip_backward (Array.unsafe_get t.skips id) s cap pos in
    skipped t id (pos - p);
    if p = cap && cap > lo then Byteclass.ceil_in t.bc.Bc.mode s p else p

  (* Unsafe reads are fine: ids only come from [intern]/[step], so they
     are always below [t.n] for the current table. *)
  let is_nullable t id = flag t id f_nullable
  let is_dead t id = flag t id f_dead
  let is_full t id = flag t id f_full
  let skip_of t id = if flag t id f_accel then t.skips.(id) else Byteclass.No_skip
  let num_states t = t.n
  let resets t = t.resets
  let skip_bytes t = t.skip_bytes
end
