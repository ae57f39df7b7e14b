(** Byte-level character classification for the match engine.

    The engine's DFA alphabet is the minterm set of the pattern (as in
    the SRM matcher, Section 8.5), but its {e input} alphabet is bytes:
    classification must go byte → equivalence class in one array read
    on the hot path.  This module compiles the pattern's minterms into

    - a dense 256-entry [byte → class] table, complete in [Byte]
      (Latin-1) mode and covering the ASCII plane in [Utf8] mode, and
    - a sorted range table for code-point classification, the fallback
      for decoded non-ASCII scalars in [Utf8] mode.

    Multi-byte UTF-8 handling is deliberately scalar-at-a-time with
    lossy error semantics matching {!Sbd_alphabet.Utf8.decode_lossy}
    (one U+FFFD per malformed byte; a truncated sequence at end of
    input is one maximal subpart, hence one U+FFFD), so the engine is
    total on arbitrary byte strings.  The scalar codec here
    additionally supports {e backward} iteration (for the reverse pass
    of the linear search). *)

(* -- UTF-8 scalar codec (BMP, 1-3 bytes, strict + lossy-total) ----------- *)

let replacement = 0xFFFD

let is_cont b = b land 0xC0 = 0x80

(** Classify the scalar starting at [pos] in [s], looking no further
    than [limit] (exclusive).  [`Truncated] means the bytes so far are a
    proper prefix of a well-formed sequence cut off by [limit]: one
    maximal subpart, which the lossy steps below read as one U+FFFD. *)
let classify_scalar (s : string) (pos : int) (limit : int) :
    [ `Cp of int * int | `Malformed | `Truncated ] =
  let b0 = Char.code s.[pos] in
  if b0 < 0x80 then `Cp (b0, 1)
  else if b0 < 0xC0 then `Malformed (* stray continuation *)
  else if b0 < 0xE0 then
    if pos + 1 >= limit then `Truncated
    else
      let b1 = Char.code s.[pos + 1] in
      if not (is_cont b1) then `Malformed
      else
        let cp = ((b0 land 0x1F) lsl 6) lor (b1 land 0x3F) in
        if cp < 0x80 then `Malformed (* overlong *) else `Cp (cp, 2)
  else if b0 < 0xF0 then
    if pos + 1 >= limit then `Truncated
    else
      let b1 = Char.code s.[pos + 1] in
      if not (is_cont b1) then `Malformed
      else if pos + 2 >= limit then `Truncated
      else
        let b2 = Char.code s.[pos + 2] in
        if not (is_cont b2) then `Malformed
        else
          let cp =
            ((b0 land 0x0F) lsl 12) lor ((b1 land 0x3F) lsl 6) lor (b2 land 0x3F)
          in
          if cp < 0x800 then `Malformed (* overlong *)
          else if cp >= 0xD800 && cp <= 0xDFFF then `Malformed (* surrogate *)
          else `Cp (cp, 3)
  else `Malformed (* beyond the BMP *)

(** Lossy forward step: the scalar at [pos] and the position after it.
    A malformed byte decodes as one U+FFFD; a sequence truncated by
    [limit] is a maximal subpart and decodes as one U+FFFD {e consuming
    the whole tail}. *)
let scalar_forward (s : string) (pos : int) (limit : int) : int * int =
  match classify_scalar s pos limit with
  | `Cp (cp, len) -> (cp, pos + len)
  | `Malformed -> (replacement, pos + 1)
  | `Truncated -> (replacement, limit)

(** Lossy backward step: the scalar {e ending} at [pos] (exclusive) and
    its start position, never looking below [lo].  Mirrors the forward
    lossy segmentation: a window [q, pos) qualifies only when it decodes
    strictly as exactly one scalar — or, when [pos] is the very end of
    [s], as one truncated maximal subpart (one U+FFFD spanning the whole
    tail, like {!scalar_forward}); otherwise the byte at [pos - 1] is a
    lone U+FFFD. *)
let scalar_backward (s : string) (pos : int) (lo : int) : int * int =
  let b = Char.code s.[pos - 1] in
  if b < 0x80 then (b, pos - 1)
  else begin
    (* find the closest non-continuation byte within 3 bytes *)
    let q = ref (pos - 1) in
    while !q > lo && pos - !q < 3 && is_cont (Char.code s.[!q]) do
      decr q
    done;
    if is_cont (Char.code s.[!q]) then (replacement, pos - 1)
    else
      match classify_scalar s !q pos with
      | `Cp (cp, len) when !q + len = pos -> (cp, !q)
      | `Truncated when pos = String.length s -> (replacement, !q)
      | _ -> (replacement, pos - 1)
  end

(** The last scalar start at or before [x] ([0 <= x <= length s]) in
    the lossy segmentation of all of [s]; [x] itself when it is one.
    Every non-continuation byte starts a scalar (a scalar is a lead plus
    at most two continuation bytes, or one malformed byte), so only a
    lead one or two bytes below [x] can cover it. *)
let scalar_floor (s : string) (x : int) : int =
  let n = String.length s in
  let cont i = is_cont (Char.code (String.unsafe_get s i)) in
  if x >= n || not (cont x) then x
  else
    let q =
      if x >= 1 && not (cont (x - 1)) then x - 1
      else if x >= 2 && not (cont (x - 2)) then x - 2
      else x
    in
    if q < x && snd (scalar_forward s q n) > x then q else x

(** The first scalar start at or after [x]. *)
let scalar_ceil (s : string) (x : int) : int =
  let q = scalar_floor s x in
  if q = x then x else snd (scalar_forward s q (String.length s))

(* -- the compiled classifier --------------------------------------------- *)

type mode =
  | Byte  (** each byte is a Latin-1 code point: the full 256-entry table *)
  | Utf8
      (** ASCII bytes classify by table; lead bytes fall back to scalar
          decoding plus code-point classification *)

(** Scalar starts at or below / at or above [x] in [mode]: every offset
    in [Byte] mode, the lossy UTF-8 segmentation's in [Utf8] mode. *)
let floor_in mode s x = match mode with Byte -> x | Utf8 -> scalar_floor s x

let ceil_in mode s x = match mode with Byte -> x | Utf8 -> scalar_ceil s x

(* -- accelerated states ----------------------------------------------------- *)

(** How a scan skips over the bytes that keep a DFA state in place: the
    state's {e exit} bytes, the ones that can move it, as at most three
    bytes or one ASCII range, each found a word at a time by
    {!Sbd_alphabet.Bytescan}.  {!Make.skip} builds one from the state's
    transitions. *)
type skip =
  | No_skip  (** too many exit bytes, or a state that must not skip *)
  | Skip_all  (** no exit byte: the state keeps itself on every byte *)
  | Skip_bytes of char * char * char
      (** at most three exit bytes; a set of fewer repeats one *)
  | Skip_range of char * char  (** the ASCII exit bytes [\[lo, hi\]] *)

(** Number of exit bytes. *)
let skip_size = function
  | No_skip | Skip_all -> 0
  | Skip_bytes (c1, c2, c3) ->
    1 + Bool.to_int (c2 <> c1) + Bool.to_int (c3 <> c1 && c3 <> c2)
  | Skip_range (lo, hi) -> Char.code hi - Char.code lo + 1

(** The first exit byte in [s.\[pos, limit)], or [limit]. *)
let skip_forward (k : skip) (s : string) (pos : int) (limit : int) : int =
  match k with
  | No_skip -> pos
  | Skip_all -> limit
  | Skip_bytes (c1, c2, c3) -> Sbd_alphabet.Bytescan.forward s pos limit c1 c2 c3
  | Skip_range (lo, hi) -> Sbd_alphabet.Bytescan.forward_range s pos limit lo hi

(** The offset just after the last exit byte in [s.\[lo, hi)], or
    [lo]. *)
let skip_backward (k : skip) (s : string) (lo : int) (hi : int) : int =
  match k with
  | No_skip -> hi
  | Skip_all -> lo
  | Skip_bytes (c1, c2, c3) -> Sbd_alphabet.Bytescan.backward s lo hi c1 c2 c3
  | Skip_range (l, h) -> Sbd_alphabet.Bytescan.backward_range s lo hi l h

module Make (R : Sbd_regex.Regex.S) = struct
  module A = R.A
  module M = Sbd_alphabet.Minterm.Make (A)

  type t = {
    mode : mode;
    num_classes : int;
    table : int array;
        (** 256 entries; [>= 0] is a class, [-1] means "decode first"
            (only non-ASCII bytes in [Utf8] mode) *)
    ranges : (int * int * int) array;
        (** sorted [(lo, hi, class)] rows over code points *)
    representatives : int array;  (** one witness code point per class *)
  }

  (** Binary search the range table; code points outside every minterm
      range cannot occur (minterms partition the BMP), but default to
      class 0 defensively. *)
  let classify_cp (t : t) (c : int) : int =
    let lo = ref 0 and hi = ref (Array.length t.ranges - 1) in
    let result = ref 0 in
    while !lo <= !hi do
      let mid = (!lo + !hi) / 2 in
      let l, h, cls = t.ranges.(mid) in
      if c < l then hi := mid - 1
      else if c > h then lo := mid + 1
      else begin
        result := cls;
        lo := !hi + 1
      end
    done;
    !result

  let compile ~(mode : mode) (pattern : R.t) : t =
    let minterm_preds = M.minterms (R.preds pattern) in
    let ranges =
      List.concat
        (List.mapi
           (fun idx p -> List.map (fun (lo, hi) -> (lo, hi, idx)) (A.ranges p))
           minterm_preds)
    in
    let ranges = Array.of_list (List.sort compare ranges) in
    let representatives =
      Array.of_list
        (List.map
           (fun p -> match A.choose p with Some c -> c | None -> 0)
           minterm_preds)
    in
    let t =
      {
        mode;
        num_classes = List.length minterm_preds;
        table = [||];
        ranges;
        representatives;
      }
    in
    let table =
      Array.init 256 (fun b ->
          match mode with
          | Byte -> classify_cp t b
          | Utf8 -> if b < 0x80 then classify_cp t b else -1)
    in
    { t with table }

  (** Forward hot-path step over [s.[pos .. limit)]: the class of the
      next scalar and the position after it.  One array read for every
      byte in [Byte] mode and for ASCII in [Utf8] mode. *)
  let next (t : t) (s : string) (pos : int) (limit : int) : int * int =
    let cls = Array.unsafe_get t.table (Char.code (String.unsafe_get s pos)) in
    if cls >= 0 then (cls, pos + 1)
    else
      let cp, pos' = scalar_forward s pos limit in
      (classify_cp t cp, pos')

  (** Backward step over the scalar ending at [pos] (exclusive), never
      looking below [lo]: its class and its start position. *)
  let prev (t : t) (s : string) (pos : int) (lo : int) : int * int =
    let b = Char.code (String.unsafe_get s (pos - 1)) in
    let cls = Array.unsafe_get t.table b in
    if cls >= 0 && (t.mode = Byte || b < 0x80) then (cls, pos - 1)
    else
      let cp, pos' = scalar_backward s pos lo in
      (classify_cp t cp, pos')

  (** The skip of a state that byte class [cls] keeps in place iff
      [loops cls], for a scan in direction [dir].  A byte is an exit iff
      its class does not loop, so skipping the others is exact.

      [Utf8] mode skips bytes, not scalars, so it needs more.  U+FFFD's
      class must loop (else no skip), so malformed bytes are skippable.
      A forward skip takes as exits every ASCII byte of an exit class
      and every lead byte whose code points meet one.  Exits are then
      never continuation bytes (ASCII < 0x80 ≤ conts < 0xC0 ≤ leads),
      so a skip halts on a scalar start, and every scalar it passes
      whole (ASCII, multi-byte with a non-exit lead, or malformed as
      U+FFFD) has a looping class.  A backward skip needs every exit
      class to be pure ASCII, so that it can never stop inside a
      multi-byte scalar. *)
  let skip (t : t) ~(dir : [ `Fwd | `Back ]) ~(loops : int -> bool) : skip =
    let exits = Array.init (max 1 t.num_classes) (fun cls -> not (loops cls)) in
    let member = Array.make 256 false in
    let add b = member.(b) <- true in
    let ok = ref true in
    (match t.mode with
    | Byte ->
      for b = 0 to 255 do
        if exits.(t.table.(b)) then add b
      done
    | Utf8 ->
      for b = 0 to 127 do
        if exits.(t.table.(b)) then add b
      done;
      if exits.(classify_cp t replacement) then ok := false
      else
        Array.iter
          (fun (lo, hi, cls) ->
            if !ok && exits.(cls) && hi >= 0x80 then
              match dir with
              | `Back -> ok := false
              | `Fwd ->
                let lo = max lo 0x80 in
                if lo <= 0x7FF then
                  for x = 0xC0 lor (lo lsr 6) to 0xC0 lor (min hi 0x7FF lsr 6) do
                    add x
                  done;
                if hi >= 0x800 then
                  for x = 0xE0 lor (max lo 0x800 lsr 12) to 0xE0 lor (hi lsr 12) do
                    add x
                  done)
          t.ranges);
    let set = List.filter (fun b -> member.(b)) (List.init 256 Fun.id) in
    match (!ok, List.map Char.chr set) with
    | false, _ -> No_skip
    | true, [] -> Skip_all
    | true, [ c1 ] -> Skip_bytes (c1, c1, c1)
    | true, [ c1; c2 ] -> Skip_bytes (c1, c2, c2)
    | true, [ c1; c2; c3 ] -> Skip_bytes (c1, c2, c3)
    | true, (lo :: _ as cs) ->
      let hi = List.nth cs (List.length cs - 1) in
      if hi < '\x80' && Char.code hi - Char.code lo + 1 = List.length cs then
        Skip_range (lo, hi)
      else No_skip
end
