(** Word-at-a-time byte search: the first (or last) byte of a string
    range that belongs to a set of at most three bytes, or to one ASCII
    range [\[lo, hi\]].

    SWAR ("SIMD within a register"): each step loads 8 bytes as one
    [int64] and XORs them with each target byte broadcast to all 8
    lanes, so a lane holding a target byte becomes zero.  The has-zero
    test

    {v (x - 0x0101…01) land (lnot x) land 0x8080…80 v}

    sets the high bit of every zero lane of [x].  It can also set it in
    a lane {e above} a zero lane (a borrow out of the zero lane), but
    never below the lowest zero lane, so its lowest flagged lane is
    exact.

    The range test is exact per lane.  With the high bits cleared, a
    lane [x] of at most [0x7f] can take [0x80 − lo] and [0x7f − hi]
    without a carry into the next lane, and the sums have their high
    bit set iff [x ≥ lo] and iff [x > hi]; a lane whose own high bit was
    set is masked out, so bytes [≥ 0x80] never hit.

    A scan therefore wants the lowest flagged lane to be the first byte
    in its direction: a forward scan loads each word little-endian, a
    backward one big-endian (a byte swap on the other kind of machine),
    and the lowest flagged lane is found by isolating its bit and one
    multiply.  A tail of fewer than 8 bytes is a byte loop.

    Every kernel reads the same way: the first word alone (a short run
    ends there without paying for a step), then a step over four words
    (32 bytes) while none of them holds a target, then the one-word
    loop, which finds the exact lane of a hit the first word or the
    step saw and reads the last words of the range.  The step ORs the
    four words' tests and masks the high bits once, and it is
    specialised by how many distinct bytes are searched for (1, 2 or
    3), so a newline scan pays for one compare per word and a JSON
    string scan for two.

    Loads use the unchecked [%caml_string_get64u]: the loop guards keep
    every 8-byte read inside the range.  The [int64] temporaries are
    let-bound and never escape, so native code keeps them unboxed and a
    scan allocates nothing. *)

external get64u : string -> int -> int64 = "%caml_string_get64u"
external swap64 : int64 -> int64 = "%bswap_int64"

let lows = 0x0101010101010101L
let highs = 0x8080808080808080L
let lows7 = 0x7f7f7f7f7f7f7f7fL

(* the 8 bytes at [i], byte [i] in the lowest lane *)
let[@inline] load_le s i = if Sys.big_endian then swap64 (get64u s i) else get64u s i

(* the 8 bytes below [i], byte [i - 1] in the lowest lane *)
let[@inline] load_down s i =
  if Sys.big_endian then get64u s (i - 8) else swap64 (get64u s (i - 8))

(** Byte [c] in every lane. *)
let[@inline] broadcast (c : char) : int64 =
  Int64.mul lows (Int64.of_int (Char.code c))

(* The has-zero test before its mask: the high bits of the result are
   the test's flags. *)
let[@inline] zero_bits (x : int64) : int64 =
  Int64.logand (Int64.sub x lows) (Int64.lognot x)

(** The has-zero test: nonzero iff some lane of [x] is zero, with its
    lowest flagged lane exact. *)
let[@inline] zero_lanes (x : int64) : int64 = Int64.logand (zero_bits x) highs

(* The index of the lowest lane of [m] (nonzero, high bits only) with
   its high bit set: [m land (−m)] keeps that bit, [1 lsl 8k] after the
   shift, and the multiply moves byte [7 − k] of the constant, which
   holds [k], into the top lane. *)
let[@inline] lowest_lane (m : int64) : int =
  let bit = Int64.shift_right_logical (Int64.logand m (Int64.neg m)) 7 in
  Int64.to_int (Int64.shift_right_logical (Int64.mul bit 0x0001020304050607L) 56)

let[@inline] hits3 w p1 p2 p3 =
  Int64.logor
    (zero_lanes (Int64.logxor w p1))
    (Int64.logor (zero_lanes (Int64.logxor w p2)) (zero_lanes (Int64.logxor w p3)))

(* The 4-word step's tests: nonzero iff one of the 32 bytes at [i] is a
   target.  A miss needs no lane order, so the words load as they lie. *)
let[@inline] eq1 w p = zero_bits (Int64.logxor w p)
let[@inline] eq2 w p1 p2 = Int64.logor (eq1 w p1) (eq1 w p2)
let[@inline] eq3 w p1 p2 p3 = Int64.logor (eq2 w p1 p2) (eq1 w p3)

let[@inline] any1 s i p =
  Int64.logand highs
    (Int64.logor
       (Int64.logor (eq1 (get64u s i) p) (eq1 (get64u s (i + 8)) p))
       (Int64.logor (eq1 (get64u s (i + 16)) p) (eq1 (get64u s (i + 24)) p)))

let[@inline] any2 s i p1 p2 =
  Int64.logand highs
    (Int64.logor
       (Int64.logor (eq2 (get64u s i) p1 p2) (eq2 (get64u s (i + 8)) p1 p2))
       (Int64.logor (eq2 (get64u s (i + 16)) p1 p2) (eq2 (get64u s (i + 24)) p1 p2)))

let[@inline] any3 s i p1 p2 p3 =
  Int64.logand highs
    (Int64.logor
       (Int64.logor (eq3 (get64u s i) p1 p2 p3) (eq3 (get64u s (i + 8)) p1 p2 p3))
       (Int64.logor
          (eq3 (get64u s (i + 16)) p1 p2 p3)
          (eq3 (get64u s (i + 24)) p1 p2 p3)))

(* How many distinct bytes [c1], [c2], [c3] are; with two, they are
   [c1] and {!second}.  The annotations keep [=] the integer compare,
   not the polymorphic one (a C call). *)
let[@inline] distinct (c1 : char) (c2 : char) (c3 : char) =
  if c1 = c2 then if c2 = c3 then 1 else 2 else if c1 = c3 || c2 = c3 then 2 else 3

let[@inline] second (c1 : char) (c2 : char) (c3 : char) = if c1 = c2 then c3 else c2

(* [plo] is [0x80 − lo] and [phi] is [0x7f − hi] in every lane *)
let[@inline] hits_range w plo phi =
  let x = Int64.logand w lows7 in
  Int64.logand
    (Int64.logand (Int64.add x plo) (Int64.lognot (Int64.add x phi)))
    (Int64.logand (Int64.lognot w) highs)

(* [hits_range]'s test over the 32 bytes at [i] *)
let[@inline] any_range s i plo phi =
  Int64.logor
    (Int64.logor (hits_range (get64u s i) plo phi) (hits_range (get64u s (i + 8)) plo phi))
    (Int64.logor
       (hits_range (get64u s (i + 16)) plo phi)
       (hits_range (get64u s (i + 24)) plo phi))

(* The kernels below are while loops over refs, not local recursive
   functions: without flambda a local closure allocates, and the int64
   words stay unboxed only inside one function body. *)

(** [forward s pos limit c1 c2 c3]: the least [i] in [\[pos, limit)]
    with [s.[i]] one of [c1], [c2], [c3], or [limit] if there is none.
    Repeat a byte to search for fewer than three. *)
let forward (s : string) (pos : int) (limit : int) (c1 : char) (c2 : char)
    (c3 : char) : int =
  let p1 = broadcast c1 and p2 = broadcast c2 and p3 = broadcast c3 in
  let i = ref pos and last = limit - 32 in
  if pos + 8 <= limit && hits3 (load_le s pos) p1 p2 p3 = 0L then begin
    i := pos + 8;
    if !i <= last then
      match distinct c1 c2 c3 with
      | 1 -> while !i <= last && any1 s !i p1 = 0L do i := !i + 32 done
      | 2 ->
        let q = broadcast (second c1 c2 c3) in
        while !i <= last && any2 s !i p1 q = 0L do i := !i + 32 done
      | _ -> while !i <= last && any3 s !i p1 p2 p3 = 0L do i := !i + 32 done
  end;
  let hit = ref (-1) in
  while !hit < 0 && !i + 8 <= limit do
    let m = hits3 (load_le s !i) p1 p2 p3 in
    if m = 0L then i := !i + 8 else hit := !i + lowest_lane m
  done;
  if !hit >= 0 then !hit
  else begin
    while
      !i < limit
      &&
      let c = String.unsafe_get s !i in
      c <> c1 && c <> c2 && c <> c3
    do
      incr i
    done;
    !i
  end

(** [backward s lo hi c1 c2 c3]: the greatest [p] in [\[lo, hi\]] such
    that [p = lo] or [s.[p - 1]] is one of [c1], [c2], [c3], and no
    byte of [s.\[p, hi)] is.  This is where a right-to-left scan from
    [hi] stops: just after the last set byte below [hi]. *)
let backward (s : string) (lo : int) (hi : int) (c1 : char) (c2 : char)
    (c3 : char) : int =
  let p1 = broadcast c1 and p2 = broadcast c2 and p3 = broadcast c3 in
  let i = ref hi and first = lo + 32 in
  if hi - 8 >= lo && hits3 (load_down s hi) p1 p2 p3 = 0L then begin
    i := hi - 8;
    if !i >= first then
      match distinct c1 c2 c3 with
      | 1 -> while !i >= first && any1 s (!i - 32) p1 = 0L do i := !i - 32 done
      | 2 ->
        let q = broadcast (second c1 c2 c3) in
        while !i >= first && any2 s (!i - 32) p1 q = 0L do i := !i - 32 done
      | _ -> while !i >= first && any3 s (!i - 32) p1 p2 p3 = 0L do i := !i - 32 done
  end;
  let hit = ref (-1) in
  while !hit < 0 && !i - 8 >= lo do
    let m = hits3 (load_down s !i) p1 p2 p3 in
    if m = 0L then i := !i - 8 else hit := !i - lowest_lane m
  done;
  if !hit >= 0 then !hit
  else begin
    while
      !i > lo
      &&
      let c = String.unsafe_get s (!i - 1) in
      c <> c1 && c <> c2 && c <> c3
    do
      decr i
    done;
    !i
  end

(** [forward_range s pos limit lo hi]: the least [i] in [\[pos, limit)]
    with [lo <= s.[i] <= hi], or [limit] if there is none.  [lo] and
    [hi] must be ASCII ([< 0x80]). *)
let forward_range (s : string) (pos : int) (limit : int) (lo : char) (hi : char)
    : int =
  let lo = Char.code lo and hi = Char.code hi in
  let plo = Int64.mul lows (Int64.of_int (0x80 - lo))
  and phi = Int64.mul lows (Int64.of_int (0x7f - hi)) in
  let i = ref pos and last = limit - 32 in
  if pos + 8 <= limit && hits_range (load_le s pos) plo phi = 0L then begin
    i := pos + 8;
    while !i <= last && any_range s !i plo phi = 0L do
      i := !i + 32
    done
  end;
  let hit = ref (-1) in
  while !hit < 0 && !i + 8 <= limit do
    let m = hits_range (load_le s !i) plo phi in
    if m = 0L then i := !i + 8 else hit := !i + lowest_lane m
  done;
  if !hit >= 0 then !hit
  else begin
    while
      !i < limit
      &&
      let c = Char.code (String.unsafe_get s !i) in
      c < lo || c > hi
    do
      incr i
    done;
    !i
  end

(** [backward_range s lo_pos hi_pos lo hi]: {!backward} for the set
    [\[lo, hi\]] ([lo] and [hi] ASCII): the greatest [p] in
    [\[lo_pos, hi_pos\]] such that [p = lo_pos] or [s.[p - 1]] is in
    the range, and no byte of [s.\[p, hi_pos)] is. *)
let backward_range (s : string) (lo_pos : int) (hi_pos : int) (lo : char)
    (hi : char) : int =
  let lo = Char.code lo and hi = Char.code hi in
  let plo = Int64.mul lows (Int64.of_int (0x80 - lo))
  and phi = Int64.mul lows (Int64.of_int (0x7f - hi)) in
  let i = ref hi_pos and first = lo_pos + 32 in
  if hi_pos - 8 >= lo_pos && hits_range (load_down s hi_pos) plo phi = 0L then begin
    i := hi_pos - 8;
    while !i >= first && any_range s (!i - 32) plo phi = 0L do
      i := !i - 32
    done
  end;
  let hit = ref (-1) in
  while !hit < 0 && !i - 8 >= lo_pos do
    let m = hits_range (load_down s !i) plo phi in
    if m = 0L then i := !i - 8 else hit := !i - lowest_lane m
  done;
  if !hit >= 0 then !hit
  else begin
    while
      !i > lo_pos
      &&
      let c = Char.code (String.unsafe_get s (!i - 1)) in
      c < lo || c > hi
    do
      decr i
    done;
    !i
  end
