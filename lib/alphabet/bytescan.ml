(** Word-at-a-time byte search: the first (or last) byte of a string
    range that belongs to a set of at most three bytes.

    SWAR ("SIMD within a register"): each step loads 8 bytes as one
    [int64] and XORs them with each target byte broadcast to all 8
    lanes, so a lane holding a target byte becomes zero.  The exact
    has-zero-byte test

    {v (x - 0x0101…01) land (lnot x) land 0x8080…80 <> 0 v}

    is nonzero iff some lane of [x] is zero.  Which lane it flags is not
    exact (a borrow out of a zero lane can flag the lane above it), so a
    hit is resolved by a byte loop over the word, in the direction of
    the scan.  That also keeps the result independent of the machine's
    byte order.

    Loads use the unchecked [%caml_string_get64u]: the loop guards keep
    every 8-byte read inside the range.  The [int64] temporaries are
    let-bound and never escape, so native code keeps them unboxed and a
    scan allocates nothing. *)

external get64u : string -> int -> int64 = "%caml_string_get64u"

let lows = 0x0101010101010101L
let highs = 0x8080808080808080L

(** Byte [c] in every lane. *)
let[@inline] broadcast (c : char) : int64 =
  Int64.mul lows (Int64.of_int (Char.code c))

(** High bit of each zero lane of [x] (and possibly of lanes above a
    zero lane); zero iff no lane is zero. *)
let[@inline] zero_lanes (x : int64) : int64 =
  Int64.logand (Int64.logand (Int64.sub x lows) (Int64.lognot x)) highs

(* The word loops.  A forward loop steps [i] by 8 and stops at the
   first word that holds a set byte, or where fewer than 8 bytes are
   left; a backward loop steps down from [i] the same way, the word
   being the 8 bytes below it.  A set of fewer than three bytes repeats
   one, so every search pays the three has-zero tests per word. *)

let[@inline] hit3 w p1 p2 p3 =
  Int64.logor
    (zero_lanes (Int64.logxor w p1))
    (Int64.logor (zero_lanes (Int64.logxor w p2)) (zero_lanes (Int64.logxor w p3)))
  <> 0L

let fwd_words s i limit c1 c2 c3 =
  let p1 = broadcast c1 and p2 = broadcast c2 and p3 = broadcast c3 in
  let i = ref i in
  while !i + 8 <= limit && not (hit3 (get64u s !i) p1 p2 p3) do
    i := !i + 8
  done;
  !i

let back_words s lo i c1 c2 c3 =
  let p1 = broadcast c1 and p2 = broadcast c2 and p3 = broadcast c3 in
  let i = ref i in
  while !i - 8 >= lo && not (hit3 (get64u s (!i - 8)) p1 p2 p3) do
    i := !i - 8
  done;
  !i

(** [forward s pos limit c1 c2 c3]: the least [i] in [\[pos, limit)]
    with [s.[i]] one of [c1], [c2], [c3], or [limit] if there is none.
    Repeat a byte to search for fewer than three. *)
let forward (s : string) (pos : int) (limit : int) (c1 : char) (c2 : char)
    (c3 : char) : int =
  (* then at most 7 tail bytes, or the word that holds a hit *)
  let i = ref (fwd_words s pos limit c1 c2 c3) in
  while
    !i < limit
    &&
    let c = String.unsafe_get s !i in
    c <> c1 && c <> c2 && c <> c3
  do
    incr i
  done;
  !i

(** [backward s lo hi c1 c2 c3]: the greatest [p] in [\[lo, hi\]] such
    that [p = lo] or [s.[p - 1]] is one of [c1], [c2], [c3], and no
    byte of [s.\[p, hi)] is.  This is where a right-to-left scan from
    [hi] stops: just after the last set byte below [hi]. *)
let backward (s : string) (lo : int) (hi : int) (c1 : char) (c2 : char)
    (c3 : char) : int =
  let i = ref (back_words s lo hi c1 c2 c3) in
  while
    !i > lo
    &&
    let c = String.unsafe_get s (!i - 1) in
    c <> c1 && c <> c2 && c <> c3
  do
    decr i
  done;
  !i
