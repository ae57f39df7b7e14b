(** The literal prefilters and length bounds both match engines put in
    front of their scans ({!Search} for plain patterns, {!Locmatch} for
    located ones; DESIGN.md §13).

    {!Sbd_analysis.Literals} proves a prefix, a suffix and a factor
    that every match spells, and {!Sbd_absdom.Absdom} bounds a match's
    length in code points.  This module turns them into byte-level
    tests:

    - an absent factor (or prefix) rules out every match, and where
      they first occur bounds where a match can start
      ({!earliest_start});
    - an input that does not start with the prefix, or end with the
      suffix, is no full match ({!rules_out_full});
    - a length bound in code points becomes one in bytes
      ({!byte_bounds}). *)

(* -- substring search ----------------------------------------------------- *)

(** Boyer–Moore–Horspool bad-character shift table for [needle]. *)
let horspool_shift (needle : string) : int array =
  let m = String.length needle in
  let shift = Array.make 256 m in
  for i = 0 to m - 2 do
    shift.(Char.code (String.unsafe_get needle i)) <- m - 1 - i
  done;
  shift

(** Offset of the first occurrence of [needle] in [s], or [-1].
    Horspool: sublinear on typical text (the common no-match case
    advances [length needle] bytes per probe); a one-byte needle is a
    word-at-a-time {!Sbd_alphabet.Bytescan} search. *)
let index_sub (s : string) (needle : string) (shift : int array) : int =
  let m = String.length needle and n = String.length s in
  if m = 0 then 0
  else if m = 1 then begin
    let c = String.unsafe_get needle 0 in
    let i = Sbd_alphabet.Bytescan.forward s 0 n c c c in
    if i < n then i else -1
  end
  else begin
    let last = m - 1 in
    let lc = String.unsafe_get needle last in
    let i = ref last in
    let found = ref (-1) in
    while !found < 0 && !i < n do
      let c = String.unsafe_get s !i in
      if c = lc then begin
        let j = ref (m - 2) in
        let base = !i - last in
        while !j >= 0 && String.unsafe_get needle !j = String.unsafe_get s (base + !j)
        do
          decr j
        done;
        if !j < 0 then found := base
        else i := !i + Array.unsafe_get shift (Char.code c)
      end
      else i := !i + Array.unsafe_get shift (Char.code c)
    done;
    !found
  end

(* -- literals ------------------------------------------------------------- *)

(** One proven literal, as bytes. *)
type t =
  | Pre_none  (** nothing proven *)
  | Pre_impossible
      (** the pattern forces a literal no byte input can spell (e.g. a
          non-Latin-1 code point in [Byte] mode): no input has a
          match *)
  | Pre_factor of { bytes : string; shift : int array }
      (** every match spells [bytes]; [shift] is its Horspool table *)

(** The byte form of the code-point literal [cps] in [mode]. *)
let of_cps ~(mode : Byteclass.mode) (cps : int list) : t =
  match cps with
  | [] -> Pre_none
  | cps -> (
    let factor bytes = Pre_factor { bytes; shift = horspool_shift bytes } in
    match mode with
    | Byteclass.Byte ->
      if List.for_all (fun c -> c < 256) cps then
        factor (String.init (List.length cps) (fun i -> Char.chr (List.nth cps i)))
      else Pre_impossible
    | Byteclass.Utf8 ->
      (* U+FFFD also stands for malformed bytes in the decoded
         stream, so its canonical encoding is not a faithful witness;
         surrogates can never be decoded at all *)
      if List.mem Byteclass.replacement cps then Pre_none
      else if List.exists (fun c -> c >= 0xD800 && c <= 0xDFFF) cps then
        Pre_impossible
      else factor (Sbd_alphabet.Utf8.encode cps))

(** Byte length of a literal; 0 = none. *)
let length = function
  | Pre_factor { bytes; _ } -> String.length bytes
  | Pre_none | Pre_impossible -> 0

(** First occurrence in [s]: [0] for no literal, [-1] for none. *)
let index (p : t) (s : string) : int =
  match p with
  | Pre_none -> 0
  | Pre_impossible -> -1
  | Pre_factor { bytes; shift } -> index_sub s bytes shift

(** The three literals of a pattern.  A decoded scalar other than
    U+FFFD is the canonical encoding of its code point, so a decoded
    stream that starts with (ends with, contains) a literal's code
    points has bytes that start with (end with, contain) its
    encoding. *)
type lits = { prefix : t; suffix : t; factor : t }

let lits ~mode ~prefix ~suffix ~factor =
  {
    prefix = of_cps ~mode prefix;
    suffix = of_cps ~mode suffix;
    factor = of_cps ~mode factor;
  }

(** [true] when [s] is provably not a full match: it does not start
    with the prefix or does not end with the suffix.  The factor is
    left to the callers that have not yet searched for it. *)
let rules_out_full (l : lits) (s : string) : bool =
  let fits test = function
    | Pre_none -> true
    | Pre_impossible -> false
    | Pre_factor { bytes; _ } -> test bytes
  in
  not
    (fits (fun prefix -> String.starts_with ~prefix s) l.prefix
    && fits (fun suffix -> String.ends_with ~suffix s) l.suffix)

(* -- length bounds -------------------------------------------------------- *)

(** A code-point length interval in bytes: every code point of the
    decoded stream (U+FFFD for malformed input included) takes at least
    one byte, and at most one in [Byte] mode or three in [Utf8] mode.
    The decoder reads the BMP only ({!Byteclass.classify_scalar}): a
    4-byte sequence is four malformed bytes, four U+FFFD, and a
    truncated tail is at most a lead and one continuation byte. *)
let byte_bounds ~(mode : Byteclass.mode) ~lmin ~(lmax : int option) :
    int * int option =
  ( max 0 lmin,
    match lmax with
    | Some mx -> (
      match mode with
      | Byteclass.Byte -> Some mx
      | Byteclass.Utf8 when mx <= max_int / 3 -> Some (3 * mx)
      | Byteclass.Utf8 -> None)
    | None -> None )

(** [max_bytes] where it is shorter than an input of [n] bytes, else
    [None]: a bound of [n] or more cuts nothing, and keeping it below
    [n] keeps offset sums such as [e + l] far from [max_int] (a client's
    counter bound can push [max_bytes] up to it). *)
let span_bound (max_bytes : int option) (n : int) : int option =
  match max_bytes with
  | Some l when 0 <= l && l < n -> Some l
  | Some _ | None -> None

(** The least byte offset at which a match can start in [s], or [-1]
    when none can: every match spells the factor, so it ends at or
    after [f + |factor|] ([f] the first occurrence) and, spanning at
    most [max_bytes], starts at or after [f + |factor| − max_bytes];
    every match starts with the prefix, so at or after its first
    occurrence.  The caller moves the offset down to a scalar start. *)
let earliest_start (l : lits) ~(max_bytes : int option) (s : string) : int =
  match index l.factor s with
  | -1 -> -1
  | f -> (
    let by_factor =
      match span_bound max_bytes (String.length s) with
      | Some m -> max 0 (f + length l.factor - m)
      | None -> 0
    in
    let by_prefix =
      match[@warning "-4"] (l.prefix, l.factor) with
      | Pre_factor p, Pre_factor q when p.bytes = q.bytes -> f
      | p, _ -> index p s
    in
    match by_prefix with -1 -> -1 | i -> max by_factor i)
