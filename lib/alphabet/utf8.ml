(** UTF-8 encoding and decoding for BMP code points.

    The solver and matcher work on sequences of code points; real inputs
    arrive as UTF-8 bytes.  This module converts between the two,
    restricted to the BMP (1-3 byte sequences) to match the character
    theory used throughout, which mirrors the .NET/BMP setting of the
    paper.  Decoding is strict: overlong encodings, surrogate code
    points, truncated sequences and 4-byte (astral) sequences are
    rejected with a byte offset. *)

type error = Malformed of int  (** byte offset of the offending sequence *)

(** Decode a UTF-8 string into BMP code points. *)
let decode (s : string) : (int list, error) result =
  let n = String.length s in
  let rec go i acc =
    if i >= n then Ok (List.rev acc)
    else
      let b0 = Char.code s.[i] in
      if b0 < 0x80 then go (i + 1) (b0 :: acc)
      else if b0 < 0xC0 then Error (Malformed i) (* stray continuation *)
      else if b0 < 0xE0 then
        (* 2-byte sequence *)
        if i + 1 >= n then Error (Malformed i)
        else
          let b1 = Char.code s.[i + 1] in
          if b1 land 0xC0 <> 0x80 then Error (Malformed i)
          else
            let cp = ((b0 land 0x1F) lsl 6) lor (b1 land 0x3F) in
            if cp < 0x80 then Error (Malformed i) (* overlong *)
            else go (i + 2) (cp :: acc)
      else if b0 < 0xF0 then
        (* 3-byte sequence *)
        if i + 2 >= n then Error (Malformed i)
        else
          let b1 = Char.code s.[i + 1] and b2 = Char.code s.[i + 2] in
          if b1 land 0xC0 <> 0x80 || b2 land 0xC0 <> 0x80 then Error (Malformed i)
          else
            let cp =
              ((b0 land 0x0F) lsl 12) lor ((b1 land 0x3F) lsl 6) lor (b2 land 0x3F)
            in
            if cp < 0x800 then Error (Malformed i) (* overlong *)
            else if cp >= 0xD800 && cp <= 0xDFFF then Error (Malformed i)
              (* surrogate *)
            else go (i + 3) (cp :: acc)
      else Error (Malformed i) (* beyond the BMP *)
  in
  go 0 []

(** Encode BMP code points as UTF-8.  Raises [Invalid_argument] on
    out-of-range or surrogate code points. *)
let encode (cps : int list) : string =
  let buf = Buffer.create (List.length cps) in
  List.iter
    (fun cp ->
      if cp < 0 || cp > Algebra.max_char then
        invalid_arg (Printf.sprintf "Utf8.encode: code point %d out of BMP" cp)
      else if cp >= 0xD800 && cp <= 0xDFFF then
        invalid_arg (Printf.sprintf "Utf8.encode: surrogate code point %d" cp)
      else if cp < 0x80 then Buffer.add_char buf (Char.chr cp)
      else if cp < 0x800 then begin
        Buffer.add_char buf (Char.chr (0xC0 lor (cp lsr 6)));
        Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
      end
      else begin
        Buffer.add_char buf (Char.chr (0xE0 lor (cp lsr 12)));
        Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
        Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
      end)
    cps;
  Buffer.contents buf

(** [truncated_tail s i] holds when the bytes [s.[i..]] are a truncated
    multi-byte sequence cut off by end of input: a 2- or 3-byte lead
    followed only by continuation bytes, but fewer than the sequence
    needs.  Per the Unicode "maximal subpart" convention such a tail
    decodes as a {e single} U+FFFD, not one per byte. *)
let truncated_tail (s : string) (i : int) : bool =
  let n = String.length s in
  let b0 = Char.code s.[i] in
  if b0 < 0xC0 || b0 >= 0xF0 then false
  else
    let needed = if b0 < 0xE0 then 2 else 3 in
    n - i < needed
    &&
    let rec conts j = j >= n || (Char.code s.[j] land 0xC0 = 0x80 && conts (j + 1)) in
    conts (i + 1)

(** Decode, replacing malformed sequences with U+FFFD and continuing at
    the next byte (lossy, total), each scalar paired with the byte
    offset where it starts.  A truncated sequence at end of input is its
    own maximal subpart and reads as exactly one U+FFFD. *)
let decode_lossy_indexed (s : string) : (int * int) list =
  let n = String.length s in
  let rec go i acc =
    if i >= n then List.rev acc
    else
      (* try to decode one scalar at offset i *)
      let take len cp_check =
        if i + len <= n then
          match decode (String.sub s i len) with
          | Ok [ cp ] when cp_check cp -> Some cp
          | Ok _ | Error _ -> None
        else None
      in
      let b0 = Char.code s.[i] in
      let attempt =
        if b0 < 0x80 then Some (1, b0)
        else if b0 < 0xE0 then Option.map (fun cp -> (2, cp)) (take 2 (fun _ -> true))
        else if b0 < 0xF0 then Option.map (fun cp -> (3, cp)) (take 3 (fun _ -> true))
        else None
      in
      match attempt with
      | Some (len, cp) -> go (i + len) ((i, cp) :: acc)
      | None ->
        if truncated_tail s i then List.rev ((i, 0xFFFD) :: acc)
        else go (i + 1) ((i, 0xFFFD) :: acc)
  in
  go 0 []

(** {!decode_lossy_indexed} without the offsets. *)
let decode_lossy (s : string) : int list = List.map snd (decode_lossy_indexed s)
