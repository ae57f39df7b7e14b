(** UTF-8 encoding and decoding for BMP code points (strict 1-3 byte
    sequences; astral code points are out of the character theory used by
    this library). *)

type error = Malformed of int  (** byte offset of the offending sequence *)

val decode : string -> (int list, error) result
(** Strict decoding: rejects overlong encodings, surrogates, truncated
    sequences and 4-byte sequences. *)

val encode : int list -> string
(** Encode BMP code points.  Raises [Invalid_argument] on out-of-range or
    surrogate code points. *)

val decode_lossy : string -> int list
(** Total decoding: malformed bytes become U+FFFD. *)

val decode_lossy_indexed : string -> (int * int) list
(** {!decode_lossy}, each scalar as [(offset, cp)]: the byte offset where
    it starts, and its code point. *)
