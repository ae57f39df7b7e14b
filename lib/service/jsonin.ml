(** Minimal JSON parser for the service wire protocol, inverse of the
    builder in [Sbd_obs.Obs.Json].  Accepts the full JSON grammar
    (objects, arrays, strings with escapes, numbers, booleans, null)
    plus surrounding whitespace; strings decode [\uXXXX] escapes
    (including surrogate pairs) to UTF-8 bytes.  Errors carry the byte
    offset, so a malformed request can be reported precisely instead of
    crashing the server loop.  {!parse_sub} reads a document in place
    from a range of a larger string (a line of {!Lines}' buffer). *)

module J = Sbd_obs.Obs.Json

exception Error of int * string

(* The document is [src.[base, stop)]; offsets in errors are relative
   to [base]. *)
type state = { src : string; mutable pos : int; base : int; stop : int }

let fail st msg = raise (Error (st.pos - st.base, msg))
let peek st = if st.pos < st.stop then Some st.src.[st.pos] else None

let skip_ws st =
  while
    st.pos < st.stop
    &&
    match st.src.[st.pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false
  do
    st.pos <- st.pos + 1
  done

let expect st c =
  match peek st with
  | Some x when x = c -> st.pos <- st.pos + 1
  | _ -> fail st (Printf.sprintf "expected %C" c)

let literal st word value =
  let n = String.length word in
  if st.pos + n <= st.stop && String.sub st.src st.pos n = word then begin
    st.pos <- st.pos + n;
    value
  end
  else fail st (Printf.sprintf "expected %s" word)

let hex_digit st c =
  match c with
  | '0' .. '9' -> Char.code c - Char.code '0'
  | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
  | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
  | _ -> fail st "invalid hex digit in \\u escape"

let hex4 st =
  if st.pos + 4 > st.stop then fail st "truncated \\u escape";
  let v = ref 0 in
  for i = 0 to 3 do
    v := (!v * 16) + hex_digit st st.src.[st.pos + i]
  done;
  st.pos <- st.pos + 4;
  !v

(* UTF-8 encoding of one code point into [buf]. *)
let add_utf8 buf cp =
  if cp < 0x80 then Buffer.add_char buf (Char.chr cp)
  else if cp < 0x800 then begin
    Buffer.add_char buf (Char.chr (0xC0 lor (cp lsr 6)));
    Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
  end
  else if cp < 0x10000 then begin
    Buffer.add_char buf (Char.chr (0xE0 lor (cp lsr 12)));
    Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
  end
  else begin
    Buffer.add_char buf (Char.chr (0xF0 lor (cp lsr 18)));
    Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 12) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
  end

(* A string body is copied a maximal run at a time: the bytes up to the
   next ['"'] or ['\\'] (found a word at a time, {!Sbd_alphabet.Bytescan})
   go out with one substring copy, and a string with no escape at all is
   a single [String.sub] of the source. *)
let parse_string st =
  expect st '"';
  let src = st.src in
  let n = st.stop in
  let run_end i = Sbd_alphabet.Bytescan.forward src i n '"' '\\' '\\' in
  let start = st.pos in
  let stop = run_end start in
  if stop < n && src.[stop] = '"' then begin
    st.pos <- stop + 1;
    String.sub src start (stop - start)
  end
  else begin
    let buf = Buffer.create (stop - start + 16) in
    Buffer.add_substring buf src start (stop - start);
    st.pos <- stop;
    (* [st.pos] is where a run stopped: end of input, '"' or '\\' *)
    let rec go () =
      if st.pos >= n then fail st "unterminated string";
      let c = src.[st.pos] in
      st.pos <- st.pos + 1;
      if c = '"' then Buffer.contents buf
      else begin
        if st.pos >= n then fail st "truncated escape";
        let e = src.[st.pos] in
        st.pos <- st.pos + 1;
        match e with
        | '"' | '\\' | '/' ->
          Buffer.add_char buf e;
          next_run ()
        | 'b' -> Buffer.add_char buf '\b'; next_run ()
        | 'f' -> Buffer.add_char buf '\012'; next_run ()
        | 'n' -> Buffer.add_char buf '\n'; next_run ()
        | 'r' -> Buffer.add_char buf '\r'; next_run ()
        | 't' -> Buffer.add_char buf '\t'; next_run ()
        | 'u' ->
          let cp = hex4 st in
          let cp =
            (* High surrogate: look for the mandatory low half. *)
            if cp >= 0xD800 && cp <= 0xDBFF
               && st.pos + 6 <= n
               && src.[st.pos] = '\\'
               && src.[st.pos + 1] = 'u'
            then begin
              st.pos <- st.pos + 2;
              let lo = hex4 st in
              if lo >= 0xDC00 && lo <= 0xDFFF then
                0x10000 + ((cp - 0xD800) lsl 10) + (lo - 0xDC00)
              else fail st "invalid surrogate pair"
            end
            else cp
          in
          add_utf8 buf cp;
          next_run ()
        | _ -> fail st "invalid escape"
      end
    and next_run () =
      let stop = run_end st.pos in
      Buffer.add_substring buf src st.pos (stop - st.pos);
      st.pos <- stop;
      go ()
    in
    go ()
  end

let parse_number st =
  let start = st.pos in
  let adv () = st.pos <- st.pos + 1 in
  if peek st = Some '-' then adv ();
  while (match peek st with Some '0' .. '9' -> true | _ -> false) do
    adv ()
  done;
  let integral = ref true in
  if peek st = Some '.' then begin
    integral := false;
    adv ();
    while (match peek st with Some '0' .. '9' -> true | _ -> false) do
      adv ()
    done
  end;
  (match peek st with
  | Some ('e' | 'E') ->
    integral := false;
    adv ();
    (match peek st with Some ('+' | '-') -> adv () | _ -> ());
    while (match peek st with Some '0' .. '9' -> true | _ -> false) do
      adv ()
    done
  | _ -> ());
  let text = String.sub st.src start (st.pos - start) in
  if text = "" || text = "-" then fail st "invalid number"
  else if !integral then
    match int_of_string_opt text with
    | Some i -> J.Int i
    | None -> J.Float (float_of_string text)
  else J.Float (float_of_string text)

let rec parse_value st =
  skip_ws st;
  match peek st with
  | None -> fail st "unexpected end of input"
  | Some '{' ->
    expect st '{';
    skip_ws st;
    if peek st = Some '}' then begin
      expect st '}';
      J.Obj []
    end
    else begin
      let rec members acc =
        skip_ws st;
        let k = parse_string st in
        skip_ws st;
        expect st ':';
        let v = parse_value st in
        skip_ws st;
        match peek st with
        | Some ',' ->
          expect st ',';
          members ((k, v) :: acc)
        | Some '}' ->
          expect st '}';
          J.Obj (List.rev ((k, v) :: acc))
        | _ -> fail st "expected ',' or '}'"
      in
      members []
    end
  | Some '[' ->
    expect st '[';
    skip_ws st;
    if peek st = Some ']' then begin
      expect st ']';
      J.Arr []
    end
    else begin
      let rec elements acc =
        let v = parse_value st in
        skip_ws st;
        match peek st with
        | Some ',' ->
          expect st ',';
          elements (v :: acc)
        | Some ']' ->
          expect st ']';
          J.Arr (List.rev (v :: acc))
        | _ -> fail st "expected ',' or ']'"
      in
      elements []
    end
  | Some '"' -> J.Str (parse_string st)
  | Some 't' -> literal st "true" (J.Bool true)
  | Some 'f' -> literal st "false" (J.Bool false)
  | Some 'n' -> literal st "null" J.Null
  | Some ('-' | '0' .. '9') -> parse_number st
  | Some c -> fail st (Printf.sprintf "unexpected character %C" c)

(** [parse_sub src off len]: the document [src.[off, off + len)], read
    in place; error offsets count from [off]. *)
let parse_sub (src : string) (off : int) (len : int) : (J.t, string) result =
  if off < 0 || len < 0 || off > String.length src - len then
    invalid_arg "Jsonin.parse_sub";
  let st = { src; pos = off; base = off; stop = off + len } in
  match parse_value st with
  | v ->
    skip_ws st;
    if st.pos = st.stop then Ok v
    else Error (Printf.sprintf "trailing garbage at offset %d" (st.pos - off))
  | exception Error (pos, msg) ->
    Error (Printf.sprintf "%s at offset %d" msg pos)

let parse (src : string) : (J.t, string) result = parse_sub src 0 (String.length src)

(* -- accessors ----------------------------------------------------------- *)

(* The typed accessors deliberately ignore every other JSON shape:
   a request field of the wrong type reads as absent. *)
let member key = function[@warning "-4"]
  | J.Obj kvs -> List.assoc_opt key kvs
  | _ -> None

let str_member key j =
  match[@warning "-4"] member key j with Some (J.Str s) -> Some s | _ -> None

let float_member key j =
  match[@warning "-4"] member key j with
  | Some (J.Float f) -> Some f
  | Some (J.Int i) -> Some (float_of_int i)
  | _ -> None

let int_member key j =
  match[@warning "-4"] member key j with Some (J.Int i) -> Some i | _ -> None

let bool_member key j =
  match[@warning "-4"] member key j with Some (J.Bool b) -> Some b | _ -> None

(* -- draining line reader ------------------------------------------------ *)

(** Batched NDJSON input: one blocking read pulls {e all} bytes the OS
    has buffered (up to a chunk) and splits them into complete lines,
    so a client that pipelines requests costs one syscall per burst
    instead of one per line (DESIGN.md §17).  The trailing fragment of
    an incomplete line is kept for the next read; at EOF a non-empty
    fragment is delivered as a final unterminated line (matching
    [input_line] semantics).  Lines keep any ['\r'] and may be empty.

    Lines are handed out in place, as views [(s, off, len)] valid until
    the next read: a line that fits the 64 KB read chunk is a range of
    the chunk, and a longer one a prefix of the {e line buffer}, which
    the reader keeps from line to line.  Once that buffer has grown to
    a session's longest line, reading allocates nothing.  The newline
    scan resumes where it stopped and reads four words at a time
    ({!Sbd_alphabet.Bytescan}).

    A long line's head moves from the chunk to the line buffer, and the
    rest is read straight into it, so its bytes are copied once.  Only a
    line longer than the buffer takes the slow path: its overflow is
    read into fresh chunks (a spill list, no copy) and assembled once,
    at its newline, into a new buffer of the line's size.  A buffer
    above {!keep} bytes is dropped after its line, so one huge line does
    not pin its size for the rest of a session. *)
module Lines = struct
  type t = {
    ic : in_channel;
    mutable buf : Bytes.t;  (** the read chunk; pending bytes at [\[start, len)] *)
    mutable start : int;
    mutable len : int;
    mutable scanned : int;  (** [buf.\[start, scanned)] holds no ['\n'] *)
    mutable long : bool;
        (** a line longer than the chunk is pending: its head is
            [line.\[0, head)], then the spill, then [buf.\[0, len)] *)
    mutable line : Bytes.t;  (** the line buffer *)
    mutable head : int;
    mutable spill : Bytes.t list;  (** full chunks past [head], newest first *)
    mutable spilled : int;  (** their total length *)
    mutable eof : bool;
  }

  let chunk = 65536
  let keep = 64 * chunk

  let create ic =
    {
      ic;
      buf = Bytes.create chunk;
      start = 0;
      len = 0;
      scanned = 0;
      long = false;
      line = Bytes.empty;
      head = 0;
      spill = [];
      spilled = 0;
      eof = false;
    }

  (* Hand the complete lines of [buf.[start, len)] to [f]; whether
     there was one. *)
  let split t f =
    let s = Bytes.unsafe_to_string t.buf in
    let any = ref false in
    let i = ref (Sbd_alphabet.Bytescan.forward s t.scanned t.len '\n' '\n' '\n') in
    while !i < t.len do
      let off = t.start in
      t.start <- !i + 1;
      any := true;
      f s off (!i - off);
      i := Sbd_alphabet.Bytescan.forward s t.start t.len '\n' '\n' '\n'
    done;
    t.scanned <- t.len;
    !any

  (* A full chunk of the pending long line goes to the spill as it is. *)
  let spill_chunk t =
    t.spill <- t.buf :: t.spill;
    t.spilled <- t.spilled + chunk;
    t.buf <- Bytes.create chunk;
    t.len <- 0

  (* The pending long line ends at [buf.[stop]] (or [stop = len] at
     EOF): gather it into [line] and return its length. *)
  let assemble t stop =
    let total = t.head + t.spilled + stop in
    if total > Bytes.length t.line then begin
      let line = Bytes.create total in
      Bytes.blit t.line 0 line 0 t.head;
      t.line <- line
    end;
    ignore
      (List.fold_left
         (fun off p ->
           Bytes.blit p 0 t.line (off - chunk) chunk;
           off - chunk)
         (t.head + t.spilled) t.spill
        : int);
    Bytes.blit t.buf 0 t.line (t.head + t.spilled) stop;
    t.spill <- [];
    t.spilled <- 0;
    t.head <- 0;
    t.long <- false;
    total

  (** [read_views t f]: after one blocking read, [f s off len] for every
      complete line now available, in order, where the line is
      [s.[off, off + len)], without its ['\n'].  The views are valid
      until the next read.  Reads repeat until at least one line (or
      EOF) arrives; [false] at EOF once every buffered byte has been
      delivered. *)
  let rec read_views t (f : string -> int -> int -> unit) : bool =
    if t.long then read_long t f
    else begin
      (* the last read's views are spent: the pending bytes move to the
         front *)
      if t.start > 0 then begin
        Bytes.blit t.buf t.start t.buf 0 (t.len - t.start);
        t.len <- t.len - t.start;
        t.scanned <- t.scanned - t.start;
        t.start <- 0
      end;
      if Bytes.length t.line > keep then t.line <- Bytes.empty;
      if t.eof then
        t.len > 0
        && begin
             let n = t.len in
             t.len <- 0;
             t.scanned <- 0;
             f (Bytes.unsafe_to_string t.buf) 0 n;
             true
           end
      else if t.len = chunk then begin
        (* a full chunk with no newline is a long line's head *)
        t.long <- true;
        if Bytes.length t.line >= chunk then begin
          Bytes.blit t.buf 0 t.line 0 chunk;
          t.head <- chunk;
          t.len <- 0
        end
        else spill_chunk t;
        t.scanned <- 0;
        read_long t f
      end
      else begin
        let n = input t.ic t.buf t.len (chunk - t.len) in
        if n = 0 then t.eof <- true else t.len <- t.len + n;
        split t f || read_views t f
      end
    end

  and read_long t f =
    if t.spill = [] && t.head < Bytes.length t.line then begin
      (* the line buffer has room: read into it, after the head *)
      let head = t.head in
      let n = input t.ic t.line head (min chunk (Bytes.length t.line - head)) in
      let s = Bytes.unsafe_to_string t.line in
      if n = 0 then begin
        t.eof <- true;
        t.long <- false;
        t.head <- 0;
        f s 0 head;
        true
      end
      else begin
        let stop = head + n in
        let nl = Sbd_alphabet.Bytescan.forward s head stop '\n' '\n' '\n' in
        if nl = stop then begin
          t.head <- stop;
          read_long t f
        end
        else begin
          (* the bytes after the newline start the chunk *)
          Bytes.blit t.line (nl + 1) t.buf 0 (stop - nl - 1);
          t.len <- stop - nl - 1;
          t.start <- 0;
          t.scanned <- 0;
          t.long <- false;
          t.head <- 0;
          f s 0 nl;
          ignore (split t f : bool);
          true
        end
      end
    end
    else begin
      if t.len = chunk then spill_chunk t;
      let from = t.len in
      let n = input t.ic t.buf from (chunk - from) in
      if n = 0 then begin
        t.eof <- true;
        let total = assemble t t.len in
        t.len <- 0;
        f (Bytes.unsafe_to_string t.line) 0 total;
        true
      end
      else begin
        t.len <- from + n;
        let s = Bytes.unsafe_to_string t.buf in
        let nl = Sbd_alphabet.Bytescan.forward s from t.len '\n' '\n' '\n' in
        if nl = t.len then read_long t f
        else begin
          let total = assemble t nl in
          t.start <- nl + 1;
          t.scanned <- nl + 1;
          f (Bytes.unsafe_to_string t.line) 0 total;
          ignore (split t f : bool);
          true
        end
      end
    end

  (** All complete lines available after one blocking read, as fresh
      strings; [None] at EOF once every buffered byte has been
      delivered.  Never returns [Some []].  A line that fills the line
      buffer (one just assembled from spilled chunks) takes the buffer
      over instead of being copied, so a reader made for one long line
      copies it once. *)
  let read t : string list option =
    let lines = ref [] in
    let take s off len =
      let line =
        if off = 0 && len = Bytes.length t.line && s == Bytes.unsafe_to_string t.line
        then begin
          t.line <- Bytes.empty;
          s
        end
        else String.sub s off len
      in
      lines := line :: !lines
    in
    if read_views t take then Some (List.rev !lines) else None
end
