(** Minimal JSON parser for the service wire protocol, inverse of the
    builder in [Sbd_obs.Obs.Json].  Accepts the full JSON grammar
    (objects, arrays, strings with escapes, numbers, booleans, null)
    plus surrounding whitespace; strings decode [\uXXXX] escapes
    (including surrogate pairs) to UTF-8 bytes.  Errors carry the byte
    offset, so a malformed request can be reported precisely instead of
    crashing the server loop. *)

module J = Sbd_obs.Obs.Json

exception Error of int * string

type state = { src : string; mutable pos : int }

let fail st msg = raise (Error (st.pos, msg))
let peek st = if st.pos < String.length st.src then Some st.src.[st.pos] else None

let skip_ws st =
  while
    st.pos < String.length st.src
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
  if
    st.pos + n <= String.length st.src
    && String.sub st.src st.pos n = word
  then begin
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
  if st.pos + 4 > String.length st.src then fail st "truncated \\u escape";
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
  let n = String.length src in
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

let parse (src : string) : (J.t, string) result =
  let st = { src; pos = 0 } in
  match parse_value st with
  | v ->
    skip_ws st;
    if st.pos = String.length src then Ok v
    else Error (Printf.sprintf "trailing garbage at offset %d" st.pos)
  | exception Error (pos, msg) ->
    Error (Printf.sprintf "%s at offset %d" msg pos)

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

    Linear in the input: the newline scan resumes where the last one
    stopped and reads a word at a time ({!Sbd_alphabet.Bytescan}), and
    each line is copied out exactly once.  The buffer is
    one chunk; a line longer than that hands each full chunk over to a
    spill list (no copy) and is assembled once, at its newline, so the
    reader is back at one chunk as soon as the long line is delivered. *)
module Lines = struct
  type t = {
    ic : in_channel;
    mutable buf : Bytes.t;  (** one chunk; pending bytes at [\[0, len)] *)
    mutable len : int;
    mutable scanned : int;  (** [buf.\[0, scanned)] holds no ['\n'] *)
    mutable spill : Bytes.t list;
        (** full chunks of the pending line's head, newest first *)
    mutable spilled : int;  (** their total length *)
    mutable eof : bool;
  }

  let chunk = 65536

  let create ic =
    {
      ic;
      buf = Bytes.create chunk;
      len = 0;
      scanned = 0;
      spill = [];
      spilled = 0;
      eof = false;
    }

  (* The pending line: the spill, then [buf.[start, stop)]. *)
  let take t start stop =
    match t.spill with
    | [] -> Bytes.sub_string t.buf start (stop - start)
    | pieces ->
      let line = Bytes.create (t.spilled + stop - start) in
      ignore
        (List.fold_left
           (fun off p ->
             let off = off - Bytes.length p in
             Bytes.blit p 0 line off (Bytes.length p);
             off)
           t.spilled pieces
          : int);
      Bytes.blit t.buf start line t.spilled (stop - start);
      t.spill <- [];
      t.spilled <- 0;
      Bytes.unsafe_to_string line

  (* Cut the complete lines out of the unscanned bytes and move the
     remainder to the front. *)
  let split t =
    let lines = ref [] and start = ref 0 in
    (* the scan only reads [buf], so it may see it as a string *)
    let buf = Bytes.unsafe_to_string t.buf in
    let nl i = Sbd_alphabet.Bytescan.forward buf i t.len '\n' '\n' '\n' in
    let i = ref (nl t.scanned) in
    while !i < t.len do
      lines := take t !start !i :: !lines;
      start := !i + 1;
      i := nl !start
    done;
    let rest = t.len - !start in
    if !start > 0 then Bytes.blit t.buf !start t.buf 0 rest;
    t.len <- rest;
    t.scanned <- rest;
    List.rev !lines

  (** All complete lines available after one blocking read; [None] at
      EOF once every buffered byte has been delivered.  Never returns
      [Some []]: reads repeat until at least one full line (or EOF)
      arrives. *)
  let rec read t : string list option =
    if t.eof then
      if t.len > 0 || t.spill <> [] then begin
        let line = take t 0 t.len in
        t.len <- 0;
        t.scanned <- 0;
        Some [ line ]
      end
      else None
    else begin
      if t.len = chunk then begin
        (* a full buffer with no newline is one line's head *)
        t.spill <- t.buf :: t.spill;
        t.spilled <- t.spilled + chunk;
        t.buf <- Bytes.create chunk;
        t.len <- 0;
        t.scanned <- 0
      end;
      let n = input t.ic t.buf t.len (chunk - t.len) in
      if n = 0 then begin
        t.eof <- true;
        read t
      end
      else begin
        t.len <- t.len + n;
        match split t with [] -> read t | lines -> Some lines
      end
    end
end
