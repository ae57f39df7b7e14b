(** Constant-memory streaming match over chunked input.

    A stream runs two DFAs in lockstep over the concatenation of the
    chunks fed to it, without ever buffering more than a 3-byte carry:

    - the {e anchored} DFA of the pattern, whose nullability at end of
      stream is the full-match verdict;
    - the {e unanchored} DFA of [⊤*·pattern], whose first nullable
      position is the earliest byte offset at which some substring
      match ends ({!Search.contains}, incrementalized).

    In [Utf8] mode a code point may straddle a chunk boundary; the
    stream detects the truncated prefix (≤ 2 bytes — see
    {!Byteclass.classify_scalar}) and carries it into the next chunk,
    so chunking is invisible: any split of an input yields exactly the
    same verdict, offsets and state trajectory as feeding it whole.
    {!finish} flushes a dangling carry with the same lossy U+FFFD
    semantics as {!Sbd_alphabet.Utf8.decode_lossy}. *)

module Obs = Sbd_obs.Obs

module Make (Ab : Sbd_absdom.Absdom.S) = struct
  module Search = Search.Make (Ab)
  module Bc = Search.Bc
  module Dfa = Search.Dfa

  type result = {
    full : bool;  (** the whole stream is in [L(pattern)] *)
    found_end : int option;
        (** earliest byte offset at which some substring match ends *)
    bytes : int;  (** total bytes consumed *)
  }

  type t = {
    search : Search.t;
    fwd : Dfa.t;
    un : Dfa.t;
    max_bytes : int option;
        (** abstract-length ceiling on a full match (bytes), from
            {!Search.t.abs_max_bytes}: once the stream is longer, the
            full-match verdict is settled [false] and the anchored DFA
            no longer needs stepping *)
    mutable fwd_q : int;
    mutable un_q : int;
    mutable found : int option;
    mutable overlong : bool;
        (** the stream has exceeded [max_bytes]: full-match verdict is
            settled [false]; [fwd_q] may be stale from this point on *)
    mutable bytes : int;  (** stream offset = bytes consumed so far *)
    carry : Bytes.t;  (** truncated UTF-8 prefix awaiting the next chunk *)
    mutable carry_len : int;
    mutable finished : bool;
  }

  let create (search : Search.t) : t =
    let un = Search.unanchored search in
    {
      search;
      fwd = search.Search.fwd;
      un;
      max_bytes = search.Search.abs_max_bytes;
      fwd_q = Dfa.start_id;
      un_q = Dfa.start_id;
      found = (if Dfa.is_nullable un Dfa.start_id then Some 0 else None);
      overlong = false;
      bytes = 0;
      carry = Bytes.create 3;
      carry_len = 0;
      finished = false;
    }

  (* One scalar (already classified) into both DFAs; [t.bytes] must
     already point at the scalar's end offset. *)
  let step_class (t : t) (cls : int) : unit =
    t.fwd_q <- Dfa.step t.fwd t.fwd_q cls;
    t.un_q <- Dfa.step t.un t.un_q cls;
    if t.found = None && Dfa.is_nullable t.un t.un_q then
      t.found <- Some t.bytes

  let step_cp (t : t) (cp : int) (width : int) : unit =
    t.bytes <- t.bytes + width;
    step_class t (Bc.classify_cp t.search.Search.bc cp)

  (* Bytes per hot-loop block: the spacing of deadline polls and
     dead/full short-circuit checks, mirroring {!Search}. *)
  let block = 4096

  (* The stream has outgrown the abstract length ceiling: no extension
     can be a full match, so the anchored DFA is settled.  Checked at
     block boundaries, so [overlong] may lag by ≤ one block — it is
     only ever set when [bytes] truly exceeds the ceiling. *)
  let settle_overlong (t : t) : unit =
    if not t.overlong then
      match t.max_bytes with
      | Some mx when t.bytes > mx -> t.overlong <- true
      | Some _ | None -> ()

  (* Is the anchored DFA pinned (dead, full, or settled overlong)?
     Pinned states are complete self-loops (and an overlong verdict
     never changes), so stepping them is a no-op and the hot loops skip
     it. *)
  let fwd_pinned (t : t) =
    t.overlong || Dfa.is_dead t.fwd t.fwd_q || Dfa.is_full t.fwd t.fwd_q

  (* Does the unanchored DFA still need stepping?  Once [found] is set
     it never changes, and a dead unanchored state (empty pattern
     language) never becomes nullable. *)
  let un_live (t : t) = t.found = None && not (Dfa.is_dead t.un t.un_q)

  (* Consume scalars of [s.[pos..limit)], returning where consumption
     stopped: [limit], or the start of a truncated trailing sequence
     (Utf8 mode only).

     Structured like the {!Search} scan loops: an inner loop over one
     {!block} steps both DFAs through locally cached flat transition
     tables ([trans.(q * num_classes + cls)]) with unsafe reads, and
     everything else — deadline polls, dead/full short-circuits, the
     settling of [found] — lives at block boundaries.  A slow-path
     {!Dfa.step} (cell miss) may grow or reset the table it belongs to,
     so it shrinks [stop] to force block re-entry, refetching the
     cached arrays.  The invariant [t.bytes = base + !p] lets the inner
     loop defer the byte counter to block exit while still recording
     exact end offsets into [found]. *)
  let consume ~deadline (t : t) (s : string) (pos : int) (limit : int) : int =
    let table = t.search.Search.bc.Bc.table in
    let fwd = t.fwd and un = t.un in
    let base = t.bytes - pos in
    let p = ref pos in
    let trunc = ref (-1) in
    let poll = not (Obs.Deadline.is_none deadline) in
    while !trunc < 0 && !p < limit do
      if poll then Obs.Deadline.check_now deadline;
      settle_overlong t;
      let f_live = not (fwd_pinned t) in
      let u_live = un_live t in
      if (not f_live) && not u_live then begin
        (* both DFAs self-loop from here on: no byte of the tail can
           change any state or settle [found], so only the byte count
           matters.  This also absorbs a truncated trailing sequence —
           carrying it and flushing U+FFFD at finish would step the
           same pinned states and count the same bytes. *)
        t.bytes <- t.bytes + (limit - !p);
        p := limit
      end
      else begin
        let stop = ref (min limit (!p + block)) in
        let ftrans = fwd.Dfa.trans and fnc = fwd.Dfa.num_classes in
        let utrans = un.Dfa.trans and unc = un.Dfa.num_classes in
        let uflags = un.Dfa.flags in
        let fq = ref t.fwd_q and uq = ref t.un_q in
        let ascii = ref true in
        while !ascii && !p < !stop do
          let cls =
            Array.unsafe_get table (Char.code (String.unsafe_get s !p))
          in
          if cls < 0 then ascii := false
          else begin
            (if f_live then begin
               let tgt = Array.unsafe_get ftrans ((!fq * fnc) + cls) in
               if tgt >= 0 then fq := tgt
               else begin
                 fq := Dfa.step fwd !fq cls;
                 stop := !p + 1
               end
             end);
            (if u_live then begin
               let tgt = Array.unsafe_get utrans ((!uq * unc) + cls) in
               if tgt >= 0 then begin
                 uq := tgt;
                 (* flags land 1 = f_nullable *)
                 if
                   t.found = None
                   && Char.code (Bytes.unsafe_get uflags tgt) land 1 <> 0
                 then t.found <- Some (base + !p + 1)
               end
               else begin
                 uq := Dfa.step un !uq cls;
                 if t.found = None && Dfa.is_nullable un !uq then
                   t.found <- Some (base + !p + 1);
                 stop := !p + 1
               end
             end);
            incr p
          end
        done;
        t.fwd_q <- !fq;
        t.un_q <- !uq;
        t.bytes <- base + !p;
        if not !ascii then begin
          (* one non-ASCII scalar through the general path, then back
             to the block loop *)
          match Byteclass.classify_scalar s !p limit with
          | `Cp (cp, w) ->
            step_cp t cp w;
            p := !p + w
          | `Malformed ->
            step_cp t Byteclass.replacement 1;
            incr p
          | `Truncated -> trunc := !p
        end
      end
    done;
    if !trunc < 0 then limit else !trunc

  (** Feed the next chunk (or a slice of it).  Raises [Invalid_argument]
      after {!finish}. *)
  let feed ?(deadline = Obs.Deadline.none) ?(off = 0) ?len (t : t)
      (chunk : string) : unit =
    if t.finished then invalid_arg "Sbd_engine.Stream.feed: stream finished";
    let len = match len with Some l -> l | None -> String.length chunk - off in
    if off < 0 || len < 0 || off + len > String.length chunk then
      invalid_arg "Sbd_engine.Stream.feed: bad slice";
    match t.search.Search.mode with
    | Byteclass.Byte ->
      (* every byte is a scalar (the class table has no deferred
         entries), so [consume] runs the pure block loop: no carry,
         no truncation *)
      ignore (consume ~deadline t chunk off (off + len) : int)
    | Byteclass.Utf8 ->
      let chunk_limit = off + len in
      let chunk_pos = ref off in
      if t.carry_len > 0 then begin
        (* Splice the carry with just enough of the chunk to settle every
           scalar that starts inside the carry: a start position < 3 plus
           a width ≤ 3 never looks past byte 6, so 6 chunk bytes suffice
           and [`Truncated] below can only mean the chunk itself ended. *)
        let take = min 6 len in
        let cl = t.carry_len in
        let head = Bytes.create (cl + take) in
        Bytes.blit t.carry 0 head 0 cl;
        Bytes.blit_string chunk off head cl take;
        let head = Bytes.unsafe_to_string head in
        let hlimit = cl + take in
        let p = ref 0 in
        let truncated = ref false in
        while (not !truncated) && !p < cl do
          match Byteclass.classify_scalar head !p hlimit with
          | `Cp (cp, w) ->
            step_cp t cp w;
            p := !p + w
          | `Malformed ->
            step_cp t Byteclass.replacement 1;
            incr p
          | `Truncated ->
            (* the whole (short) chunk is inside [head]: keep the tail *)
            truncated := true
        done;
        if !truncated then begin
          let rest = hlimit - !p in
          Bytes.blit_string head !p t.carry 0 rest;
          t.carry_len <- rest;
          chunk_pos := chunk_limit
        end
        else begin
          t.carry_len <- 0;
          chunk_pos := off + (!p - cl)
        end
      end;
      if !chunk_pos < chunk_limit then begin
        let stopped = consume ~deadline t chunk !chunk_pos chunk_limit in
        if stopped < chunk_limit then begin
          let rest = chunk_limit - stopped in
          Bytes.blit_string chunk stopped t.carry 0 rest;
          t.carry_len <- rest
        end
      end

  (** End of stream: flush any dangling carry and return the verdict.
      The carry is by construction a truncated prefix of a well-formed
      sequence, i.e. one maximal subpart: it reads as exactly {e one}
      U+FFFD, matching the one-shot lossy decode of the concatenated
      chunks ({!Sbd_alphabet.Utf8.decode_lossy}).  Idempotent. *)
  let finish (t : t) : result =
    if not t.finished then begin
      if t.carry_len > 0 then begin
        step_cp t Byteclass.replacement t.carry_len;
        t.carry_len <- 0
      end;
      settle_overlong t;
      t.finished <- true
    end;
    {
      (* [fwd_q] is stale once [overlong] settles, but then no
         extension of the stream was a full match anyway *)
      full = (not t.overlong) && Dfa.is_nullable t.fwd t.fwd_q;
      found_end = t.found;
      bytes = t.bytes;
    }
end
