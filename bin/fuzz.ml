(* Differential fuzzer: generates random extended regexes and words and
   cross-checks every engine in the repository against the independent
   dynamic-programming oracle:

     - derivative matching (Sbd_core.Deriv)
     - classical Brzozowski matching (Sbd_classic.Brzozowski)
     - SBFA acceptance (Sbd_core.Sbfa)
     - SRM-style lazy DFA (Sbd_classic.Brzozowski.Dfa)
     - the byte-level match engine (Sbd_engine): full-match verdicts in
       Byte and Utf8 modes, linear find spans, earliest match ends and
       prefix counts vs the lazy DFA's per-position scans and a
       brute-force reference, a max_states=2 engine that forces the
       DFA cache-reset path on every non-trivial pattern, and
       bounded-length find on 4 KB inputs (the window path) vs the
       per-position scans
     - solver verdicts + witnesses (Sbd_solver, dz3)
     - minterm baseline verdicts (Sbd_classic.Minterm_solver)
     - coinductive equivalence vs complement-based equivalence
     - containment prover (Sbd_contain) vs the is_empty (r & ~s)
       reduction, with witness validation against the oracle
     - a generational service worker (memo_cap 0: a fresh tower for
       every query) vs Default's solver, with witness validation
     - accelerated states: long runs of one filler piece with words
       planted as exit bytes around word edges, the skip cap and the
       ends, in both engines and both modes, vs linear derivative
       references (the round fails unless some skip fired)
     - located engine (Sbd_engine.Locmatch) on random anchored /
       lookaround patterns vs the all-splits oracle (Locref): full
       verdicts and earliest match ends in Byte and Utf8 modes, and the
       anchor-elimination translation (lower) vs the plain oracle;
       a lossy Utf8 round on raw bytes (malformed sequences included)
       vs the oracle over Utf8.decode_lossy, on the round's pattern
       and on one around a lookahead, with a max_states=1 engine that
       forces the located table-reset path, and a windows round: a
       witness planted past 2 KB behind decoys, with lossy scalars at
       the window edges, vs a whole-input derivative reference

   Usage: fuzz [--rounds N] [--seed S] [--size K]
   Exits non-zero and prints the offending regex on the first mismatch,
   so it can be used in CI or for long background soaking. *)

module A = Sbd_service.Default.A
module R = Sbd_service.Default.R
module D = Sbd_service.Default.D
module S = Sbd_service.Default.S
module Ref = Sbd_service.Default.Ref
module Simp = Sbd_service.Default.Simp
module Sbfa = Sbd_core.Sbfa.Make (R)
module Brz = Sbd_classic.Brzozowski.Make (R)
module MSolve = Sbd_classic.Minterm_solver.Make (R)
module An = Sbd_service.Default.An
module Ab = Sbd_service.Default.Ab
module C = Sbd_service.Default.C
module Eng = Sbd_service.Default.Eng
module U = Sbd_alphabet.Utf8
module LR = Sbd_service.Default.LR
module LRef = Sbd_service.Default.LRef
module LM = Sbd_service.Default.LM
module Protocol = Sbd_service.Protocol

let alphabet = List.map Char.code [ 'a'; 'b'; '0'; '1'; 'x' ]

(* The UTF-8 rounds add multi-byte scalars (2- and 3-byte encodings)
   so engine decoding, not just classification, is on the line. *)
let alphabet_u = alphabet @ [ 0xE9; 0x4E2D ]

let preds =
  let r lo hi = A.of_ranges [ (Char.code lo, Char.code hi) ] in
  [ r 'a' 'a'; r 'b' 'b'; r '0' '0'; r '1' '1'; r 'a' 'b'; r '0' '1'
  ; A.neg (r 'a' 'a'); A.top ]

(* [counters:true] biases generation toward counted loops with larger
   (and sometimes open-ended) bounds, so a dedicated seed can soak the
   counter arithmetic of the abstract length domain and the loop
   unrolling of every engine. *)
let gen_regex ?(counters = false) rand size =
  let rec go n =
    if n <= 1 then
      match Random.State.int rand 8 with
      | 0 -> R.eps
      | 1 -> R.empty
      | _ -> R.pred (List.nth preds (Random.State.int rand (List.length preds)))
    else
      let sub () = go (n / 2) in
      if counters && Random.State.int rand 3 = 0 then
        let lo = Random.State.int rand 5 in
        let hi =
          if Random.State.bool rand then Some (lo + Random.State.int rand 5)
          else None
        in
        R.loop (sub ()) lo hi
      else
        match Random.State.int rand 14 with
        | 0 | 1 | 2 -> R.concat (sub ()) (sub ())
        | 3 | 4 | 5 -> R.alt (sub ()) (sub ())
        | 6 | 7 -> R.star (sub ())
        | 8 ->
          let m = Random.State.int rand 3 in
          R.loop (sub ()) m (Some (m + Random.State.int rand 3))
        | 9 | 10 -> R.inter (sub ()) (sub ())
        | 11 | 12 -> R.compl (sub ())
        | _ -> go 1
  in
  go size

(* Located patterns: the leaf pool adds anchors and lookarounds (with
   small plain bodies from [gen_regex]), the spine reuses the extended
   combinators.  Leaf count is bounded by [size], so the distinct
   zero-width atoms stay well under the engine's mask width. *)
let gen_loc_regex rand size =
  let rec go n =
    if n <= 1 then
      match Random.State.int rand 10 with
      | 0 -> LR.eps
      | 1 -> LR.begin_
      | 2 -> LR.end_
      | 3 | 4 ->
        let behind = Random.State.bool rand in
        let neg = Random.State.bool rand in
        LR.look ~behind ~neg (gen_regex rand 3)
      | _ -> LR.pred (List.nth preds (Random.State.int rand (List.length preds)))
    else
      let sub () = go (n / 2) in
      match Random.State.int rand 12 with
      | 0 | 1 | 2 | 3 -> LR.concat (sub ()) (sub ())
      | 4 | 5 | 6 -> LR.alt (sub ()) (sub ())
      | 7 | 8 -> LR.star (sub ())
      | 9 -> LR.inter (sub ()) (sub ())
      | 10 -> LR.compl (sub ())
      | _ -> go 1
  in
  go size

let gen_word rand =
  List.init (Random.State.int rand 7) (fun _ ->
      List.nth alphabet (Random.State.int rand (List.length alphabet)))

let gen_word_u rand =
  List.init (Random.State.int rand 7) (fun _ ->
      List.nth alphabet_u (Random.State.int rand (List.length alphabet_u)))

(* Raw bytes for the lossy-UTF-8 rounds: ASCII and well-formed scalars
   mixed with stray continuations, truncated, overlong, surrogate and
   4-byte sequences (the engine is BMP-only, so the last are malformed
   too). *)
let lossy_pieces =
  [| "a"; "b"; "0"; "1"; "x"; "\xc3\xa9"; "\xe4\xb8\xad"; "\x80"; "\xbf"
   ; "\xe4\xb8"; "\xc3"; "\xc0\xaf"; "\xe0\x80\xaf"; "\xed\xa0\x80"
   ; "\xf0\x9f\x98\x80"; "\xff" |]

let gen_lossy_bytes rand =
  String.concat ""
    (List.init (Random.State.int rand 9) (fun _ ->
         lossy_pieces.(Random.State.int rand (Array.length lossy_pieces))))

let string_of_word (w : int list) : string =
  String.init (List.length w) (fun i -> Char.chr (List.nth w i))

(* The scalars of [s] in [mode], and the byte offset of each boundary. *)
let scalars mode (s : string) : int array * int array =
  let n = String.length s in
  match mode with
  | Sbd_engine.Byteclass.Byte -> (Array.init n (fun i -> Char.code s.[i]), Array.init (n + 1) Fun.id)
  | Sbd_engine.Byteclass.Utf8 ->
    let cps = ref [] and bnd = ref [ 0 ] and pos = ref 0 in
    while !pos < n do
      let cp, pos' = Sbd_engine.Byteclass.scalar_forward s !pos n in
      cps := cp :: !cps;
      bnd := pos' :: !bnd;
      pos := pos'
    done;
    (Array.of_list (List.rev !cps), Array.of_list (List.rev !bnd))

(* A plain reference for inputs past the brute force's reach: classic
   derivatives over the decoded input, memoized per code point and term,
   with no byte tables, skips or windows.  Returns the full-match
   verdict, the leftmost-earliest span and the number of match starts
   below the end (byte offsets), from one backward pass of [⊤*·rev r]
   and forward passes of [r]. *)
let plain_ref_run mode (r : R.t) (s : string) : bool * (int * int) option * int =
  let cps, bnd = scalars mode s in
  let k = Array.length cps in
  let memo = Hashtbl.create 64 in
  let d cp p =
    let key = (cp, R.hash p) in
    match List.assq_opt p (Option.value ~default:[] (Hashtbl.find_opt memo key)) with
    | Some q -> q
    | None ->
      let q = Brz.derive cp p in
      Hashtbl.replace memo key
        ((p, q) :: Option.value ~default:[] (Hashtbl.find_opt memo key));
      q
  in
  let full = R.nullable (Array.fold_left (fun p cp -> d cp p) r cps) in
  let starts = Array.make (k + 1) false in
  let p = ref (R.concat R.full (R.rev r)) in
  for i = k downto 0 do
    starts.(i) <- R.nullable !p;
    if i > 0 then p := d cps.(i - 1) !p
  done;
  let count = ref 0 in
  for i = 0 to k - 1 do
    if starts.(i) then incr count
  done;
  let rec least i = if i > k then None else if starts.(i) then Some i else least (i + 1) in
  let span =
    Option.bind (least 0) (fun i0 ->
        let rec go p j =
          if R.nullable p then Some (bnd.(i0), bnd.(j))
          else if j = k then None
          else go (d cps.(j) p) (j + 1)
        in
        go r i0)
  in
  (full, span, !count)

(* A located reference for inputs past Locref's reach: every atom's
   truth at every boundary from one plain derivative pass over the
   whole decoded input, then the located derivative walks of [⊤*·t] and
   [t] from offset 0, memoized per (term, code point, valuation).  No
   byte tables, windows, prefilters or records.  Returns [full] and the
   earliest match end as a byte offset. *)
let loc_ref_run mode (t : LR.t) (s : string) : bool * int option =
  let cps, bnd = scalars mode s in
  let k = Array.length cps in
  let memo = Hashtbl.create 256 in
  let deriv ~sat m cp p =
    let key = (p.LR.id, cp, m) in
    match Hashtbl.find_opt memo key with
    | Some d -> d
    | None ->
      let d = LR.deriv ~sat cp p in
      Hashtbl.add memo key d;
      d
  in
  let none _ = false in
  let atoms = Array.of_list (LR.atoms t) in
  let truths =
    Array.map
      (fun a ->
        let tr = Array.make (k + 1) false in
        (match a with
        | LR.Abegin -> tr.(0) <- true
        | LR.Aend -> tr.(k) <- true
        | LR.Alook { behind = true; body } ->
          let p = ref (LR.concat LR.full (LR.of_plain body)) in
          for i = 0 to k do
            tr.(i) <- !p.LR.nul;
            if i < k then p := deriv ~sat:none (-1) cps.(i) !p
          done
        | LR.Alook { behind = false; body } ->
          let p = ref (LR.concat LR.full (LR.of_plain (R.rev body))) in
          for i = k downto 0 do
            tr.(i) <- !p.LR.nul;
            if i > 0 then p := deriv ~sat:none (-1) cps.(i - 1) !p
          done);
        tr)
      atoms
  in
  let mask i =
    let m = ref 0 in
    Array.iteri (fun j tr -> if tr.(i) then m := !m lor (1 lsl j)) truths;
    !m
  in
  let sat m a =
    let rec idx j = if LR.atom_equal atoms.(j) a then j else idx (j + 1) in
    m land (1 lsl idx 0) <> 0
  in
  let rec first p i =
    let m = mask i in
    if LR.nullable ~sat:(sat m) p then Some bnd.(i)
    else if i = k || LR.equal p LR.empty then None
    else first (deriv ~sat:(sat m) m cps.(i) p) (i + 1)
  in
  let rec whole p i =
    let m = mask i in
    if i = k then LR.nullable ~sat:(sat m) p
    else (not (LR.equal p LR.empty)) && whole (deriv ~sat:(sat m) m cps.(i) p) (i + 1)
  in
  (whole t 0, first (LR.concat LR.full t) 0)

(* Brute-force leftmost-earliest span over code-point indices (= byte
   offsets for ASCII words): minimal start, then minimal end. *)
let ref_find r (w : int list) : (int * int) option =
  let a = Array.of_list w in
  let n = Array.length a in
  let sub i j = Array.to_list (Array.sub a i (j - i)) in
  let res = ref None in
  (try
     for i = 0 to n do
       for j = i to n do
         if Ref.matches r (sub i j) then begin
           res := Some (i, j);
           raise Exit
         end
       done
     done
   with Exit -> ());
  !res

(* Brute-force count of positions [i < n] from which some prefix
   matches. *)
let ref_count r (w : int list) : int =
  let a = Array.of_list w in
  let n = Array.length a in
  let sub i j = Array.to_list (Array.sub a i (j - i)) in
  let count = ref 0 in
  for i = 0 to n - 1 do
    let hit = ref false in
    for j = i to n do
      if (not !hit) && Ref.matches r (sub i j) then hit := true
    done;
    if !hit then incr count
  done;
  !count

(* Brute-force earliest match end: the minimal [j] such that some
   [w.[i..j)] matches, as an index into [w]. *)
let ref_earliest_end r (w : int list) : int option =
  let a = Array.of_list w in
  let n = Array.length a in
  let sub i j = Array.to_list (Array.sub a i (j - i)) in
  let res = ref None in
  (try
     for j = 0 to n do
       for i = 0 to j do
         if !res = None && Ref.matches r (sub i j) then begin
           res := Some j;
           raise Exit
         end
       done
     done
   with Exit -> ());
  !res

let words_upto n =
  let rec go n =
    if n = 0 then [ [] ]
    else
      [] :: List.concat_map (fun w -> List.map (fun c -> c :: w) alphabet) (go (n - 1))
  in
  List.sort_uniq compare (go n)

let short_words = words_upto 3

exception Mismatch of string

let fail_at ?word round what r =
  let ctx =
    match word with
    | None -> ""
    | Some w ->
      Printf.sprintf " (word [%s])"
        (String.concat ";" (List.map string_of_int w))
  in
  raise
    (Mismatch
       (Printf.sprintf "round %d: %s disagrees on %s%s" round what
          (R.to_string r) ctx))

let fail_at_loc ?word round what (lr : LR.t) =
  let ctx =
    match word with
    | None -> ""
    | Some w ->
      Printf.sprintf " (word [%s])"
        (String.concat ";" (List.map string_of_int w))
  in
  raise
    (Mismatch
       (Printf.sprintf "round %d: %s disagrees on located %s%s" round what
          (LR.to_string lr) ctx))

let run ~rounds ~seed ~size ~counters =
  let rand = Random.State.make [| seed |] in
  let session = S.create_session () in
  let csession = C.create_session () in
  let total_resets = ref 0 in
  let total_prefilter = ref 0 and total_accel = ref 0 in
  let total_window = ref 0 and total_window_inside = ref 0 in
  let total_loc_anchor = ref 0 and total_loc_look = ref 0 in
  let total_loc_lower = ref 0 in
  let total_loc_lossy = ref 0 and total_loc_resets = ref 0 in
  let total_loc_window = ref 0 and total_loc_window_inside = ref 0 in
  let total_presolve_unsat = ref 0 and total_presolve_sat = ref 0 in
  let total_skip_rounds = ref 0 and total_skip_bytes = ref 0 in
  let (module W) = Sbd_service.Worker.create ~memo_cap:0 () in
  let generations0 = Sbd_obs.Obs.Counter.value Sbd_service.Worker.c_memo_clears in
  for round = 1 to rounds do
    let r = gen_regex ~counters rand size in
    let w = gen_word rand in
    let expected = Ref.matches r w in
    (* matching engines *)
    if D.matches r w <> expected then fail_at round "derivative matcher" r;
    if Brz.matches r w <> expected then fail_at round "brzozowski matcher" r;
    let m = Brz.Dfa.create r in
    if Brz.Dfa.matches m w <> expected then fail_at round "SRM matcher" r;
    (* byte-level engine: verdicts, spans, earliest ends, counts, resets *)
    let s = string_of_word w in
    let eng = Eng.create ~mode:Sbd_engine.Byteclass.Byte r in
    if Eng.matches eng s <> expected then fail_at ~word:w round "engine matches" r;
    let rspan = ref_find r w in
    if Eng.find eng s <> rspan then fail_at ~word:w round "engine find span" r;
    if Brz.Dfa.find_scan m s <> rspan then fail_at ~word:w round "matcher find_scan" r;
    let rcount = ref_count r w in
    if Eng.count_matching_prefixes eng s <> rcount then
      fail_at ~word:w round "engine prefix count" r;
    if Brz.Dfa.count_matching_prefixes_scan m s <> rcount then
      fail_at ~word:w round "matcher prefix-count scan" r;
    (* a 2-state cap forces cache resets on any non-trivial pattern;
       verdicts must be unaffected (graceful degradation) *)
    let eng2 = Eng.create ~max_states:2 ~mode:Sbd_engine.Byteclass.Byte r in
    if Eng.matches eng2 s <> expected then
      fail_at ~word:w round "engine (max_states=2) matches" r;
    if Eng.find eng2 s <> rspan then
      fail_at ~word:w round "engine (max_states=2) find span" r;
    total_resets := !total_resets + (Eng.stats eng2).Eng.resets;
    if Eng.contains eng s <> ref_earliest_end r w then
      fail_at ~word:w round "engine earliest end" r;
    (* UTF-8 mode: multi-byte scalars, engine vs the code-point oracle *)
    let w8 = gen_word_u rand in
    let s8 = U.encode w8 in
    let expected8 = Ref.matches r w8 in
    let eng8 = Eng.create ~mode:Sbd_engine.Byteclass.Utf8 r in
    if Eng.matches eng8 s8 <> expected8 then fail_at ~word:w8 round "engine utf8" r;
    (* Utf8 spans and counts are byte offsets over scalar boundaries:
       map the scalar-indexed brute force through the width table *)
    let offs8 = Array.make (List.length w8 + 1) 0 in
    List.iteri
      (fun i cp -> offs8.(i + 1) <- offs8.(i) + String.length (U.encode [ cp ]))
      w8;
    let span8 =
      match ref_find r w8 with
      | Some (i, j) -> Some (offs8.(i), offs8.(j))
      | None -> None
    in
    if Eng.find eng8 s8 <> span8 then fail_at ~word:w8 round "engine utf8 find span" r;
    if Eng.contains eng8 s8 <> Option.map (fun j -> offs8.(j)) (ref_earliest_end r w8)
    then fail_at ~word:w8 round "engine utf8 earliest end" r;
    if Eng.count_matching_prefixes eng8 s8 <> ref_count r w8 then
      fail_at ~word:w8 round "engine utf8 prefix count" r;
    (* the cache-reset path in Utf8 mode: spans must be unchanged *)
    let eng8_2 = Eng.create ~max_states:2 ~mode:Sbd_engine.Byteclass.Utf8 r in
    if Eng.matches eng8_2 s8 <> expected8 then
      fail_at ~word:w8 round "engine utf8 (max_states=2) matches" r;
    if Eng.find eng8_2 s8 <> span8 then
      fail_at ~word:w8 round "engine utf8 (max_states=2) find span" r;
    total_resets := !total_resets + (Eng.stats eng8_2).Eng.resets;
    (* literal-heavy rounds: [.*lit.*] has a forced factor, so these
       drive the required-factor prefilter and the start-state skip
       loop — the paths the generated boolean patterns above almost
       never reach.  The word contains the literal half the time. *)
    let lit =
      List.init
        (1 + Random.State.int rand 3)
        (fun _ -> List.nth alphabet (Random.State.int rand (List.length alphabet)))
    in
    let rl =
      let lit_re =
        List.fold_right
          (fun cp acc -> R.concat (R.pred (A.of_ranges [ (cp, cp) ])) acc)
          lit R.eps
      in
      let top_star = R.star (R.pred A.top) in
      R.concat top_star (R.concat lit_re top_star)
    in
    let wl =
      let tail = gen_word rand in
      if Random.State.bool rand then gen_word rand @ lit @ tail
      else gen_word rand @ tail
    in
    let sl = string_of_word wl in
    let engl = Eng.create ~mode:Sbd_engine.Byteclass.Byte rl in
    let ml = Brz.Dfa.create rl in
    let rspanl = ref_find rl wl in
    if Eng.find engl sl <> rspanl then fail_at ~word:wl round "literal find span" r;
    if Brz.Dfa.find_scan ml sl <> rspanl then
      fail_at ~word:wl round "literal find_scan" r;
    if Eng.contains engl sl <> ref_earliest_end rl wl then
      fail_at ~word:wl round "literal earliest end" r;
    if Eng.count_matching_prefixes engl sl <> ref_count rl wl then
      fail_at ~word:wl round "literal prefix count" r;
    let stl = Eng.stats engl in
    if stl.Eng.factor_len > 0 then incr total_prefilter;
    if stl.Eng.accel_bytes > 0 then incr total_accel;
    (* window rounds: the round's pattern cut to at most [k] scalars,
       so [find] takes the bounded path (a forward pass to the earliest
       end [e], a backward pass over [e - L, e + L]).  A solver witness
       is planted past 2 KB of filler, with near-matches (witness
       prefixes) and broken or multi-byte scalars across both window
       edges; spans must agree with the per-position scans, and an
       expired deadline must raise. *)
    let k = 1 + Random.State.int rand 6 in
    let rb = R.inter r (R.loop (R.pred A.top) 1 (Some k)) in
    (match S.solve ~budget:20_000 session rb with
    | S.Sat wb ->
      let mb = Brz.Dfa.create rb in
      List.iter
        (fun mode ->
          let plant =
            match mode with
            | Sbd_engine.Byteclass.Byte ->
              if List.for_all (fun c -> c < 256) wb then Some (string_of_word wb)
              else None
            | Sbd_engine.Byteclass.Utf8 -> (
              try Some (U.encode wb) with Invalid_argument _ -> None)
          in
          let engb = Eng.create ~mode rb in
          let l = (Eng.stats engb).Eng.abs_max_bytes in
          match plant with
          | Some plant when l > 0 && plant <> "" ->
            let n = 4096 + (3 * l) in
            let b = Bytes.make n 'z' in
            let c = 2048 + Random.State.int rand 8 in
            let e = c + String.length plant in
            List.iter
              (fun at ->
                let piece = lossy_pieces.(Random.State.int rand (Array.length lossy_pieces)) in
                let near = String.sub plant 0 (Random.State.int rand (String.length plant)) in
                let at = at - Random.State.int rand 3 in
                Bytes.blit_string piece 0 b at (String.length piece);
                Bytes.blit_string near 0 b (at - String.length near) (String.length near))
              [ c - 1; e - l; e + l ];
            Bytes.blit_string plant 0 b c (String.length plant);
            let sb = Bytes.to_string b in
            let got = Eng.find engb sb in
            let want =
              match mode with
              | Sbd_engine.Byteclass.Byte -> Brz.Dfa.find_scan mb sb
              | Sbd_engine.Byteclass.Utf8 -> Brz.Dfa.find_scan_lossy mb ~kmax:k sb
            in
            if got <> want then fail_at ~word:wb round "bounded find window span" rb;
            if (Eng.stats engb).Eng.windows > 0 then begin
              incr total_window;
              match got with
              | Some (_, j) when j - l > 0 && j + l < n -> incr total_window_inside
              | Some _ | None -> ()
            end;
            (match Eng.find ~deadline:(Sbd_obs.Obs.Deadline.of_seconds (-1.0)) engb sb with
            | exception Sbd_obs.Obs.Deadline_exceeded _ -> ()
            | _ -> fail_at ~word:wb round "bounded find under an expired deadline" rb)
          | Some _ | None -> ())
        [ Sbd_engine.Byteclass.Byte; Sbd_engine.Byteclass.Utf8 ]
    | S.Unsat | S.Unknown _ -> ());
    (match Sbfa.build ~max_states:500 r with
    | Some m -> if Sbfa.accepts m w <> expected then fail_at round "SBFA" r
    | None -> ());
    (* simplifier *)
    let r' = Simp.simplify r in
    if Ref.matches r' w <> expected then fail_at round "simplifier" r;
    (* hash-consed transition regexes: O(1) interned equality must agree
       with the structural oracle on independently derived values, and a
       memo flush must not change what re-derivation interns to (the
       intern table outlives the memo tables) *)
    let tr = D.delta r and tr' = D.delta r' in
    if D.Tr.equal tr tr' <> D.Tr.equal_structural tr tr' then
      fail_at round "tregex interned vs structural equality" r;
    if D.Tr.equal tr tr' && D.Tr.hash tr <> D.Tr.hash tr' then
      fail_at round "tregex hash of equal nodes" r;
    if round mod 50 = 0 then begin
      let d = D.delta_dnf r in
      D.clear ();
      if not (D.delta r == tr && D.delta_dnf r == d) then
        fail_at round "tregex re-derivation after memo flush" r
    end;
    (* solvers: ground truth runs with the abstract fast path off *)
    let solver_res = S.solve ~budget:20_000 ~presolve:false session r in
    (* the integrated fast path must agree with the raw search whenever
       both decide *)
    (match (S.solve ~budget:20_000 session r, solver_res) with
    | S.Sat _, S.Unsat | S.Unsat, S.Sat _ ->
      fail_at round "solver presolve on/off verdicts" r
    | _ -> ());
    (* generational worker: every query runs on a tower no earlier
       query touched, and must agree with the long-lived one (⊥, which
       survives only at the root, prints as the unparsable "[]") *)
    let pat = if R.equal r R.empty then "~(.*)" else R.to_string r in
    (match (W.solve_pattern ~budget:20_000 pat, S.solve ~budget:20_000 session r) with
    | Error msg, _ -> fail_at round ("generational worker parse: " ^ msg) r
    | Ok (Protocol.Sat { codepoints; _ }, _), res ->
      if not (Ref.matches r codepoints) then
        fail_at ~word:codepoints round "generational worker witness" r;
      (match res with
      | S.Unsat -> fail_at round "generational worker sat vs solver unsat" r
      | S.Sat _ | S.Unknown _ -> ())
    | Ok (Protocol.Unsat, _), S.Sat _ ->
      fail_at round "generational worker unsat vs solver sat" r
    | Ok ((Protocol.Unsat | Protocol.Unknown _), _), _ -> ());
    (* abstract-domain pre-solver differential: its verdicts are
       theorems, so any disagreement with the solver or the oracle is a
       bug *)
    (match Ab.presolve r with
    | Ab.Unsat_proved ->
      incr total_presolve_unsat;
      if List.exists (Ref.matches r) short_words then
        fail_at round "presolve unsat verdict vs oracle" r;
      (match solver_res with
      | S.Sat _ -> fail_at round "presolve unsat vs solver sat" r
      | S.Unsat | S.Unknown _ -> ())
    | Ab.Sat_witnessed ws ->
      incr total_presolve_sat;
      let w' = List.init (String.length ws) (fun i -> Char.code ws.[i]) in
      if not (Ref.matches r w') then
        fail_at ~word:w' round "presolve witness rejected by oracle" r;
      (match solver_res with
      | S.Unsat -> fail_at ~word:w' round "presolve sat vs solver unsat" r
      | S.Sat _ | S.Unknown _ -> ())
    | Ab.Unknown -> ());
    (match (solver_res, MSolve.solve ~budget:20_000 r) with
    | S.Sat w', MSolve.Sat _ ->
      if not (Ref.matches r w') then fail_at round "dz3 witness" r
    | S.Unsat, MSolve.Unsat ->
      if List.exists (Ref.matches r) short_words then fail_at round "unsat verdict" r
    | S.Unknown _, _ | _, MSolve.Unknown _ -> ()
    | _ -> fail_at round "solver verdicts" r);
    (* static analyzer: its Proved/Refuted verdicts are theorems, so any
       disagreement with the oracle or with the solver is a bug *)
    let rep = An.analyze ~source:(R.to_string r) ~budget:300 r in
    (match rep.An.semantic with
    | None -> ()
    | Some sem ->
      (match sem.An.empty with
      | An.Proved ->
        if List.exists (Ref.matches r) short_words then
          fail_at round "analyzer proved-empty verdict" r;
        (match solver_res with
        | S.Sat _ -> fail_at round "analyzer proved-empty vs solver sat" r
        | S.Unsat | S.Unknown _ -> ())
      | An.Refuted -> (
        (match solver_res with
        | S.Unsat -> fail_at round "analyzer nonempty vs solver unsat" r
        | S.Sat _ | S.Unknown _ -> ());
        match sem.An.witness with
        | Some w' ->
          if not (Ref.matches r w') then fail_at round "analyzer witness" r
        | None -> fail_at round "analyzer nonempty without witness" r)
      | An.Unknown -> ());
      match sem.An.universal with
      | An.Proved ->
        if not (List.for_all (Ref.matches r) short_words) then
          fail_at round "analyzer proved-universal verdict" r
      | An.Refuted -> (
        match sem.An.counterexample with
        | Some w' ->
          if Ref.matches r w' then fail_at round "analyzer counterexample" r
        | None -> fail_at round "analyzer non-universal without counterexample" r)
      | An.Unknown -> ());
    (* structural Error findings assert emptiness too *)
    List.iter
      (fun (f : An.finding) ->
        match (f.An.rule, f.An.severity) with
        | ("SBD101" | "SBD102"), An.Error ->
          if List.exists (Ref.matches r) short_words then
            fail_at round ("analyzer finding " ^ f.An.rule) r
        | _, (An.Error | An.Warning | An.Info) -> ())
      rep.An.findings;
    (* the simplifier preserves the language: the pair prover must
       never refute (r, simplified r), and agrees with the emptiness
       reduction whenever both decide *)
    (match (C.equiv ~budget:4_000 csession r r', S.equiv ~budget:20_000 session r r') with
    | C.Refuted cw, _ ->
      fail_at ~word:cw round "containment equiv vs simplifier" r
    | C.Proved, Some false -> fail_at round "equivalence procedures" r
    | C.Proved, (Some true | None) | C.Unknown _, _ -> ());
    (* containment prover vs the emptiness reduction: a random pair
       (r, rs); when both procedures decide they must agree, and every
       Refuted witness must be in L(r) \ L(rs) per the oracle *)
    let rs = gen_regex rand size in
    (match C.subset ~budget:4_000 csession r rs with
    | C.Proved -> (
      match S.solve ~budget:20_000 session (R.inter r (R.compl rs)) with
      | S.Sat _ -> fail_at round "containment proved vs reduction sat" r
      | S.Unsat | S.Unknown _ -> ())
    | C.Refuted cw ->
      if not (Ref.matches r cw) then
        fail_at ~word:cw round "containment witness rejected by left" r;
      if Ref.matches rs cw then
        fail_at ~word:cw round "containment witness accepted by right" r;
      (match S.solve ~budget:20_000 session (R.inter r (R.compl rs)) with
      | S.Unsat -> fail_at round "containment refuted vs reduction unsat" r
      | S.Sat _ | S.Unknown _ -> ())
    | C.Unknown _ -> ());
    (* located patterns: anchors + lookarounds vs the all-splits oracle.
       Byte mode on ASCII words keeps byte offsets = scalar indices; the
       Utf8 round maps the oracle's scalar ends through the width table. *)
    let lr = gen_loc_regex rand size in
    if List.length (LR.atoms lr) <= LM.max_atoms then begin
      if LR.has_anchor lr then incr total_loc_anchor;
      if LR.has_look lr then incr total_loc_look;
      let lw = gen_word rand in
      let ls = string_of_word lw in
      let o = LRef.make lr (Array.of_list lw) in
      let leng = LM.create ~mode:Sbd_engine.Byteclass.Byte lr in
      let res = LM.run leng ls in
      if res.LM.full <> LRef.full o then
        fail_at_loc ~word:lw round "located engine full" lr;
      if res.LM.found_end <> LRef.earliest_end o then
        fail_at_loc ~word:lw round "located engine earliest end" lr;
      (* the anchor-elimination translation must agree with the oracle
         whenever it is defined (no lookarounds) *)
      (match LR.lower lr with
      | Some p ->
        incr total_loc_lower;
        if Ref.matches p lw <> res.LM.full then
          fail_at_loc ~word:lw round "located lower vs plain oracle" lr
      | None -> ());
      (* Utf8 mode: multi-byte scalars under anchors and obligations *)
      let lw8 = gen_word_u rand in
      let ls8 = U.encode lw8 in
      let o8 = LRef.make lr (Array.of_list lw8) in
      let leng8 = LM.create ~mode:Sbd_engine.Byteclass.Utf8 lr in
      let res8 = LM.run leng8 ls8 in
      if res8.LM.full <> LRef.full o8 then
        fail_at_loc ~word:lw8 round "located engine utf8 full" lr;
      let offs8 = Array.make (List.length lw8 + 1) 0 in
      List.iteri
        (fun i cp -> offs8.(i + 1) <- offs8.(i) + String.length (U.encode [ cp ]))
        lw8;
      if res8.LM.found_end <> Option.map (fun j -> offs8.(j)) (LRef.earliest_end o8)
      then fail_at_loc ~word:lw8 round "located engine utf8 earliest end" lr;
      (* lossy Utf8: raw bytes, decoded like Utf8.decode_lossy; the
         oracle's scalar ends map through the engine's own boundaries.
         A second engine at the smallest state cap resets its tables
         mid-walk and must agree. *)
      let lb = gen_lossy_bytes rand in
      let n = String.length lb in
      let rec seg pos cps bnd =
        if pos >= n then (List.rev cps, Array.of_list (List.rev bnd))
        else
          let cp, pos' = Sbd_engine.Byteclass.scalar_forward lb pos n in
          seg pos' (cp :: cps) (pos' :: bnd)
      in
      let lcps, lbnd = seg 0 [] [ 0 ] in
      if lcps <> U.decode_lossy lb then
        fail_at_loc ~word:lcps round "engine segmentation vs decode_lossy" lr;
      (* [lr] itself, and a pattern around a lookahead, whose backward
         pre-pass must segment exactly as the forward walk *)
      let ahead =
        LR.concat_list
          [ gen_loc_regex rand (size / 2);
            LR.look ~behind:false ~neg:(Random.State.bool rand)
              (gen_regex rand 3);
            gen_loc_regex rand (size / 2) ]
      in
      List.iter
        (fun lr ->
          let ol = LRef.make lr (Array.of_list lcps) in
          let want_end =
            Option.map (fun j -> lbnd.(j)) (LRef.earliest_end ol)
          in
          let eng = LM.create ~mode:Sbd_engine.Byteclass.Utf8 lr in
          let tiny = LM.create ~mode:Sbd_engine.Byteclass.Utf8 ~max_states:1 lr in
          List.iter
            (fun (name, eng) ->
              let r = LM.run eng lb in
              if r.LM.full <> LRef.full ol then
                fail_at_loc ~word:lcps round ("located lossy full" ^ name) lr;
              if r.LM.found_end <> want_end then
                fail_at_loc ~word:lcps round
                  ("located lossy earliest end" ^ name) lr)
            [ ("", eng); (" (max_states=1)", tiny) ];
          total_loc_resets := !total_loc_resets + LM.resets tiny)
        (if List.length (LR.atoms ahead) <= LM.max_atoms then [ lr; ahead ]
         else [ lr ]);
      incr total_loc_lossy;
      (* located windows: a Locref-checked witness planted past 2 KB of
         filler behind decoys (copies of it with one byte changed, and
         its prefixes), lossy scalars at the witness's edges, its
         length bound's edges and the walk's window edges; the engine
         must agree with the whole-input reference, in both modes *)
      let witness =
        let rec pick tries =
          if tries = 0 then None
          else
            let w = gen_word rand in
            let o = LRef.make lr (Array.of_list (Char.code 'z' :: w @ [ Char.code 'z' ])) in
            if w <> [] && LRef.earliest_end o <> None then Some (string_of_word w)
            else pick (tries - 1)
        in
        pick 6
      in
      Option.iter
        (fun wit ->
          let lw = String.length wit in
          let l =
            match (Ab.summarize (LR.strip lr)).Ab.len.Ab.lmax with
            | Some m when m <= 16 -> 4 * m
            | Some _ | None -> 64
          in
          let c = 2048 + Random.State.int rand 4200 in
          let n = c + lw + 700 in
          let b = Bytes.make n 'z' in
          let put at str =
            if at >= 0 && at + String.length str <= n then
              Bytes.blit_string str 0 b at (String.length str)
          in
          let lossy () = lossy_pieces.(7 + Random.State.int rand (Array.length lossy_pieces - 7)) in
          List.iter
            (fun at -> put (at - Random.State.int rand 3) (lossy ()))
            ([ c - 1; c - l; c - (2 * l); c + lw; c + lw + l ]
            @ List.map (fun e -> 2048 + e - 1) [ 0; 64; 192; 448; 960; 1984; 4032 ]);
          let rec decoys d =
            if d + lw + 4 < c then begin
              let near = Bytes.of_string wit in
              Bytes.set near (Random.State.int rand lw) 'z';
              put d
                (if Random.State.bool rand then Bytes.to_string near
                 else String.sub wit 0 (Random.State.int rand lw));
              decoys (d + 8 + Random.State.int rand 64)
            end
          in
          decoys 2048;
          put c wit;
          let s = Bytes.to_string b in
          List.iter
            (fun (mode, eng) ->
              let want_full, want_end = loc_ref_run mode lr s in
              let bytes0 = LM.scan_bytes eng and windows0 = LM.windows eng in
              let r = LM.run eng s in
              if r.LM.full <> want_full then
                fail_at_loc round "located window full" lr;
              if r.LM.found_end <> want_end then
                fail_at_loc round "located window earliest end" lr;
              if LM.windows eng > windows0 then incr total_loc_window;
              match want_end with
              | Some e when e > 0 && e < n && LM.scan_bytes eng - bytes0 < n ->
                incr total_loc_window_inside
              | Some _ | None -> ())
            [ (Sbd_engine.Byteclass.Byte, leng); (Sbd_engine.Byteclass.Utf8, leng8) ])
        witness
    end;
    (* accelerated states: 1–6 KB of one filler piece (a byte no
       pattern names, or a multi-byte, 4-byte or malformed sequence)
       with words planted as exits near word edges, the 4 KB skip cap
       and the ends.  A fresh pattern in contexts whose states loop
       on the filler ([⊤*·r], [r·⊤*], [[^x]*·r], [⊤*·r] without [01]),
       and a located one, against the linear references; the plain
       engine also, every fourth round, at a state cap that resets the
       tables mid-run (every step then derives). *)
    let n = 1024 + Random.State.int rand 5000 in
    let fill = [| "z"; "z"; "\xc3\xa9"; "\xe4\xb8\xad"; "\xff"; "\x80"; "\xf0\x9f\x98\x80" |] in
    let piece = fill.(Random.State.int rand (Array.length fill)) in
    let b = Bytes.init n (fun i -> piece.[i mod String.length piece]) in
    for _ = 0 to Random.State.int rand 6 do
      let w = string_of_word (gen_word rand) in
      let at =
        match Random.State.int rand 4 with
        | 0 -> (8 * Random.State.int rand (n / 8)) + Random.State.int rand 8
        | 1 -> 4096 - 8 + Random.State.int rand 16
        | 2 -> if Random.State.bool rand then 0 else n - String.length w
        | _ -> Random.State.int rand n
      in
      if at >= 0 && at + String.length w <= n then
        Bytes.blit_string w 0 b at (String.length w)
    done;
    let sa = Bytes.to_string b in
    let lit cps = List.fold_right (fun cp acc -> R.concat (R.pred (A.of_ranges [ (cp, cp) ])) acc) cps R.eps in
    let top_star = R.star (R.pred A.top) in
    let ra =
      (* small bounds: every step of a state cap that thrashes derives *)
      let r = gen_regex rand size in
      match Random.State.int rand 4 with
      | 0 -> R.concat top_star r
      | 1 -> R.concat r top_star
      | 2 -> R.concat (R.star (R.pred (A.neg (A.of_ranges [ (Char.code 'x', Char.code 'x') ])))) r
      | _ ->
        R.inter (R.concat top_star r)
          (R.compl (R.concat top_star (R.concat (lit [ Char.code '0'; Char.code '1' ]) top_star)))
    in
    let skipped = ref 0 in
    List.iter
      (fun mode ->
        let want_full, want_span, want_count = plain_ref_run mode ra sa in
        List.iter
          (fun (name, eng) ->
            let full, span = Eng.full_and_find eng sa in
            if full <> want_full then fail_at round ("accelerated full" ^ name) ra;
            if span <> want_span then fail_at round ("accelerated find span" ^ name) ra;
            if Eng.count_matching_prefixes eng sa <> want_count then
              fail_at round ("accelerated prefix count" ^ name) ra;
            skipped := !skipped + (Eng.stats eng).Eng.skip_bytes)
          (("", Eng.create ~mode ra)
          :: (if round mod 4 = 0 then [ (" (max_states=3)", Eng.create ~max_states:3 ~mode ra) ]
              else [])))
      [ Sbd_engine.Byteclass.Byte; Sbd_engine.Byteclass.Utf8 ];
    let la = gen_loc_regex rand size in
    let la =
      if Random.State.bool rand then la
      else LR.concat (LR.of_plain (R.star (R.pred (A.neg (A.of_ranges [ (Char.code 'x', Char.code 'x') ]))))) la
    in
    if List.length (LR.atoms la) <= LM.max_atoms then
      List.iter
        (fun mode ->
          let eng = LM.create ~mode la in
          let res = LM.run eng sa in
          if (res.LM.full, res.LM.found_end) <> loc_ref_run mode la sa then
            fail_at_loc round "accelerated located run" la;
          skipped := !skipped + LM.skip_bytes eng)
        [ Sbd_engine.Byteclass.Byte; Sbd_engine.Byteclass.Utf8 ];
    if !skipped > 0 then incr total_skip_rounds;
    total_skip_bytes := !total_skip_bytes + !skipped;
    if round mod 500 = 0 then Printf.printf "... %d rounds ok\n%!" round
  done;
  (* the graceful-degradation and acceleration paths must actually have
     been taken, or the rounds above tested nothing *)
  if rounds >= 100 && !total_resets = 0 then
    raise (Mismatch "engine cache-reset path was never exercised");
  if rounds >= 100 && !total_prefilter = 0 then
    raise (Mismatch "engine required-factor prefilter was never exercised");
  if rounds >= 100 && !total_accel = 0 then
    raise (Mismatch "engine skip-loop acceleration was never exercised");
  if rounds >= 1 && !total_skip_rounds = 0 then
    raise (Mismatch "no accelerated state ever skipped");
  if rounds >= 100 && !total_window_inside = 0 then
    raise (Mismatch "bounded find window path was never exercised inside an input");
  if rounds >= 100 && !total_loc_anchor = 0 then
    raise (Mismatch "located anchor patterns were never exercised");
  if rounds >= 100 && !total_loc_look = 0 then
    raise (Mismatch "located lookaround patterns were never exercised");
  if rounds >= 100 && !total_loc_lower = 0 then
    raise (Mismatch "located lower translation was never exercised");
  if rounds >= 100 && !total_loc_resets = 0 then
    raise (Mismatch "located table reset path was never exercised");
  if rounds >= 100 && !total_loc_window_inside = 0 then
    raise (Mismatch "located window never read less than an input with a match inside");
  if rounds >= 100 && !total_presolve_unsat = 0 then
    raise (Mismatch "abstract pre-solver unsat path was never exercised");
  if rounds >= 100 && !total_presolve_sat = 0 then
    raise (Mismatch "abstract pre-solver sat path was never exercised");
  let generations =
    Sbd_obs.Obs.Counter.value Sbd_service.Worker.c_memo_clears - generations0
  in
  if rounds >= 100 && generations = 0 then
    raise (Mismatch "worker generation swap was never exercised");
  Printf.printf "fuzz: generational worker retired %d towers in %d queries\n%!"
    generations (W.queries ());
  Printf.printf
    "fuzz: abstract pre-solver decided %d unsat, %d sat\n%!"
    !total_presolve_unsat !total_presolve_sat;
  Printf.printf
    "fuzz: engine cache resets exercised %d times, prefilter %d, skip loop %d\n%!"
    !total_resets !total_prefilter !total_accel;
  Printf.printf "fuzz: accelerated states skipped in %d of %d rounds (%d bytes)\n%!"
    !total_skip_rounds rounds !total_skip_bytes;
  Printf.printf
    "fuzz: bounded find took the window path %d times (%d strictly inside \
     the input)\n%!"
    !total_window !total_window_inside;
  Printf.printf
    "fuzz: located rounds — anchors %d, lookarounds %d, lowered %d, lossy \
     %d (table resets %d)\n%!"
    !total_loc_anchor !total_loc_look !total_loc_lower
    !total_loc_lossy !total_loc_resets;
  Printf.printf
    "fuzz: located windows fired %d times (%d read less than an input with \
     a match strictly inside)\n%!"
    !total_loc_window !total_loc_window_inside

open Cmdliner

let main rounds seed size counters =
  try
    run ~rounds ~seed ~size ~counters;
    Printf.printf "fuzz: %d rounds, no discrepancies\n" rounds;
    0
  with Mismatch msg ->
    prerr_endline ("fuzz: " ^ msg);
    1

let () =
  let rounds =
    Arg.(value & opt int 2000 & info [ "rounds" ] ~doc:"Number of fuzz rounds.")
  in
  let seed = Arg.(value & opt int 42 & info [ "seed" ] ~doc:"PRNG seed.") in
  let size =
    Arg.(value & opt int 8 & info [ "size" ] ~doc:"Size bound for generated regexes.")
  in
  let counters =
    Arg.(
      value & flag
      & info [ "counters" ]
          ~doc:
            "Bias generation toward counter-heavy patterns (larger and \
             open-ended loop bounds).")
  in
  let cmd =
    Cmd.v
      (Cmd.info "fuzz" ~doc:"Differential fuzzing of all regex engines")
      Term.(const main $ rounds $ seed $ size $ counters)
  in
  exit (Cmd.eval' cmd)
