(** Classical Brzozowski derivatives of extended regular expressions with
    respect to {e concrete} characters (Section 8.1).

    [D^Brz_a(r)] is computed by direct structural recursion, independently
    of transition regexes.  Theorem 4.3 states that the symbolic
    derivative applied to a character agrees with this function --
    the property test suite checks exactly that:

    {v L(delta(r)(a)) = L(D^Brz_a(r)) v}

    The implementation shares the hash-consed regex constructors, so the
    agreement check compares hash-consed values directly where possible
    and languages (via the oracle) otherwise. *)

module Make (R : Sbd_regex.Regex.S) = struct
  module A = R.A

  (** [derive a r = D^Brz_a(r)]. *)
  let rec derive (a : int) (r : R.t) : R.t =
    match r.R.node with
    | Eps -> R.empty
    | Pred p -> if A.mem a p then R.eps else R.empty
    | Concat (r1, r2) ->
      let d1 = R.concat (derive a r1) r2 in
      if R.nullable r1 then R.alt d1 (derive a r2) else d1
    | Star body -> R.concat (derive a body) r
    | Loop (body, m, n) ->
      let n' = match n with None -> None | Some x -> Some (x - 1) in
      R.concat (derive a body) (R.loop body (max (m - 1) 0) n')
    | Or xs -> R.alt_list (List.map (derive a) xs)
    | And xs -> R.inter_list (List.map (derive a) xs)
    | Not body -> R.compl (derive a body)

  (** Brzozowski-style matching: derive by each character, test
      nullability. *)
  let matches (r : R.t) (w : int list) : bool =
    R.nullable (List.fold_left (fun r c -> derive c r) r w)

  let matches_string r s =
    matches r (List.init (String.length s) (fun i -> Char.code s.[i]))

  (** An SRM-style lazy DFA (Section 8.5): the states are derivative
      regexes (hash-consed, so state identity is O(1)) and the alphabet
      is the minterm set of the pattern's predicates, so every input
      character is classified once into a small number of equivalence
      classes.  Transitions are derived on first use and memoized.

      This is the reference the byte engine ({!Sbd_engine.Dfa}) is
      differenced against: it shares no code with the engine's byte
      classes, flat tables or search passes, and its per-position scans
      are the O(n·m) baseline of engine-bench. *)
  module Dfa = struct
    module M = Sbd_alphabet.Minterm.Make (A)

    type t = {
      pattern : R.t;
      classify : int -> int;  (** code point -> minterm index *)
      representatives : int array;  (** one concrete character per minterm *)
      delta : (int * int, R.t) Hashtbl.t;  (** (state id, minterm) -> state *)
    }

    let create (pattern : R.t) : t =
      let minterm_preds = M.minterms (R.preds pattern) in
      (* flatten the minterms into a sorted range table for
         classification *)
      let ranges =
        List.concat
          (List.mapi
             (fun idx p -> List.map (fun (lo, hi) -> (lo, hi, idx)) (A.ranges p))
             minterm_preds)
      in
      let table = Array.of_list (List.sort compare ranges) in
      let classify (c : int) : int =
        let lo = ref 0 and hi = ref (Array.length table - 1) in
        let result = ref 0 in
        while !lo <= !hi do
          let mid = (!lo + !hi) / 2 in
          let l, h, idx = table.(mid) in
          if c < l then hi := mid - 1
          else if c > h then lo := mid + 1
          else begin
            result := idx;
            lo := !hi + 1
          end
        done;
        !result
      in
      let representatives =
        Array.of_list
          (List.map
             (fun p -> match A.choose p with Some c -> c | None -> 0)
             minterm_preds)
      in
      { pattern; classify; representatives; delta = Hashtbl.create 64 }

    (* One DFA step: classify the character, then look up / compute the
       derivative by the minterm's representative (sound by Theorem
       7.1's argument: characters in the same minterm have identical
       derivatives). *)
    let step (m : t) (state : R.t) (c : int) : R.t =
      let mt = m.classify c in
      let key = (state.R.id, mt) in
      match Hashtbl.find_opt m.delta key with
      | Some next -> next
      | None ->
        let next = derive m.representatives.(mt) state in
        Hashtbl.add m.delta key next;
        next

    (** Full match of a word of code points. *)
    let matches (m : t) (w : int list) : bool =
      R.nullable (List.fold_left (step m) m.pattern w)

    (** Number of positions [i] such that some prefix of [s.[i..]]
        matches: restarts the DFA at every position, O(n·m). *)
    let count_matching_prefixes_scan (m : t) (s : string) : int =
      let n = String.length s in
      let count = ref 0 in
      for i = 0 to n - 1 do
        let state = ref m.pattern in
        let j = ref i in
        let hit = ref (R.nullable !state) in
        while (not !hit) && !j < n && not (R.is_empty !state) do
          state := step m !state (Char.code s.[!j]);
          incr j;
          if R.nullable !state then hit := true
        done;
        if !hit then incr count
      done;
      !count

    (** The leftmost-earliest match span [(start, stop)] ([stop]
        exclusive), or [None]: restarts the DFA at every start
        position, O(n·m).  Matches of the empty word are reported when
        the pattern is nullable. *)
    let find_scan (m : t) (s : string) : (int * int) option =
      let n = String.length s in
      let result = ref None in
      let i = ref 0 in
      while !result = None && !i <= n do
        let state = ref m.pattern in
        if R.nullable !state then result := Some (!i, !i)
        else begin
          let j = ref !i in
          while !result = None && !j < n && not (R.is_empty !state) do
            state := step m !state (Char.code s.[!j]);
            incr j;
            if R.nullable !state then result := Some (!i, !j)
          done
        end;
        incr i
      done;
      !result

    (** {!find_scan} over the lossy UTF-8 scalars of [s]
        ({!Sbd_alphabet.Utf8.decode_lossy}), trying ends up to [kmax]
        scalars past each start; the span is in byte offsets.  The
        reference for a byte-level engine's UTF-8 spans on patterns
        whose matches are at most [kmax] code points long. *)
    let find_scan_lossy (m : t) ~(kmax : int) (s : string) : (int * int) option =
      let scalars = Array.of_list (Sbd_alphabet.Utf8.decode_lossy_indexed s) in
      let k = Array.length scalars in
      let off j = if j < k then fst scalars.(j) else String.length s in
      let rec from i =
        if i > k then None
        else
          let rec ends state j =
            if R.nullable state then Some (off i, off j)
            else if j >= min k (i + kmax) || R.is_empty state then None
            else ends (step m state (snd scalars.(j))) (j + 1)
          in
          match ends m.pattern i with Some sp -> Some sp | None -> from (i + 1)
      in
      from 0
  end
end
