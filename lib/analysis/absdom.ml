(* Abstract-domain pre-solver (DESIGN.md Section 16).

   One memoized bottom-up sweep over the hash-consed ERE AST computes,
   per subterm, three cooperating abstractions:

   - an ultimately-periodic *length* abstraction: every accepted word
     length lies in {lmin + k*stride | k >= 0} intersected with
     [lmin, lmax] (lmax = None is unbounded; stride = 0 means the
     singleton {lmin}, stride = 1 carries no residue information).
     Exact through concat / union / star / counters, soundly widened
     through [&] and [~];

   - a Parikh-style *character* abstraction: [possible] over-approximates
     the set of characters that can appear anywhere in an accepted word,
     [required] is a list of predicates such that every accepted word
     contains at least one character satisfying each of them (so a
     language containing the empty word always has [required = []]);

   - a three-valued *emptiness* verdict closed under all Boolean
     operators, refined by the other two domains (infeasible length
     interval, incompatible residues, or a required predicate disjoint
     from [possible] each prove emptiness).

   The domains compose into [presolve]: unsat verdicts are theorems of
   the abstraction, sat verdicts are abstraction-guided candidate words
   that are only reported after the derivative matcher accepts them.
   On any doubt the answer degrades to [Unknown] -- the same
   never-wrong contract as the SBD201-SBD204 semantic lints. *)

module Body (D : Sbd_core.Deriv.S) = struct
  open struct
    module R = D.R
    module A = R.A
  end

  (* Widening caps: combined strides above [stride_cap] fall back to
     their gcd (coarser but sound); candidate witnesses longer than
     [witness_cap] are not attempted; at most [required_cap] required
     predicates are tracked per subterm. *)
  let stride_cap = 4096
  let witness_cap = 512
  let required_cap = 8
  let construct_fuel = 64

  type len = { lmin : int; lmax : int option; stride : int }

  type chars = { possible : A.pred; required : A.pred list }

  type emptiness = Empty | Nonempty | Maybe_empty

  type summary = { len : len; chars : chars; empty : emptiness }

  (* -- length lattice ----------------------------------------------------- *)

  let rec gcd a b = if b = 0 then a else gcd b (a mod b)
  let gcd a b = gcd (abs a) (abs b)

  let top_len = { lmin = 0; lmax = None; stride = 1 }
  let bot_len = { lmin = 1; lmax = Some 0; stride = 0 }
  let eps_len = { lmin = 0; lmax = Some 0; stride = 0 }
  let chr_len = { lmin = 1; lmax = Some 1; stride = 0 }

  let feasible l = match l.lmax with Some m -> l.lmin <= m | None -> true

  (* Lengths past [len_cap] are not tracked: a counter bound can be any
     int, and products of such bounds would wrap.  A least length that
     reaches the cap becomes [sat_len] (every length from the cap on, no
     residue), an upper bound past it becomes unbounded.  Both only
     lose precision, and they keep every sum of two lengths, and four
     times a length (its UTF-8 byte bound), below [max_int]. *)
  let len_cap = max_int / 4
  let sat_len = { lmin = len_cap; lmax = None; stride = 1 }

  let clamp l =
    if not (feasible l) then l
    else if l.lmin >= len_cap then sat_len
    else
      match l.lmax with
      | Some m when m > len_cap -> { l with lmax = None }
      | Some _ | None -> l

  (* [x * y] for lengths [x, y >= 0], or [len_cap + 1] once it passes
     the cap. *)
  let mul_len x y = if y <> 0 && x > len_cap / y then len_cap + 1 else x * y

  let add_opt a b =
    match (a, b) with Some x, Some y -> Some (x + y) | _ -> None

  let concat_len a b =
    if not (feasible a && feasible b) then bot_len
    else
      clamp
        { lmin = a.lmin + b.lmin
        ; lmax = add_opt a.lmax b.lmax
        ; stride = gcd a.stride b.stride }

  let union_len a b =
    if not (feasible a) then b
    else if not (feasible b) then a
    else
      { lmin = min a.lmin b.lmin
      ; lmax =
          (match (a.lmax, b.lmax) with
          | Some x, Some y -> Some (max x y)
          | _ -> None)
      ; stride = gcd (gcd a.stride b.stride) (abs (a.lmin - b.lmin)) }

  let star_len a =
    if (not (feasible a)) || a.lmax = Some 0 then eps_len
    else { lmin = 0; lmax = None; stride = gcd a.lmin a.stride }

  let loop_len a m n =
    if m = 0 && n = Some 0 then eps_len
    else if not (feasible a) then if m = 0 then eps_len else bot_len
    else if a.lmax = Some 0 then eps_len
    else
      clamp
        { lmin = mul_len m a.lmin
        ; lmax =
            (match (n, a.lmax) with
            | Some n', Some am -> Some (mul_len n' am)
            | _ -> None)
        ; stride =
            (match n with
            | Some n' when n' = m -> a.stride
            | _ -> gcd a.lmin a.stride) }

  (* x mod m as a representative in [0, m). *)
  let posmod x m = ((x mod m) + m) mod m

  (* Does the singleton {x} satisfy [l]'s constraints? *)
  let len_admits l x =
    x >= l.lmin
    && (match l.lmax with Some m -> x <= m | None -> true)
    && (if l.stride = 0 then x = l.lmin else posmod (x - l.lmin) l.stride = 0)

  (* Sound intersection: resolves the two arithmetic progressions by
     CRT.  Incompatible residues mean the intersection is length-free,
     i.e. the language is empty -- reported as the infeasible
     [bot_len].  Combined strides above [stride_cap] fall back to the
     gcd progression (a superset, hence sound). *)
  let inter_len_raw a b =
    if not (feasible a && feasible b) then bot_len
    else
      let lmin0 = max a.lmin b.lmin in
      let lmax0 =
        match (a.lmax, b.lmax) with
        | Some x, Some y -> Some (min x y)
        | Some x, None | None, Some x -> Some x
        | None, None -> None
      in
      if (match lmax0 with Some m -> lmin0 > m | None -> false) then
        (* infeasible interval: keep the real bounds (they make the
           SBD401 diagnostic legible), not the bot sentinel *)
        { lmin = lmin0; lmax = lmax0; stride = 0 }
      else
      let within x = match lmax0 with Some m -> x <= m | None -> true in
      if a.stride = 0 then
        if len_admits b a.lmin && within a.lmin then
          { lmin = a.lmin; lmax = Some a.lmin; stride = 0 }
        else bot_len
      else if b.stride = 0 then
        if len_admits a b.lmin && within b.lmin then
          { lmin = b.lmin; lmax = Some b.lmin; stride = 0 }
        else bot_len
      else
        let g = gcd a.stride b.stride in
        if posmod (a.lmin - b.lmin) g <> 0 then bot_len
        else
          let lcm = a.stride / g * b.stride in
          if lcm > stride_cap then begin
            (* gcd fallback: first x >= lmin0 with x = a.lmin (mod g) *)
            let base = lmin0 + posmod (a.lmin - lmin0) g in
            if within base then { lmin = base; lmax = lmax0; stride = g }
            else bot_len
          end
          else begin
            (* walk a's progression until it hits b's residue class;
               a solution exists within b.stride/g steps *)
            let x = ref (lmin0 + posmod (a.lmin - lmin0) a.stride) in
            let steps = ref 0 in
            while
              posmod (!x - b.lmin) b.stride <> 0 && !steps <= b.stride / g
            do
              x := !x + a.stride;
              incr steps
            done;
            if posmod (!x - b.lmin) b.stride = 0 && within !x then
              { lmin = !x; lmax = lmax0; stride = lcm }
            else bot_len
          end

  let inter_len a b = clamp (inter_len_raw a b)

  (* -- character lattice -------------------------------------------------- *)

  let no_chars = { possible = A.bot; required = [] }
  let top_chars = { possible = A.top; required = [] }

  (* q -> p: every character satisfying q satisfies p. *)
  let implies q p = A.is_bot (A.conj q (A.neg p))

  let add_required acc p =
    if A.is_bot p then acc
    else if List.length acc >= required_cap then acc
    else if List.exists (fun q -> A.equal q p) acc then acc
    else p :: acc

  let union_required xs ys = List.fold_left add_required xs ys

  let concat_chars a b =
    { possible = A.disj a.possible b.possible
    ; required = union_required a.required b.required }

  (* A word of the union only has to satisfy requirements common to
     every branch; [implies] keeps p when some branch requirement
     entails it. *)
  let union_chars a b =
    { possible = A.disj a.possible b.possible
    ; required =
        List.filter
          (fun p -> List.exists (fun q -> implies q p) b.required)
          a.required }

  let inter_chars a b =
    { possible = A.conj a.possible b.possible
    ; required = union_required a.required b.required }

  (* Greedy maximum pairwise-disjoint subset of the required
     predicates: each needs its own character position, so its size is
     a sound lower bound on word length. *)
  let disjoint_count required =
    let chosen =
      List.fold_left
        (fun acc p ->
          if List.for_all (fun q -> A.is_bot (A.conj p q)) acc then p :: acc
          else acc)
        [] required
    in
    List.length chosen

  let char_conflict c =
    List.exists (fun p -> A.is_bot (A.conj p c.possible)) c.required

  (* -- the sweep ---------------------------------------------------------- *)

  let bottom = { len = bot_len; chars = no_chars; empty = Empty }

  let memo : (int, summary) Hashtbl.t = Hashtbl.create 1024

  (* Verdict memo for {!presolve_word}: witness construction is not
     summary-compositional (it replays candidate words through the
     matcher), so repeated queries on the same hash-consed node would
     otherwise redo that work every time. *)
  let verdict_memo : (int, [ `Unsat | `Sat of int list | `Unknown ]) Hashtbl.t
      =
    Hashtbl.create 256

  let memo_entries () = Hashtbl.length memo + Hashtbl.length verdict_memo

  (* Drops this domain's own memos only: the derivative tower [D] below
     is shared with the other layers and cleared by its owner. *)
  let clear () =
    Hashtbl.reset memo;
    Hashtbl.reset verdict_memo

  (* Post-pass per node: fold the domains into each other and into the
     emptiness verdict.  Raising lmin to the disjoint-required count
     keeps the progression's base residue (the new base is the old one
     shifted by whole strides).  Emptiness proofs keep the conflicting
     fields in place (parents short-circuit on [Empty] and never read
     them) so the linter can report *which* domain found the conflict. *)
  let refine (r : R.t) (s : summary) : summary =
    if s.empty = Empty then s
    else
      let s = if R.nullable r then { s with empty = Nonempty } else s in
      let k = disjoint_count s.chars.required in
      let s =
        if k <= s.len.lmin then s
        else if s.len.stride = 0 then
          (* singleton length below the required-character count; [lmin = k]
             is itself sound, and makes the interval visibly infeasible *)
          { s with len = { s.len with lmin = k }; empty = Empty }
        else
          let d = k - s.len.lmin in
          let lift = (d + s.len.stride - 1) / s.len.stride * s.len.stride in
          { s with len = { s.len with lmin = s.len.lmin + lift } }
      in
      if s.empty = Empty then s
      else if not (feasible s.len) then
        if R.nullable r then s (* abstraction bug guard: never contradict ν *)
        else { s with empty = Empty }
      else if char_conflict s.chars then
        if R.nullable r then s else { s with empty = Empty }
      else s

  let rec summarize (r : R.t) : summary =
    match Hashtbl.find_opt memo r.R.id with
    | Some s -> s
    | None ->
      let s = refine r (compute r) in
      Hashtbl.replace memo r.R.id s;
      s

  and compute (r : R.t) : summary =
    match r.R.node with
    | R.Pred p ->
      if A.is_bot p then bottom
      else
        { len = chr_len
        ; chars = { possible = p; required = [ p ] }
        ; empty = Nonempty }
    | R.Eps -> { len = eps_len; chars = no_chars; empty = Nonempty }
    | R.Concat (a, b) ->
      let sa = summarize a and sb = summarize b in
      if sa.empty = Empty || sb.empty = Empty then bottom
      else
        { len = concat_len sa.len sb.len
        ; chars = concat_chars sa.chars sb.chars
        ; empty =
            (if sa.empty = Nonempty && sb.empty = Nonempty then Nonempty
             else Maybe_empty) }
    | R.Star a ->
      let sa = summarize a in
      { len = star_len sa.len
      ; chars = { sa.chars with required = [] }
      ; empty = Nonempty }
    | R.Loop (a, m, n) ->
      let sa = summarize a in
      if m = 0 then
        { len = loop_len sa.len 0 n
        ; chars =
            (if n = Some 0 then no_chars
             else { sa.chars with required = [] })
        ; empty = Nonempty }
      else if sa.empty = Empty then bottom
      else
        { len = loop_len sa.len m n
        ; chars = sa.chars
        ; empty = sa.empty }
    | R.Or bs ->
      let ss = List.map summarize bs in
      let live = List.filter (fun s -> s.empty <> Empty) ss in
      (match live with
      | [] -> bottom
      | s0 :: rest ->
        let len = List.fold_left (fun acc s -> union_len acc s.len) s0.len rest in
        let chars =
          List.fold_left (fun acc s -> union_chars acc s.chars) s0.chars rest
        in
        let empty =
          if List.exists (fun s -> s.empty = Nonempty) live then Nonempty
          else Maybe_empty
        in
        { len; chars; empty })
    | R.And bs ->
      let ss = List.map summarize bs in
      if List.exists (fun s -> s.empty = Empty) ss then bottom
      else
        let s0 = List.hd ss and rest = List.tl ss in
        let len = List.fold_left (fun acc s -> inter_len acc s.len) s0.len rest in
        let chars =
          List.fold_left (fun acc s -> inter_chars acc s.chars) s0.chars rest
        in
        (* an infeasible [len] is caught (and kept) by [refine] *)
        { len; chars; empty = Maybe_empty }
    | R.Not a ->
      let sa = summarize a in
      if sa.empty = Empty then
        (* ~empty = .* *)
        { len = top_len; chars = top_chars; empty = Nonempty }
      else if R.is_full a then bottom
      else { len = top_len; chars = top_chars; empty = Maybe_empty }

  (* -- witness construction ----------------------------------------------- *)

  (* Candidate words for a Boolean subterm: the chosen character of
     each required predicate, padded with a possible character up to a
     handful of abstractly-admissible lengths.  Everything is validated
     by the caller; this only has to be a good guesser. *)
  let candidate_words (s : summary) : int list list =
    let req = List.filter_map A.choose s.chars.required in
    let need = List.length req in
    let pad =
      match A.choose s.chars.possible with
      | Some c -> Some c
      | None -> (match req with c :: _ -> Some c | [] -> None)
    in
    let lengths =
      let step = max s.len.stride 1 in
      let first =
        if s.len.lmin >= need then s.len.lmin
        else if s.len.stride = 0 then need
        else
          s.len.lmin
          + ((need - s.len.lmin + step - 1) / step * step)
      in
      let ks = if s.len.stride = 0 then [ 0 ] else [ 0; 1; 2; 4 ] in
      List.filter
        (fun l ->
          l <= witness_cap
          && (match s.len.lmax with Some m -> l <= m | None -> true))
        (List.map (fun k -> first + (k * step)) ks)
    in
    List.concat_map
      (fun l ->
        if l < need then []
        else if l = need then [ req ]
        else
          match pad with
          | None -> []
          | Some c ->
            let fill = List.init (l - need) (fun _ -> c) in
            (* pad after and before the required characters *)
            [ req @ fill; fill @ req ])
      lengths

  exception Out_of_fuel

  (* Shortest-word construction on the positive fragment, descending
     into Boolean subterms via guess-and-check.  Each And/Not candidate
     is validated against its own subterm, so a success is exact and
     composes. *)
  let construct (r : R.t) : int list option =
    let fuel = ref construct_fuel in
    let spend () =
      if !fuel <= 0 then raise Out_of_fuel;
      decr fuel
    in
    let rec go depth (r : R.t) : int list option =
      if depth > 64 then None
      else if R.nullable r then Some []
      else
        match r.R.node with
        | R.Pred p -> (match A.choose p with Some c -> Some [ c ] | None -> None)
        | R.Eps -> Some []
        | R.Concat (a, b) -> (
          match go (depth + 1) a with
          | None -> None
          | Some wa -> (
            match go (depth + 1) b with
            | None -> None
            | Some wb -> Some (wa @ wb)))
        | R.Star _ -> Some [] (* unreachable: nullable *)
        | R.Loop (a, m, _) ->
          if m = 0 then Some []
          else (
            match go (depth + 1) a with
            | None -> None
            | Some wa ->
              if List.length wa * m > witness_cap then None
              else Some (List.concat (List.init m (fun _ -> wa))))
        | R.Or bs ->
          (* cheapest abstract length first *)
          let keyed = List.map (fun b -> ((summarize b).len.lmin, b)) bs in
          let sorted = List.sort (fun (x, _) (y, _) -> compare x y) keyed in
          List.fold_left
            (fun acc (_, b) ->
              match acc with Some _ -> acc | None -> go (depth + 1) b)
            None sorted
        | R.And _ | R.Not _ ->
          let s = summarize r in
          if s.empty = Empty then None
          else
            List.find_opt
              (fun w ->
                spend ();
                D.matches r w)
              (candidate_words s)
    in
    try
      match go 0 r with
      | Some w when List.length w <= witness_cap ->
        spend ();
        if D.matches r w then Some w else None
      | _ -> None
    with Out_of_fuel -> None

  (* -- the pre-solver ----------------------------------------------------- *)

  type verdict = Unsat_proved | Sat_witnessed of string | Unknown

  let string_of_verdict = function
    | Unsat_proved -> "unsat-proved"
    | Sat_witnessed w -> Printf.sprintf "sat-witnessed %S" w
    | Unknown -> "unknown"

  let presolve_word (r : R.t) : [ `Unsat | `Sat of int list | `Unknown ] =
    match Hashtbl.find_opt verdict_memo r.R.id with
    | Some v -> v
    | None ->
      let s = summarize r in
      let v =
        if s.empty = Empty then `Unsat
        else if R.nullable r then `Sat []
        else match construct r with Some w -> `Sat w | None -> `Unknown
      in
      Hashtbl.add verdict_memo r.R.id v;
      v

  (* Witness words are built from [A.choose], which is printable-ASCII
     biased; a code point outside the byte range cannot be encoded in
     the Latin-1 witness string, so the string-level verdict degrades
     to [Unknown] rather than mangle it. *)
  let presolve (r : R.t) : verdict =
    match presolve_word r with
    | `Unsat -> Unsat_proved
    | `Unknown -> Unknown
    | `Sat w ->
      if List.for_all (fun c -> c >= 0 && c < 256) w then
        Sat_witnessed
          (String.init (List.length w) (fun i -> Char.chr (List.nth w i)))
      else Unknown

  (* -- pretty-printing / JSON support ------------------------------------- *)

  let pp_len ppf l =
    match l.lmax with
    | Some m when m = l.lmin -> Format.fprintf ppf "{%d}" l.lmin
    | Some m -> Format.fprintf ppf "[%d,%d]/%d" l.lmin m l.stride
    | None -> Format.fprintf ppf "[%d,inf)/%d" l.lmin l.stride

  let pp_summary ppf s =
    Format.fprintf ppf "len=%a required=%d empty=%s" pp_len s.len
      (List.length s.chars.required)
      (match s.empty with
      | Empty -> "empty"
      | Nonempty -> "nonempty"
      | Maybe_empty -> "maybe")
end

(** The domain over one derivative tower [D].  The solver, the
    containment prover, the analyzers and the match engine are functors
    over an instance of [S], so they share its memos and take [D] from
    it. *)
module type S = sig
  module D : Sbd_core.Deriv.S
  include module type of Body (D)
end

module Make (D : Sbd_core.Deriv.S) : S with module D = D = struct
  module D = D
  include Body (D)
end
