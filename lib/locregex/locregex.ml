(** Location-aware symbolic extended regular expressions: the RE#
    extension of the paper's derivative framework (Varatalu–Veanes–Ernits,
    arXiv 2309.14401 / 2407.20479) with anchors and lookarounds while
    keeping intersection and complement.

    The grammar extends ERE with four {e zero-width} constructs:

    {v LRE ::= ERE | ^ | $ | (?=r) | (?!r) | (?<=r) | (?<!r) v}

    where lookaround bodies [r] are plain EREs.  Zero-width terms match
    the empty string, but only at input locations satisfying a
    condition: [^] at offset 0, [$] at the end of input, [(?<=r)] where
    some suffix of the consumed prefix is in [L(r)], [(?=r)] where some
    prefix of the remaining input is in [L(r)] (negated forms invert).

    The key move (RE# §3) is that nullability becomes {e
    location-indexed}: instead of [nullable : t -> bool] there is
    [nullable ~sat], where [sat : atom -> bool] is the valuation of the
    zero-width atoms at the current location.  Derivatives are likewise
    valuation-indexed — the concatenation rule consults [ν_sat] — and
    zero-width atoms derive to ⊥ (they match no character), so pending
    obligations survive syntactically inside the derivative until the
    location that discharges them.  With the valuation supplied per
    position by small parallel automata (one per lookaround body, see
    {!Sbd_engine.Locmatch}), matching stays linear.

    Terms are hash-consed exactly like {!Sbd_regex.Regex} — physical
    equality, pair-keyed [alt]/[inter] memos — and the smart
    constructors apply the same similarity normalizations {e except}
    those that consult nullability, which for a term containing
    zero-width atoms is not a single boolean: those rules are guarded to
    zero-width-free subterms, where they coincide with the plain ones.
    Bounded loops over zero-width-containing bodies are expanded at
    construction (their counter semantics interacts with per-location
    nullability), with a small bound as a safety valve. *)

(** Zero-width atoms, the domain of a location valuation.  The negation
    of a lookaround is {e not} part of the atom — [ν] applies the sign —
    so [(?=r)] and [(?!r)] share one obligation automaton. *)

module type S = sig
  module R : Sbd_regex.Regex.S

  type t = private { id : int; node : node; hash : int; zw : bool; nul : bool }
  (** [zw]: does the term contain a zero-width atom?  [nul]: ν under the
      all-false valuation — {e the} nullability whenever [zw] is false. *)

  and node =
    | Pred of R.A.pred
    | Eps
    | Begin  (** [^]: start of input *)
    | Endl  (** [$]: end of input *)
    | Look of { behind : bool; neg : bool; body : R.t }
        (** [(?<=b)] / [(?<!b)] / [(?=b)] / [(?!b)] *)
    | Concat of t * t
    | Star of t
    | Loop of t * int * int option
        (** invariant: the body is zero-width-free (zw bodies are
            expanded by {!loop}) *)
    | Or of t list
    | And of t list
    | Not of t

  type atom = Abegin | Aend | Alook of { behind : bool; body : R.t }

  val atom_equal : atom -> atom -> bool

  (** {2 Constructors} *)

  val pred : R.A.pred -> t
  val eps : t
  val empty : t
  val full : t
  val any : t
  val chr : int -> t
  val begin_ : t
  val end_ : t

  val look : behind:bool -> neg:bool -> R.t -> t
  (** Degenerate bodies are deliberately {e not} normalized away (a
      positive lookaround with nullable body is ε, a negative one ⊥):
      the analyzer lints them (SBD301/302), which requires seeing the
      node. *)

  val concat : t -> t -> t
  val concat_list : t list -> t
  val star : t -> t
  val plus : t -> t
  val opt : t -> t

  val loop : t -> int -> int option -> t
  (** Raises [Invalid_argument] when the body contains zero-width atoms
      and the expansion bound exceeds {!max_zw_loop}. *)

  val alt : t -> t -> t
  val alt_list : t list -> t
  val inter : t -> t -> t
  val inter_list : t list -> t
  val compl : t -> t
  val diff : t -> t -> t

  val max_zw_loop : int

  (** {2 Location-indexed semantics} *)

  val nullable : sat:(atom -> bool) -> t -> bool
  (** ν_v(r): does [r] accept the empty string at a location where the
      zero-width atoms have the truth values given by [sat]? *)

  val deriv : sat:(atom -> bool) -> int -> t -> t
  (** D_a^v(r): the location-aware derivative by code point [a] under
      the valuation [sat] of the {e current} location.  Zero-width atoms
      derive to ⊥. *)

  val atoms : t -> atom list
  (** The distinct zero-width atoms of the term, in first-occurrence
      order.  Empty iff [zw] is false. *)

  (** {2 Conversions} *)

  val of_plain : R.t -> t
  val to_plain : t -> R.t option
  (** [Some] iff the term is zero-width-free. *)

  val pred_carrier : t -> R.t
  (** A plain regex whose predicate set is exactly the term's (lookaround
      bodies included) — feed to {!Sbd_engine.Byteclass.compile} so the
      minterm partition refines every predicate of the extended term. *)

  val lower : t -> R.t option
  (** Anchor elimination: a plain regex matching exactly the words the
      located term matches as a {e whole input} (ν at offset 0 ∧ end).
      [None] when the term contains lookarounds, whose semantics crosses
      concatenation boundaries and does not lower compositionally. *)

  (** {2 Observers} *)

  val zero_width : t -> bool
  val has_look : t -> bool
  val has_anchor : t -> bool
  val equal : t -> t -> bool
  val compare : t -> t -> int
  val hash : t -> int
  val size : t -> int

  val intern_size : unit -> int
  (** Nodes in this instantiation's hash-cons table, O(1); never
      evicted, like {!Sbd_regex.Regex.S.intern_size}. *)

  val pp : Format.formatter -> t -> unit
  val to_string : t -> string
end

module Make (R : Sbd_regex.Regex.S) : S with module R = R = struct
  module R = R

  type t = { id : int; node : node; hash : int; zw : bool; nul : bool }

  and node =
    | Pred of R.A.pred
    | Eps
    | Begin
    | Endl
    | Look of { behind : bool; neg : bool; body : R.t }
    | Concat of t * t
    | Star of t
    | Loop of t * int * int option
    | Or of t list
    | And of t list
    | Not of t

  type atom = Abegin | Aend | Alook of { behind : bool; body : R.t }

  let atom_equal a b =
    match (a, b) with
    | Abegin, Abegin | Aend, Aend -> true
    | Alook l, Alook l' -> l.behind = l'.behind && R.equal l.body l'.body
    | (Abegin | Aend | Alook _), _ -> false

  let max_zw_loop = 64

  (* -- hash-consing (mirrors Regex.Make) ---------------------------- *)

  let mix a b = ((a * 0x9e3779b1) lxor b) land max_int
  let mix_list seed xs = List.fold_left (fun h x -> mix h x.id) seed xs

  let hash_node = function
    | Pred p -> mix 0 (R.A.hash p)
    | Eps -> 1
    | Concat (a, b) -> mix (mix 2 a.id) b.id
    | Star a -> mix 3 a.id
    | Loop (a, m, n) ->
      mix (mix (mix 4 a.id) m) (match n with None -> -1 | Some n -> n)
    | Or xs -> mix_list 5 xs
    | And xs -> mix_list 6 xs
    | Not a -> mix 7 a.id
    | Begin -> 8
    | Endl -> 9
    | Look { behind; neg; body } ->
      mix (mix (mix 10 (Bool.to_int behind)) (Bool.to_int neg)) (R.hash body)

  module H = struct
    type nonrec t = node

    let equal a b =
      match[@warning "-4"] (a, b) with
      | Pred p, Pred q -> R.A.equal p q
      | Eps, Eps | Begin, Begin | Endl, Endl -> true
      | Look l, Look l' ->
        l.behind = l'.behind && l.neg = l'.neg && l.body == l'.body
      | Concat (a1, a2), Concat (b1, b2) -> a1 == b1 && a2 == b2
      | Star a, Star b -> a == b
      | Loop (a, m1, n1), Loop (b, m2, n2) -> a == b && m1 = m2 && n1 = n2
      | Or xs, Or ys | And xs, And ys ->
        List.length xs = List.length ys && List.for_all2 ( == ) xs ys
      | Not a, Not b -> a == b
      | _ -> false

    let hash = hash_node
  end

  module Tbl = Hashtbl.Make (H)

  let table : t Tbl.t = Tbl.create 4096
  let next_id = ref 0

  let zw_node = function
    | Pred _ | Eps -> false
    | Begin | Endl | Look _ -> true
    | Concat (a, b) -> a.zw || b.zw
    | Star a | Loop (a, _, _) | Not a -> a.zw
    | Or xs | And xs -> List.exists (fun x -> x.zw) xs

  (* ν under the all-false valuation: anchors and positive lookarounds
     fail, negative lookarounds hold.  For zw-free terms this is the
     (valuation-independent) nullability. *)
  let nul_node = function
    | Pred _ | Begin | Endl -> false
    | Eps -> true
    | Look { neg; _ } -> neg
    | Concat (a, b) -> a.nul && b.nul
    | Star _ -> true
    | Loop (a, m, _) -> m = 0 || a.nul
    | Or xs -> List.exists (fun x -> x.nul) xs
    | And xs -> List.for_all (fun x -> x.nul) xs
    | Not a -> not a.nul

  let mk node =
    match Tbl.find table node with
    | t -> t
    | exception Not_found ->
      let t =
        {
          id = !next_id;
          node;
          hash = hash_node node;
          zw = zw_node node;
          nul = nul_node node;
        }
      in
      incr next_id;
      Tbl.add table node t;
      t

  let intern_size () = !next_id

  (* -- smart constructors ------------------------------------------- *)

  let pred p = mk (Pred p)
  let eps = mk Eps
  let empty = pred R.A.bot
  let any = pred R.A.top
  let full = mk (Star any)
  let chr c = pred (R.A.of_ranges [ (c, c) ])
  let begin_ = mk Begin
  let end_ = mk Endl
  let look ~behind ~neg body = mk (Look { behind; neg; body })
  let equal a b = a == b
  let compare a b = Int.compare a.id b.id
  let hash t = t.hash
  let zero_width t = t.zw

  let rec concat a b =
    if a == empty || b == empty then empty
    else if a == eps then b
    else if b == eps then a
    else
      match[@warning "-4"] (a.node, b.node) with
      | Concat (a1, a2), _ -> concat a1 (concat a2 b)
      | Star x, Star y when x == y -> a
      | Star x, Concat ({ node = Star y; _ }, _) when x == y -> b
      | _ -> mk (Concat (a, b))

  let concat_list rs = List.fold_right concat rs eps

  let rec star r =
    match r.node with
    | Eps -> eps
    | Pred p when R.A.is_bot p -> eps
    | Star _ -> r
    | Loop (s, 0, None) -> star s
    | Or xs when List.memq eps xs -> (
      match List.filter (fun x -> x != eps) xs with
      | [] -> eps
      | [ x ] -> star x
      | xs -> mk (Star (mk (Or xs))))
    | Pred _ | Begin | Endl | Look _ | Concat _ | Loop _ | Or _ | And _
    | Not _ ->
      mk (Star r)

  let has_complementary_pair xs =
    List.exists
      (fun x ->
        match[@warning "-4"] x.node with
        | Not y -> List.memq y xs
        | _ -> false)
      xs

  let sort_uniq xs = List.sort_uniq (fun a b -> Int.compare a.id b.id) xs
  let pair_key a b =
    if a.id <= b.id then (a.id lsl 31) lor b.id else (b.id lsl 31) lor a.id

  let alt_memo : (int, t) Hashtbl.t = Hashtbl.create 1024
  let inter_memo : (int, t) Hashtbl.t = Hashtbl.create 1024

  let rec alt_list rs =
    let flat =
      List.concat_map
        (fun r ->
          match[@warning "-4"] r.node with Or xs -> xs | _ -> [ r ])
        rs
    in
    let flat = List.filter (fun r -> r != empty) flat in
    let flat = sort_uniq flat in
    if List.exists (fun r -> r == full) flat || has_complementary_pair flat
    then full
    else
      match flat with
      | [] -> empty
      | [ r ] -> r
      | _ ->
        (* eps | r = r only when some branch is nullable at *every*
           location, i.e. is zero-width-free and nullable. *)
        let flat' =
          if List.memq eps flat
             && List.exists (fun r -> r != eps && (not r.zw) && r.nul) flat
          then List.filter (fun r -> r != eps) flat
          else flat
        in
        (match flat' with [ r ] -> r | _ -> mk (Or flat'))

  and alt a b =
    if a == b then a
    else
      let k = pair_key a b in
      match Hashtbl.find alt_memo k with
      | r -> r
      | exception Not_found ->
        let r = alt_list [ a; b ] in
        Hashtbl.add alt_memo k r;
        r

  let inter_list rs =
    let flat =
      List.concat_map
        (fun r ->
          match[@warning "-4"] r.node with And xs -> xs | _ -> [ r ])
        rs
    in
    let flat = List.filter (fun r -> r != full) flat in
    let flat = sort_uniq flat in
    if List.exists (fun r -> r == empty) flat || has_complementary_pair flat
    then empty
    else match flat with [] -> full | [ r ] -> r | _ -> mk (And flat)

  let inter a b =
    if a == b then a
    else
      let k = pair_key a b in
      match Hashtbl.find inter_memo k with
      | r -> r
      | exception Not_found ->
        let r = inter_list [ a; b ] in
        Hashtbl.add inter_memo k r;
        r

  let rec compl r =
    match[@warning "-4"] r.node with
    | Not s -> s
    | Or xs -> inter_list (List.map compl xs)
    | And xs -> alt_list (List.map compl xs)
    | _ -> if r == empty then full else if r == full then empty else mk (Not r)

  let loop r m n =
    let m = max m 0 in
    match n with
    | Some n' when n' < m -> empty
    | _ ->
      if r == eps then eps
      else if r == empty then if m = 0 then eps else empty
      else if not r.zw then
        (* the plain normalizations: sound because nullability of a
           zw-free body is location-independent *)
        let m = if r.nul then 0 else m in
        match (m, n) with
        | 0, Some 0 -> eps
        | 1, Some 1 -> r
        | 0, None -> star r
        | _ -> mk (Loop (r, m, n))
      else begin
        (* Counters over zero-width-containing bodies are expanded: the
           Loop constructor's counter arithmetic (and the derivative
           rule's [m-1]) assumes one nullability boolean per body, which
           a located body does not have.  Bounded expansion keeps the
           Loop invariant "body is zw-free" for everything downstream. *)
        let bound = match n with Some k -> k | None -> m in
        if bound > max_zw_loop then
          invalid_arg
            (Printf.sprintf
               "locregex: counted repetition of a zero-width-containing \
                term is limited to {,%d}"
               max_zw_loop);
        let copies k = List.init k (fun _ -> r) in
        match n with
        | None -> concat_list (copies m @ [ star r ])
        | Some k ->
          concat_list (copies m @ List.init (k - m) (fun _ -> alt eps r))
      end

  let plus r = if r.zw then concat r (star r) else loop r 1 None
  let opt r = if r.zw then alt eps r else loop r 0 (Some 1)
  let diff a b = inter a (compl b)

  (* -- location-indexed nullability and derivatives ------------------ *)

  let rec nullable ~sat t =
    if not t.zw then t.nul
    else
      match t.node with
      | Pred _ -> false
      | Eps -> true
      | Begin -> sat Abegin
      | Endl -> sat Aend
      | Look { behind; neg; body } ->
        let v = sat (Alook { behind; body }) in
        if neg then not v else v
      | Concat (a, b) -> nullable ~sat a && nullable ~sat b
      | Star _ -> true
      | Loop (a, m, _) -> m = 0 || nullable ~sat a
      | Or xs -> List.exists (nullable ~sat) xs
      | And xs -> List.for_all (nullable ~sat) xs
      | Not a -> not (nullable ~sat a)

  (* D_a^v.  Zero-width atoms consume nothing, so their derivative is ⊥;
     they are *not* erased from right components — ν re-examines them at
     each subsequent location, which is exactly how an obligation like
     the [$] in D_a(a$) = $ stays pending until the end of input. *)
  let rec deriv ~sat a t =
    match t.node with
    | Eps | Begin | Endl | Look _ -> empty
    | Pred p -> if R.A.mem a p then eps else empty
    | Concat (r1, r2) ->
      let d1 = concat (deriv ~sat a r1) r2 in
      if nullable ~sat r1 then alt d1 (deriv ~sat a r2) else d1
    | Star body -> concat (deriv ~sat a body) t
    | Loop (body, m, n) ->
      let n' = Option.map (fun x -> x - 1) n in
      concat (deriv ~sat a body) (loop body (max (m - 1) 0) n')
    | Or xs -> alt_list (List.map (deriv ~sat a) xs)
    | And xs -> inter_list (List.map (deriv ~sat a) xs)
    | Not body -> compl (deriv ~sat a body)

  (* -- atoms ---------------------------------------------------------- *)

  let atoms t =
    let acc = ref [] in
    let add a = if not (List.exists (atom_equal a) !acc) then acc := a :: !acc in
    let rec go t =
      if t.zw then
        match t.node with
        | Pred _ | Eps -> ()
        | Begin -> add Abegin
        | Endl -> add Aend
        | Look { behind; body; _ } -> add (Alook { behind; body })
        | Concat (a, b) ->
          go a;
          go b
        | Star a | Loop (a, _, _) | Not a -> go a
        | Or xs | And xs -> List.iter go xs
    in
    go t;
    List.rev !acc

  let rec has_look t =
    t.zw
    &&
    match t.node with
    | Look _ -> true
    | Pred _ | Eps | Begin | Endl -> false
    | Concat (a, b) -> has_look a || has_look b
    | Star a | Loop (a, _, _) | Not a -> has_look a
    | Or xs | And xs -> List.exists has_look xs

  let rec has_anchor t =
    t.zw
    &&
    match t.node with
    | Begin | Endl -> true
    | Pred _ | Eps | Look _ -> false
    | Concat (a, b) -> has_anchor a || has_anchor b
    | Star a | Loop (a, _, _) | Not a -> has_anchor a
    | Or xs | And xs -> List.exists has_anchor xs

  (* -- conversions ---------------------------------------------------- *)

  let of_plain =
    let memo : (int, t) Hashtbl.t = Hashtbl.create 256 in
    let rec go (r : R.t) =
      match Hashtbl.find_opt memo r.R.id with
      | Some t -> t
      | None ->
        let t =
          match r.R.node with
          | R.Pred p -> pred p
          | R.Eps -> eps
          | R.Concat (a, b) -> concat (go a) (go b)
          | R.Star a -> star (go a)
          | R.Loop (a, m, n) -> loop (go a) m n
          | R.Or xs -> alt_list (List.map go xs)
          | R.And xs -> inter_list (List.map go xs)
          | R.Not a -> compl (go a)
        in
        Hashtbl.add memo r.R.id t;
        t
    in
    go

  let to_plain =
    let memo : (int, R.t) Hashtbl.t = Hashtbl.create 256 in
    let rec go t =
      match Hashtbl.find_opt memo t.id with
      | Some r -> r
      | None ->
        let r =
          match t.node with
          | Pred p -> R.pred p
          | Eps -> R.eps
          | Begin | Endl | Look _ -> assert false
          | Concat (a, b) -> R.concat (go a) (go b)
          | Star a -> R.star (go a)
          | Loop (a, m, n) -> R.loop (go a) m n
          | Or xs -> R.alt_list (List.map go xs)
          | And xs -> R.inter_list (List.map go xs)
          | Not a -> R.compl (go a)
        in
        Hashtbl.add memo t.id r;
        r
    in
    fun t -> if t.zw then None else Some (go t)

  let preds t =
    let acc = ref [] in
    let add p = if not (List.exists (R.A.equal p) !acc) then acc := p :: !acc in
    let rec go t =
      match t.node with
      | Pred p -> add p
      | Eps | Begin | Endl -> ()
      | Look { body; _ } -> List.iter add (R.preds body)
      | Concat (a, b) ->
        go a;
        go b
      | Star a | Loop (a, _, _) | Not a -> go a
      | Or xs | And xs -> List.iter go xs
    in
    go t;
    List.rev !acc

  (* Concatenation of optional single-predicate terms: [alt]/[inter]
     normalization can silently drop branches, but a concatenation of
     nullable factors keeps every predicate — the minterm partition of
     the carrier therefore refines every predicate of the located term,
     lookaround bodies included. *)
  let pred_carrier t =
    R.concat_list (List.map (fun p -> R.opt (R.pred p)) (preds t))

  (* -- anchor elimination -------------------------------------------- *)

  (* T(r,f,l) = the plain language of words w matched by r at a span
     whose start is the input start iff f and whose end is the input end
     iff l; interior positions of a nonempty w are neither.  Computed as
     εm(r,f,l)? ε ∪ Tne(r,f,l) with Tne producing only nonempty words,
     which makes the concatenation and star equations compositional:
     a nonempty left factor puts the right factor's start strictly
     inside the input, so its begin flag drops to false (and dually).
     Lookarounds break exactly this locality — (?=b) reaches past the
     enclosing concatenation — hence [lower] refuses them. *)

  let em f l t =
    nullable
      ~sat:(function Abegin -> f | Aend -> l | Alook _ -> false)
      t

  (* Nonempty-restriction of a plain regex: L(ne r) = L(r) \ {ε}. *)
  let rec nonempty_plain (r : R.t) : R.t =
    if not (R.nullable r) then r
    else
      match r.R.node with
      | R.Pred _ -> r
      | R.Eps -> R.empty
      | R.Concat (a, b) ->
        (* both factors nullable here *)
        R.alt (R.concat (nonempty_plain a) b) (nonempty_plain b)
      | R.Star a -> R.concat (nonempty_plain a) r
      | R.Loop (a, _, n) ->
        (* a nullable loop is normalized to m = 0 *)
        R.concat (nonempty_plain a)
          (R.loop a 0 (Option.map (fun k -> k - 1) n))
      | R.Or xs -> R.alt_list (List.map nonempty_plain xs)
      | R.And _ | R.Not _ -> R.inter r (R.concat R.any R.full)

  let lower t =
    if has_look t then None
    else begin
      let plain_ne t =
        match to_plain t with Some p -> nonempty_plain p | None -> assert false
      in
      let memo : (int, R.t) Hashtbl.t = Hashtbl.create 64 in
      let rec tne t f l =
        if not t.zw then plain_ne t
        else
          let key =
            (t.id lsl 2) lor ((if f then 2 else 0) lor if l then 1 else 0)
          in
          match Hashtbl.find_opt memo key with
          | Some r -> r
          | None ->
            let r =
              match t.node with
              | Pred _ | Eps -> assert false (* zw-free, handled above *)
              | Begin | Endl -> R.empty (* match only ε *)
              | Look _ -> assert false
              | Loop _ -> assert false (* zw loop bodies are expanded *)
              | Concat (a, b) ->
                R.alt_list
                  [
                    R.concat (tne a f false) (tne b false l);
                    (if em f false a then tne b f l else R.empty);
                    (if em false l b then tne a f l else R.empty);
                  ]
              | Star a ->
                R.alt (tne a f l)
                  (R.concat (tne a f false)
                     (R.concat
                        (R.star (tne a false false))
                        (tne a false l)))
              | Or xs -> R.alt_list (List.map (fun x -> tne x f l) xs)
              | And xs -> R.inter_list (List.map (fun x -> tne x f l) xs)
              | Not a ->
                let ta = tne a f l in
                let whole = if em f l a then R.alt R.eps ta else ta in
                (* nonempty words outside T(a,f,l) *)
                R.inter (R.compl whole) (R.concat R.any R.full)
            in
            Hashtbl.add memo key r;
            r
      in
      let t0 = tne t true true in
      Some (if em true true t then R.alt R.eps t0 else t0)
    end

  (* -- metrics -------------------------------------------------------- *)

  let rec size t =
    match t.node with
    | Pred _ | Eps | Begin | Endl -> 1
    | Look { body; _ } -> 1 + R.size body
    | Concat (a, b) -> 1 + size a + size b
    | Star a | Loop (a, _, _) | Not a -> 1 + size a
    | Or xs | And xs -> List.fold_left (fun acc x -> acc + size x) 1 xs

  (* -- printing (same precedence scheme as Regex.pp) ------------------ *)

  let rec pp_prec level ppf t =
    let prec, doc =
      match t.node with
      | _ when t == full -> (5, fun ppf -> Format.pp_print_string ppf ".*")
      | Pred p when R.A.is_bot p ->
        (5, fun ppf -> Format.pp_print_string ppf "[]")
      | Pred p -> (5, fun ppf -> R.A.pp ppf p)
      | Eps -> (5, fun ppf -> Format.pp_print_string ppf "()")
      | Begin -> (5, fun ppf -> Format.pp_print_string ppf "^")
      | Endl -> (5, fun ppf -> Format.pp_print_string ppf "$")
      | Look { behind; neg; body } ->
        ( 5,
          fun ppf ->
            Format.fprintf ppf "(?%s%s%a)"
              (if behind then "<" else "")
              (if neg then "!" else "=")
              R.pp body )
      | Concat (a, b) ->
        (2, fun ppf -> Format.fprintf ppf "%a%a" (pp_prec 2) a (pp_prec 3) b)
      | Star a -> (4, fun ppf -> Format.fprintf ppf "%a*" (pp_prec 5) a)
      | Loop (a, m, n) ->
        ( 4,
          fun ppf ->
            let bound =
              match n with
              | Some n' when n' = m -> Printf.sprintf "{%d}" m
              | Some n' -> Printf.sprintf "{%d,%d}" m n'
              | None -> Printf.sprintf "{%d,}" m
            in
            Format.fprintf ppf "%a%s" (pp_prec 5) a bound )
      | Or xs ->
        ( 0,
          fun ppf ->
            Format.pp_print_list
              ~pp_sep:(fun ppf () -> Format.pp_print_string ppf "|")
              (pp_prec 1) ppf xs )
      | And xs ->
        ( 1,
          fun ppf ->
            Format.pp_print_list
              ~pp_sep:(fun ppf () -> Format.pp_print_string ppf "&")
              (pp_prec 2) ppf xs )
      | Not a -> (3, fun ppf -> Format.fprintf ppf "~%a" (pp_prec 4) a)
    in
    let needs_parens =
      match[@warning "-4"] t.node with
      | Concat _ when level = 3 -> false
      | _ -> prec < level
    in
    if needs_parens then Format.fprintf ppf "(%t)" doc else doc ppf

  let pp ppf t = pp_prec 0 ppf t
  let to_string t = Format.asprintf "%a" pp t
end
