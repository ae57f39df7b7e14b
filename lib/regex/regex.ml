(** Symbolic extended regular expressions (ERE) modulo an effective Boolean
    algebra of character predicates (Section 3 of the paper).

    The grammar is

    {v ERE ::= phi | eps | bot | ERE . ERE | ERE* | ERE{m,n}
             | ERE '|' ERE | ERE & ERE | ~ERE v}

    where [phi] ranges over the predicates of the alphabet theory.  Bounded
    loops [r{m,n}] are first-class (the paper's benchmarks lean on them
    heavily; unfolding them would defeat the succinctness the approach is
    about).

    Terms are hash-consed and the smart constructors work modulo the
    paper's "similarity" relation: [&] and [|] are idempotent, associative
    and commutative; [.] (concatenation) is associative and kept
    right-associated; [bot] and [.*] act as unit/absorbing elements; and
    [~~r = r].  This keeps the set of derivatives finite (Theorem 7.1) and
    small in practice.  Equality of hash-consed terms is O(1). *)

module type S = sig
  module A : Sbd_alphabet.Algebra.S

  type t = private { id : int; node : node; nullable : bool; hash : int }

  and node =
    | Pred of A.pred  (** single-character predicate; [Pred bot] is ⊥ *)
    | Eps
    | Concat of t * t  (** right-associated: left component never a Concat *)
    | Star of t
    | Loop of t * int * int option  (** [r{m,n}]; [None] is unbounded *)
    | Or of t list  (** flattened, sorted by id, length >= 2 *)
    | And of t list
    | Not of t

  (** {2 Constructors} *)

  val pred : A.pred -> t
  val eps : t
  val empty : t  (** ⊥: the empty language *)

  val full : t  (** [.*]: all strings; canonically [Star (Pred top)] *)

  val any : t  (** [.]: any single character *)

  val chr : int -> t
  val str : string -> t  (** concatenation of the bytes of the string *)

  val of_class : Sbd_alphabet.Charclass.t -> t
  val concat : t -> t -> t
  val concat_list : t list -> t
  val star : t -> t
  val plus : t -> t
  val opt : t -> t
  val loop : t -> int -> int option -> t
  val alt : t -> t -> t
  val alt_list : t list -> t
  val inter : t -> t -> t
  val inter_list : t list -> t
  val compl : t -> t
  val diff : t -> t -> t  (** [diff a b = a & ~b] *)

  val rev : t -> t
  (** Language reversal: [L(rev r) = { reverse w | w ∈ L(r) }].  Reversal
      distributes over every ERE operator (Boolean operators commute with
      it because word reversal is a bijection); only concatenation flips
      its arguments.  Used by the match engine's backward pass. *)

  (** {2 Observers} *)

  val nullable : t -> bool  (** ν(r): does [r] accept the empty string? *)

  val equal : t -> t -> bool
  val compare : t -> t -> int
  val hash : t -> int
  val is_empty : t -> bool  (** syntactically ⊥ *)

  val is_full : t -> bool  (** syntactically [.*] *)

  val size : t -> int  (** number of AST nodes *)

  val num_preds : t -> int  (** ♯(r): number of predicate node occurrences *)

  val num_preds_unfolded : t -> int
  (** ♯(r) with bounded loops counted as their classical unfolding
      ([r{m,n}] contributes [n] copies of the body, [r{m,}] contributes
      [m + 1]).  This is the measure of Theorem 7.3, which is stated for
      regexes over concatenation and star. *)

  val preds : t -> A.pred list  (** Ψ_r: the distinct predicates occurring in [r] *)

  val intern_size : unit -> int
  (** Nodes in this instantiation's hash-cons table, O(1).  The table is
      never evicted: only dropping the whole instantiation frees it. *)

  val in_re : t -> bool  (** is [r] a classical regex (no [&], [~])? *)

  val in_bre : t -> bool
  (** is [r] in B(RE): Boolean combination of classical regexes, i.e. no
      [&]/[~] strictly below a concatenation, star or loop? *)

  val pp : Format.formatter -> t -> unit
  val to_string : t -> string

  module Set : Set.S with type elt = t
  module Map : Map.S with type key = t
end

module Make (A : Sbd_alphabet.Algebra.S) : S with module A = A = struct
  module A = A

  type t = { id : int; node : node; nullable : bool; hash : int }

  and node =
    | Pred of A.pred
    | Eps
    | Concat of t * t
    | Star of t
    | Loop of t * int * int option
    | Or of t list
    | And of t list
    | Not of t

  (* -- hash-consing ------------------------------------------------- *)

  (* Manual integer mixing instead of the polymorphic [Hashtbl.hash]:
     no tuple allocation, no block traversal (this is on the [mk] hot
     path of every derivative computation).  [land max_int] keeps the
     result non-negative as [Hashtbl.Make] requires. *)
  let mix a b = ((a * 0x9e3779b1) lxor b) land max_int
  let mix_list seed xs = List.fold_left (fun h x -> mix h x.id) seed xs

  let hash_node = function
    | Pred p -> mix 0 (A.hash p)
    | Eps -> 1
    | Concat (a, b) -> mix (mix 2 a.id) b.id
    | Star a -> mix 3 a.id
    | Loop (a, m, n) ->
      mix (mix (mix 4 a.id) m) (match n with None -> -1 | Some n -> n)
    | Or xs -> mix_list 5 xs
    | And xs -> mix_list 6 xs
    | Not a -> mix 7 a.id

  (* The intern table is keyed by the bare [node] -- the value the
     caller of [mk] has already allocated -- so a hit allocates nothing
     (no candidate record, no [nullable] computation). *)
  module H = struct
    type t = node

    (* Catch-all covers the mixed-constructor pairs; enumerating all 64
       would drown the structural rows. *)
    let equal a b =
      match[@warning "-4"] (a, b) with
      | Pred p, Pred q -> A.equal p q
      | Eps, Eps -> true
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

  let table : t Tbl.t = Tbl.create 32768
  let next_id = ref 0

  let nullable_node = function
    | Pred _ -> false
    | Eps -> true
    | Concat (a, b) -> a.nullable && b.nullable
    | Star _ -> true
    | Loop (_, m, _) -> m = 0
    | Or xs -> List.exists (fun x -> x.nullable) xs
    | And xs -> List.for_all (fun x -> x.nullable) xs
    | Not a -> not a.nullable

  let mk node =
    match Tbl.find table node with
    | t -> t
    | exception Not_found ->
      let t =
        {
          id = !next_id;
          node;
          nullable = nullable_node node;
          hash = hash_node node;
        }
      in
      incr next_id;
      Tbl.add table node t;
      t

  let intern_size () = !next_id

  (* -- smart constructors ------------------------------------------- *)

  let pred p = mk (Pred p)
  let eps = mk Eps
  let empty = pred A.bot
  let any = pred A.top
  let full = mk (Star any)
  let nullable t = t.nullable
  let equal a b = a == b
  let compare a b = Int.compare a.id b.id
  let hash t = t.hash
  let is_empty t = t == empty
  let is_full t = t == full

  let rec concat a b =
    if a == empty || b == empty then empty
    else if a == eps then b
    else if b == eps then a
    else
      match[@warning "-4"] (a.node, b.node) with
      | Concat (a1, a2), _ ->
        (* keep concatenations right-associated *)
        concat a1 (concat a2 b)
      | Star x, Star y when x == y -> a (* r*·r* = r* *)
      | Star x, Concat ({ node = Star y; _ }, _) when x == y ->
        b (* r*·(r*·s) = r*·s *)
      | _ -> mk (Concat (a, b))

  let concat_list rs = List.fold_right concat rs eps

  let rec star r =
    match r.node with
    | Eps -> eps
    | Pred p when A.is_bot p -> eps
    | Star _ -> r
    | Loop (s, 0, None) -> star s
    | Or xs when List.memq eps xs -> (
      (* (eps|r)* = r* *)
      match List.filter (fun x -> x != eps) xs with
      | [] -> eps
      | [ x ] -> star x
      | xs -> mk (Star (mk (Or xs))))
    | Pred _ | Concat _ | Loop _ | Or _ | And _ | Not _ -> mk (Star r)

  let loop r m n =
    let m = max m 0 in
    match n with
    | Some n' when n' < m -> empty
    | _ ->
      if r == eps then eps
      else if r == empty then if m = 0 then eps else empty
      else
        (* If r is nullable then r{m,n} = r{0,n} (shorter iterations are
           subsumed), and r{m,} = r*. *)
        let m = if r.nullable then 0 else m in
        (match (m, n) with
        | 0, Some 0 -> eps
        | 1, Some 1 -> r
        | 0, None -> star r
        | _ -> mk (Loop (r, m, n)))

  let plus r = loop r 1 None
  let opt r = loop r 0 (Some 1)

  (* Boolean combinations: flatten, sort by id, deduplicate, apply
     unit/absorbing elements, and detect the complementary pair r, ~r. *)

  let has_complementary_pair xs =
    List.exists
      (fun x ->
        match x.node with
        | Not y -> List.memq y xs
        | Pred _ | Eps | Concat _ | Star _ | Loop _ | Or _ | And _ -> false)
      xs

  let sort_uniq xs =
    let xs = List.sort_uniq (fun a b -> Int.compare a.id b.id) xs in
    xs

  (* Binary [alt]/[inter] are the hot path of derivative construction --
     every union/intersection leaf of a transition regex rebuilds through
     them -- and the list-based normalization below re-flattens, re-sorts
     and re-scans for complementary pairs on every call.  Both operations
     are commutative and ids are dense, so a pair-keyed memo (ids packed
     into one immediate int, smaller id first) turns repeats into a
     single probe.  Entries are never invalidated: the intern table is
     append-only, so a cached result stays canonical forever. *)
  let pair_key a b =
    if a.id <= b.id then (a.id lsl 31) lor b.id else (b.id lsl 31) lor a.id

  let alt_memo : (int, t) Hashtbl.t = Hashtbl.create 4096
  let inter_memo : (int, t) Hashtbl.t = Hashtbl.create 4096

  let rec alt_list rs =
    let flat =
      List.concat_map
        (fun r ->
          match r.node with
          | Or xs -> xs
          | Pred _ | Eps | Concat _ | Star _ | Loop _ | And _ | Not _ -> [ r ])
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
        (* eps | r = r when r is nullable: drop eps if something else
           already accepts the empty string. *)
        let flat' =
          if List.memq eps flat
             && List.exists (fun r -> r != eps && r.nullable) flat
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
          match r.node with
          | And xs -> xs
          | Pred _ | Eps | Concat _ | Star _ | Loop _ | Or _ | Not _ -> [ r ])
        rs
    in
    let flat = List.filter (fun r -> r != full) flat in
    let flat = sort_uniq flat in
    if List.exists (fun r -> r == empty) flat || has_complementary_pair flat
    then empty
    else
      match flat with [] -> full | [ r ] -> r | _ -> mk (And flat)

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

  (* Complement applies De Morgan's laws eagerly: the paper's derivation
     states are conjunctions/disjunctions of complemented regexes (e.g.
     "R2 & ~(1..)" in Section 2), never complements of Boolean
     combinations, and this normalization keeps symbolic and classical
     derivatives in the same syntactic class. *)
  let rec compl r =
    match r.node with
    | Not s -> s
    | Or xs -> inter_list (List.map compl xs)
    | And xs -> alt_list (List.map compl xs)
    | Pred _ | Eps | Concat _ | Star _ | Loop _ ->
      if r == empty then full else if r == full then empty else mk (Not r)

  let diff a b = inter a (compl b)

  (* Reversal recurses on the hash-consed DAG; a memo table keeps shared
     subterms from being revisited (regexes are DAG-shaped after
     similarity normalization, so naive recursion could re-do work). *)
  let rev_memo : (int, t) Hashtbl.t = Hashtbl.create 64

  let rec rev r =
    match Hashtbl.find_opt rev_memo r.id with
    | Some r' -> r'
    | None ->
      let r' =
        match r.node with
        | Pred _ | Eps -> r
        | Concat (a, b) -> concat (rev b) (rev a)
        | Star a -> star (rev a)
        | Loop (a, m, n) -> loop (rev a) m n
        | Or xs -> alt_list (List.map rev xs)
        | And xs -> inter_list (List.map rev xs)
        | Not a -> compl (rev a)
      in
      Hashtbl.add rev_memo r.id r';
      r'

  let chr c = pred (A.of_ranges [ (c, c) ])

  let str s =
    concat_list (List.init (String.length s) (fun i -> chr (Char.code s.[i])))

  let of_class cls = pred (A.of_ranges (Sbd_alphabet.Charclass.ranges_of cls))

  (* -- metrics -------------------------------------------------------- *)

  let rec size t =
    match t.node with
    | Pred _ | Eps -> 1
    | Concat (a, b) -> 1 + size a + size b
    | Star a | Loop (a, _, _) | Not a -> 1 + size a
    | Or xs | And xs -> List.fold_left (fun acc x -> acc + size x) 1 xs

  let rec num_preds t =
    match t.node with
    | Pred _ -> 1
    | Eps -> 0
    | Concat (a, b) -> num_preds a + num_preds b
    | Star a | Loop (a, _, _) | Not a -> num_preds a
    | Or xs | And xs -> List.fold_left (fun acc x -> acc + num_preds x) 0 xs

  let rec num_preds_unfolded t =
    match t.node with
    | Pred _ -> 1
    | Eps -> 0
    | Concat (a, b) -> num_preds_unfolded a + num_preds_unfolded b
    | Star a | Not a -> num_preds_unfolded a
    | Loop (a, m, n) ->
      let copies = match n with Some k -> max k 1 | None -> m + 1 in
      copies * num_preds_unfolded a
    | Or xs | And xs ->
      List.fold_left (fun acc x -> acc + num_preds_unfolded x) 0 xs

  let preds t =
    let acc = ref [] in
    let add p = if not (List.exists (A.equal p) !acc) then acc := p :: !acc in
    let rec go t =
      match t.node with
      | Pred p -> add p
      | Eps -> ()
      | Concat (a, b) ->
        go a;
        go b
      | Star a | Loop (a, _, _) | Not a -> go a
      | Or xs | And xs -> List.iter go xs
    in
    go t;
    List.rev !acc

  let rec in_re t =
    match t.node with
    | Pred _ | Eps -> true
    | Concat (a, b) -> in_re a && in_re b
    | Star a | Loop (a, _, _) -> in_re a
    | Or xs -> List.for_all in_re xs
    | And _ | Not _ -> false

  let rec in_bre t =
    match t.node with
    | Pred _ | Eps -> true
    | Concat (a, b) -> in_re a && in_re b
    | Star a | Loop (a, _, _) -> in_re a
    | Or xs | And xs -> List.for_all in_bre xs
    | Not a -> in_bre a

  (* -- printing ------------------------------------------------------- *)

  (* Precedence levels: Or = 0, And = 1, Concat = 2, Not = 3,
     postfix (star/loop) = 4, atom = 5. *)
  let rec pp_prec level ppf t =
    let prec, doc =
      match t.node with
      | _ when t == full -> (5, fun ppf -> Format.pp_print_string ppf ".*")
      | Pred p when A.is_bot p -> (5, fun ppf -> Format.pp_print_string ppf "[]")
      | Pred p -> (5, fun ppf -> A.pp ppf p)
      | Eps -> (5, fun ppf -> Format.pp_print_string ppf "()")
      | Concat (a, b) ->
        (2, fun ppf -> Format.fprintf ppf "%a%a" (pp_prec 2) a (pp_prec 3) b)
        (* right side gets level 3 so nested alternations parenthesize;
           concat is right-associated so left side at 2 never recurses into
           another concat anyway. A Concat on the right is allowed at its
           own level. *)
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
    (* Concat on the right-hand side of a concat stays unparenthesized. *)
    let needs_parens =
      match[@warning "-4"] t.node with
      | Concat _ when level = 3 -> false
      | _ -> prec < level
    in
    if needs_parens then Format.fprintf ppf "(%t)" doc else doc ppf

  let pp ppf t = pp_prec 0 ppf t
  let to_string t = Format.asprintf "%a" pp t

  module Ord = struct
    type nonrec t = t

    let compare = compare
  end

  module Set = Set.Make (Ord)
  module Map = Map.Make (Ord)
end
