(** Symbolic derivatives of extended regular expressions (Section 4).

    [delta r] is the transition regex denoting, for each character [c], the
    Brzozowski derivative of [r] with respect to [c] (Theorem 4.3):

    {v L(delta(r)(c)) = { w | c w in L(r) } v}

    computed symbolically, before the character is known.  [delta_dnf] is
    the clean disjunctive normal form used by the decision procedure
    (Section 5).  Both are memoized per regex: derivation explores the
    state space of the corresponding SBFA lazily, and hash-consed regexes
    make the memo table a map from state to out-transitions. *)

(** The interface of one derivative tower: the layers above (the
    abstract domain, the solver, the containment prover, the analyzer)
    are functors over an instance of [S], so one application of {!Make}
    serves them all with one set of memo tables. *)
module type S = sig
  module R : Sbd_regex.Regex.S
  module A : Sbd_alphabet.Algebra.S with type pred = R.A.pred
  module Tr : module type of Tregex.Make (R)

  val delta : ?deadline:Sbd_obs.Obs.Deadline.t -> R.t -> Tr.t
  (** The symbolic derivative [δ : ERE → TR] (Section 4).  Complements
      are pushed eagerly through [Tr.neg] (sound by Lemma 4.2), which
      keeps intermediate transition regexes negation-free.
      [deadline] bounds the work of one derivation: on expiry the
      recursion raises [Sbd_obs.Obs.Deadline_exceeded] (memo tables stay
      consistent -- only completed results are cached). *)

  val delta_dnf : ?deadline:Sbd_obs.Obs.Deadline.t -> R.t -> Tr.t
  (** The derivative in clean disjunctive normal form (Section 5,
      "Transition Regex Normal Form").  The normalization is the
      worst-case exponential step; [deadline] is checked at every node
      it visits. *)

  val transitions :
    ?deadline:Sbd_obs.Obs.Deadline.t -> R.t -> (A.pred * R.t) list
  (** Guarded out-edges of [r] in the derivative graph: the transitions
      of [delta_dnf r], memoized.  [deadline] as in {!delta_dnf}. *)

  val derive : int -> R.t -> R.t
  (** One-character derivation: [derive c r = delta(r)(c)]. *)

  val matches : R.t -> int list -> bool
  (** Derivative-based matching of a concrete word (code points). *)

  val matches_string : R.t -> string -> bool
  (** Match the bytes of an OCaml string (Latin-1 code points). *)

  val stats : unit -> int * int * int
  (** Sizes of the (delta, dnf, transitions) memo tables, for the
      harness. *)

  val memo_entries : unit -> int
  (** Total entries across all memo tables, including the Tr
      normalization memos (but not the never-evicted Tr intern table),
      in O(1): this layer's share of the tower's cache-pressure gauge
      ([Sbd_service.Default.Make]). *)

  val clear : unit -> unit
  (** Drop every memo table, including the Tr normalization memos (the
      Tr intern table survives; see tregex.mli).  Safe at any query
      boundary: subsequent queries just recompute.  The service never
      calls it -- a worker retires its whole tower instead
      ([Sbd_service.Worker]) -- but benches, tests and the fuzzer that
      reuse one tower do. *)

  val cache_stats : unit -> (string * float) list
  (** Current table sizes as (name, value) gauges for the [--stats]
      surfaces: [deriv.table.{delta,dnf,transitions}] plus the Tr
      layer's [tregex.*] gauges. *)
end

module Make (R : Sbd_regex.Regex.S) : S with module R = R = struct
  module R = R
  module A = R.A
  module Tr = Tregex.Make (R)
  module Obs = Sbd_obs.Obs

  (* Memo-table telemetry.  Counters are process-global (shared across
     functor instantiations): they describe the workload of the whole
     process, which is what the harness and the --stats surface report. *)
  let c_delta_hit = Obs.Counter.make "deriv.delta.memo_hit"
  let c_delta_miss = Obs.Counter.make "deriv.delta.memo_miss"
  let c_dnf_hit = Obs.Counter.make "deriv.dnf.memo_hit"
  let c_dnf_miss = Obs.Counter.make "deriv.dnf.memo_miss"
  let c_trans_hit = Obs.Counter.make "deriv.transitions.memo_hit"
  let c_trans_miss = Obs.Counter.make "deriv.transitions.memo_miss"
  let c_dnf_size = Obs.Counter.make "deriv.dnf.size_total"
  let c_dnf_size_max = Obs.Counter.make "deriv.dnf.size_max"
  let sp_dnf = Obs.Span.make "deriv.dnf"

  (* Memo tables keyed by the dense regex ids: array loads, not hash
     lookups (see Idmemo). *)
  let delta_table : Tr.t Idmemo.t = Idmemo.create 4096
  let dnf_table : Tr.t Idmemo.t = Idmemo.create 4096

  (* Decrement an upper loop bound; unbounded stays unbounded. *)
  let pred_bound = function None -> None | Some n -> Some (n - 1)

  let rec delta ?(deadline = Obs.Deadline.none) (r : R.t) : Tr.t =
    match Idmemo.find delta_table r.R.id with
    | Some t ->
      Obs.Counter.incr c_delta_hit;
      t
    | None ->
      Obs.Counter.incr c_delta_miss;
      Obs.Deadline.check deadline;
      let t = compute ~deadline r in
      Idmemo.set delta_table r.R.id t;
      t

  and compute ~deadline (r : R.t) : Tr.t =
    let delta = delta ~deadline in
    match r.R.node with
    | Eps -> Tr.bot
    | Pred p ->
      if A.is_bot p then Tr.bot else Tr.ite p (Tr.leaf R.eps) Tr.bot
    | Concat (r1, r2) ->
      let d1 = Tr.concat_right (delta r1) r2 in
      if R.nullable r1 then Tr.union d1 (delta r2) else d1
    | Star body -> Tr.concat_right (delta body) r
    | Loop (body, m, n) ->
      (* delta(r{m,n}) = delta(r) . r{m-1, n-1}; the smart constructor has
         already ensured m = 0 whenever the body is nullable, making the
         plain concatenation rule apply (see regex.ml). *)
      let rest = R.loop body (max (m - 1) 0) (pred_bound n) in
      Tr.concat_right (delta body) rest
    | Or rs ->
      List.fold_left (fun acc x -> Tr.union acc (delta x)) Tr.bot rs
    | And rs ->
      List.fold_left (fun acc x -> Tr.inter acc (delta x)) Tr.top rs
    | Not body -> Tr.neg (delta body)

  let delta_dnf ?(deadline = Obs.Deadline.none) (r : R.t) : Tr.t =
    match Idmemo.find dnf_table r.R.id with
    | Some t ->
      Obs.Counter.incr c_dnf_hit;
      t
    | None ->
      Obs.Counter.incr c_dnf_miss;
      let check () = Obs.Deadline.check deadline in
      let t =
        Obs.Span.time sp_dnf (fun () -> Tr.dnf ~check (delta ~deadline r))
      in
      if Obs.enabled () then begin
        let size = Tr.size t in
        Obs.Counter.add c_dnf_size size;
        Obs.Counter.max_to c_dnf_size_max size
      end;
      Idmemo.set dnf_table r.R.id t;
      t

  let transitions_table : (A.pred * R.t) list Idmemo.t = Idmemo.create 4096

  let transitions ?(deadline = Obs.Deadline.none) (r : R.t) :
      (A.pred * R.t) list =
    match Idmemo.find transitions_table r.R.id with
    | Some ts ->
      Obs.Counter.incr c_trans_hit;
      ts
    | None ->
      Obs.Counter.incr c_trans_miss;
      let check () = Obs.Deadline.check deadline in
      let ts = Tr.transitions ~check (delta_dnf ~deadline r) in
      Idmemo.set transitions_table r.R.id ts;
      ts

  let derive c r = Tr.apply (delta r) c

  let matches (r : R.t) (w : int list) : bool =
    R.nullable (List.fold_left (fun r c -> derive c r) r w)

  let matches_string r s =
    matches r (List.init (String.length s) (fun i -> Char.code s.[i]))

  let stats () =
    ( Idmemo.count delta_table,
      Idmemo.count dnf_table,
      Idmemo.count transitions_table )

  let clear () =
    Idmemo.clear delta_table;
    Idmemo.clear dnf_table;
    Idmemo.clear transitions_table;
    Tr.clear_memos ()

  let memo_entries () =
    Idmemo.count delta_table + Idmemo.count dnf_table
    + Idmemo.count transitions_table
    + Tr.memo_entries ()

  let cache_stats () =
    [
      ("deriv.table.delta", float_of_int (Idmemo.count delta_table));
      ("deriv.table.dnf", float_of_int (Idmemo.count dnf_table));
      ( "deriv.table.transitions",
        float_of_int (Idmemo.count transitions_table) );
    ]
    @ Tr.cache_stats ()
end
