(** Seeded request streams for the three workloads.

    Every stream is a pure function of the seed: the same seed gives
    the same request lines, in the same order.  Each request carries
    the answer it must get, and that answer never comes from the code
    under test:
    - solve verdicts come from the benchgen labels, or from the
      finite-alphabet baseline of [lib/classic] ({!Sbd_classic.Minterm_solver})
      for instances generated without one, or, for the parametric
      instances made here, from their construction (Kaluza-style ones
      are labelled by {!Sbd_classic.Refmatch});
    - subset/equiv verdicts come from the [Pairs] labels, or from the
      baseline deciding [is_empty (l & ~r)];
    - match spans come from where the fragment was planted, and the
      construction is itself checked by brute force against
      {!Sbd_classic.Refmatch} / {!Sbd_locregex.Locref} on short inputs
      (see {!probes}). *)

module I = Sbd_benchgen.Instance
module Rng = I.Rng
module Pairs = Sbd_benchgen.Pairs
module J = Sbd_obs.Obs.Json
module D = Sbd_service.Default
module Mint = Sbd_classic.Minterm_solver.Make (D.R)
module Eager = Sbd_sfa.Eager.Make (D.R)
module Ref = D.Ref

type expect =
  | Solve of { pattern : string; sat : bool }
  | Contain of { equiv : bool; left : string; right : string; holds : bool }
  | Match of {
      pattern : string;
      located : bool;  (** routes to [Locmatch]: no span, an earliest end *)
      full : bool;
      span : (int * int) option;
      found_end : int option;
    }

type req = {
  line : string;  (** one NDJSON request line, without the newline *)
  expect : expect;
  input_bytes : int;  (** pattern text, or the match input *)
}

(** A workload's requests: an untimed warm-up list, then an unbounded
    timed stream indexed from 0.  With [round = Some r], every [r]
    requests go to a freshly spawned server (and, in the traced replay,
    a fresh worker and cache).  Each run of [block] requests from index
    0 has the same make-up, and the end-to-end metrics are taken over
    whole blocks (see {!Session.segments}). *)
type stream = { warm : req list; get : int -> req; round : int option; block : int }

(** Fixed per-request deadline for solver requests: well above the
    slowest corpus instance (about 0.5 s on a 2-core x86-64 VM), so an
    [unknown] reply means a regression, not an unlucky instance. *)
let deadline_s = 10.0

let parse_exn pat =
  match D.P.parse pat with
  | Ok r -> r
  | Error (pos, msg) ->
    failwith (Printf.sprintf "perfbench: cannot parse %S at %d: %s" pat pos msg)

(* Baseline emptiness: the minterm solver, then the eager SFA pipeline.
   Both live outside the derivative stack under test. *)
let baseline_sat pat =
  let r = parse_exn pat in
  match Mint.solve ~budget:2_000_000 r with
  | Mint.Sat _ -> Some true
  | Mint.Unsat -> Some false
  | Mint.Unknown _ -> (
    match Eager.solve ~budget:500_000 r with
    | Eager.Sat _ -> Some true
    | Eager.Unsat -> Some false
    | Eager.Unknown _ -> None)

let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = Rng.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done

let num_id id = ("id", J.Int id)

let solve_req ~id pattern sat =
  {
    line =
      J.to_string
        (J.Obj
           [
             num_id id;
             ("op", J.Str "solve");
             ("re", J.Str pattern);
             ("deadline_s", J.Float deadline_s);
           ]);
    expect = Solve { pattern; sat };
    input_bytes = String.length pattern;
  }

let contain_req ~id ~equiv left right holds =
  {
    line =
      J.to_string
        (J.Obj
           [
             num_id id;
             ("op", J.Str (if equiv then "equiv" else "subset"));
             ("re", J.Str left);
             ("re2", J.Str right);
             ("deadline_s", J.Float deadline_s);
           ]);
    expect = Contain { equiv; left; right; holds };
    input_bytes = String.length left + String.length right;
  }

(* -- solver instances ----------------------------------------------------- *)

type query = S of string * bool | C of bool * string * string * bool

(** A solver request with the stratum it is ordered by (see
    {!stratified}). *)
type item = { q : query; stratum : string }

(** The shape of a pattern: every run of letters collapsed to one
    [x], every other byte kept (counter bounds included).  Instances of
    one shape cost about the same to decide; a few shapes with large
    counter bounds cost far more than the rest (a Boolean Norn instance
    at [.{12}] interns some 80 000 terms, the median instance 10). *)
let shape pat =
  let b = Buffer.create (String.length pat) in
  String.iteri
    (fun i c ->
      let letter c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') in
      if not (letter c) then Buffer.add_char b c
      else if i = 0 || not (letter pat.[i - 1]) then Buffer.add_char b 'x')
    pat;
  Buffer.contents b

(** Seeded order in which the members of every stratum sit at fixed,
    evenly spaced relative positions: the item of seeded rank [j] among
    the [n] of its stratum goes to position [(j + phase) / n], where the
    phase in [[0, 1)] is a hash of the stratum's name.  The seed decides
    which instance of a shape comes when, but never where a costly shape
    sits in the stream; since every solved pattern makes later requests
    of the same session slower (the worker's memo bookkeeping grows
    with the terms interned so far), this is what keeps run-to-run
    spread low.  A run that stops part-way through a block has seen
    each stratum in proportion. *)
let stratified rng (items : item list) : item array =
  let groups = Hashtbl.create 16 in
  List.iter
    (fun it ->
      Hashtbl.replace groups it.stratum
        (it :: Option.value (Hashtbl.find_opt groups it.stratum) ~default:[]))
    items;
  let keyed =
    Hashtbl.fold
      (fun _ members acc ->
        let a = Array.of_list (List.rev members) in
        shuffle rng a;
        let n = float_of_int (Array.length a) in
        let phase = float_of_int (Hashtbl.hash (List.hd members).stratum mod 9973) /. 9973.0 in
        Array.to_list (Array.mapi (fun j it -> ((float_of_int j +. phase) /. n, Rng.next rng, it)) a)
        @ acc)
      groups []
  in
  let a = Array.of_list keyed in
  Array.sort (fun (k1, t1, _) (k2, t2, _) -> compare (k1, t1) (k2, t2)) a;
  Array.map (fun (_, _, it) -> it) a

(** The Fig. 4 instances with a verdict each (instances no baseline can
    decide are left out; at the time of writing there are none). *)
let labelled_instances insts =
  List.filter_map
    (fun (i : I.t) ->
      let item sat = { q = S (i.I.pattern, sat); stratum = i.I.suite ^ "/" ^ shape i.I.pattern } in
      match i.I.expected with
      | I.Sat -> Some (item true)
      | I.Unsat -> Some (item false)
      | I.Unlabeled -> Option.map item (baseline_sat i.I.pattern))
    insts

let labelled_pairs () =
  List.filter_map
    (fun (p : Pairs.t) ->
      let equiv = p.Pairs.mode = Pairs.Equiv in
      let l = p.Pairs.left and r = p.Pairs.right in
      let holds =
        match p.Pairs.expected with
        | Pairs.Holds -> Some true
        | Pairs.Fails -> Some false
        | Pairs.Unlabeled -> (
          let incl a b = baseline_sat (Printf.sprintf "(%s)&~(%s)" a b) in
          match (incl l r, if equiv then incl r l else Some false) with
          | Some lr, Some rl -> Some (not (lr || rl))
          | _ -> None)
      in
      Option.map
        (fun h -> { q = C (equiv, l, r, h); stratum = "pairs-" ^ p.Pairs.family ^ "/" ^ shape (l ^ r) })
        holds)
    (Pairs.all ())

let families = [| "kaluza"; "slog"; "norn"; "sygus"; "norn-bool" |]

(** A fresh parametric instance in the shape of one of the standard
    families (index into {!families}), with its verdict by construction;
    Kaluza-style ones are labelled by the reference matcher.  Counter
    bounds stay small, so that no single fresh instance dominates a
    run. *)
let fresh rng family : string * bool =
  let letter () = Rng.letter rng in
  match family with
  | 0 ->
    let w = Rng.word rng (2 + Rng.int rng 7) in
    let pat =
      match Rng.int rng 4 with
      | 0 -> Printf.sprintf "%s&%s.*" w (String.sub w 0 (1 + Rng.int rng (String.length w)))
      | 1 -> Printf.sprintf "%s&.*%s" w (Rng.word rng 2)
      | 2 -> Printf.sprintf "%s&.*%s.*" w (Rng.word rng (1 + Rng.int rng 2))
      | _ ->
        let lo = Rng.int rng 6 in
        Printf.sprintf "%s&.{%d,%d}" w lo (lo + 2)
    in
    (* w & rest is satisfiable exactly when w is in rest *)
    let rest = String.sub pat (String.length w + 1) (String.length pat - String.length w - 1) in
    (pat, Ref.matches_string (parse_exn rest) w)
  | 1 ->
    let classes = [ "[a-z]"; "[A-Z]"; "\\d"; "\\w"; "[aeiou]"; "[<>&\"']"; "[0-9a-f]" ] in
    let parts =
      List.init
        (2 + Rng.int rng 5)
        (fun _ ->
          let c = Rng.pick rng classes in
          match Rng.int rng 4 with
          | 0 -> c
          | 1 -> c ^ "*"
          | 2 -> c ^ "+"
          | _ -> c ^ Printf.sprintf "{%d,%d}" (Rng.int rng 3) (2 + Rng.int rng 3))
    in
    let base = String.concat "" parts in
    (* every class is non-empty; [a-m]+&[n-z]+ is empty *)
    if Rng.int rng 10 = 0 then (Printf.sprintf "(%s)&[a-m]+&[n-z]+&.{1}" base, false)
    else (base, true)
  | 2 -> (
    let a = letter () and b = letter () in
    let block = Printf.sprintf "(%c|%c%c)*" a a b in
    match Rng.int rng 3 with
    | 0 -> (Printf.sprintf "%s&.{%d,}" block (1 + Rng.int rng 9), true)
    | 1 ->
      (* every non-empty word of the block contains [a] *)
      let c = Char.chr (((Char.code a - Char.code 'a' + 1 + Rng.int rng 25) mod 26) + Char.code 'a') in
      (Printf.sprintf "%s&%c+" block c, false)
    | _ -> (Printf.sprintf "%s&~(%c*)" block a, a <> b))
  | 3 ->
    let words = List.init (2 + Rng.int rng 3) (fun _ -> Rng.word rng (1 + Rng.int rng 3)) in
    (* two words of length >= 1 always fit in 2..8 *)
    (Printf.sprintf "(%s)*&.{2,8}" (String.concat "|" words), true)
  | _ -> (
    let a = letter () in
    let b = Char.chr (Char.code 'a' + ((Char.code a - Char.code 'a' + 1 + Rng.int rng 25) mod 26)) in
    let k = 3 + Rng.int rng 4 in
    match Rng.int rng 4 with
    | 0 -> (Printf.sprintf "(%c|%c)*&.*%c.{%d}&~(.*%c.{%d})" a b a k b k, true)
    | 1 -> (Printf.sprintf "(%c|%c)*&.*%c.{%d}&~(.*[%c%c].{%d})" a b a k a b k, false)
    | 2 ->
      (Printf.sprintf "(%c%c)*&~((%c%c){0,%d})&.{0,%d}" a b a b (3 + Rng.int rng 6) (30 + Rng.int rng 10), true)
    | _ -> (Printf.sprintf "(%c|%c)*&.*%c%c.*&~(.*%c.*)" a b a b b, false))

(** Canonical cache keys, so that "first seen" means first seen by the
    server's result cache, not merely a new spelling.  The key function
    is the server's own; it only filters duplicates and never decides a
    verdict. *)
module Keys = struct
  let worker = lazy (Sbd_service.Worker.create ())

  let key it =
    let (module W : Sbd_service.Worker.WORKER) = Lazy.force worker in
    match it.q with
    | S (p, _) -> W.cache_key p
    | C (equiv, l, r, _) -> W.contain_cache_key ~equiv l r

  (** Add [it] to [seen] and return [true] when it is new. *)
  let fresh_in seen it =
    match key it with
    | Error _ -> false
    | Ok k ->
      if Hashtbl.mem seen k then false
      else begin
        Hashtbl.add seen k ();
        true
      end
end

(** A first-seen instance of [family]; after many draws that were all
    seen before, one of the next family (Kaluza-style words never run
    out). *)
let fresh_item rng seen family =
  let rec draw family tries =
    let p, s = fresh rng family in
    let it = { q = S (p, s); stratum = "fresh-" ^ families.(family) ^ "/" ^ shape p } in
    if Keys.fresh_in seen it then it
    else if tries >= 1000 then draw ((family + 1) mod Array.length families) 0
    else draw family (tries + 1)
  in
  draw family 0

let req_of_item ~id it =
  match it.q with
  | S (p, sat) -> solve_req ~id p sat
  | C (equiv, l, r, h) -> contain_req ~id ~equiv l r h

(** An unbounded sequence filled block by block on demand, in an array
    that doubles when full (lookups stay O(1) inside the timed loop). *)
let growing (next_block : unit -> 'a array) : int -> 'a =
  let buf = ref [||] and len = ref 0 in
  let rec get i =
    if i < !len then !buf.(i)
    else begin
      let block = next_block () in
      let k = Array.length block in
      if !len + k > Array.length !buf then begin
        let bigger = Array.make (max (2 * Array.length !buf) (!len + k)) block.(0) in
        Array.blit !buf 0 bigger 0 !len;
        buf := bigger
      end;
      Array.blit block 0 !buf !len k;
      len := !len + k;
      get i
    end
  in
  get

let numbered next_id items =
  Array.map
    (fun it ->
      let id = !next_id in
      incr next_id;
      req_of_item ~id it)
    items

(* -- corpus-cold ---------------------------------------------------------- *)

(** The Boolean Norn "deep witness" instances [(a|b)*&.*a.{k}&~(.*b.{k})]
    with [k >= 9]: each interns tens of thousands of terms (the rest of
    the suites about 20 on average), and every later solve on the worker
    that decided it pays a memo scan in proportion.  Which of the two
    [zipf-hot] workers decides it during the warm-up is a race (an idle
    worker steals), so with these in the warm-up the cost of every miss,
    and the run's throughput, differed by a third between runs of one
    seed.  [zipf-hot] leaves them out; [corpus-cold] keeps them. *)
let deep_witness pat =
  match Scanf.sscanf (shape pat) "(x|x)*&.*x.{%d}&~(.*x.{%d})%!" (fun a b -> a = b && a >= 9) with
  | b -> b
  | exception (Scanf.Scan_failure _ | Failure _ | End_of_file) -> false

(** Fresh servers per pass of [corpus-cold]. *)
let rounds_per_pass = 10

(** Passes, each every Fig. 4 instance as [solve] and every [Pairs] pair
    as [subset]/[equiv] in a stratified seeded order, together with as
    many first-seen parametric instances (equal numbers per family).
    Each pass runs on its own fresh servers ([rounds_per_pass] of them),
    so no server sees a pattern twice and every request misses the
    result cache.  Because every pass has the same make-up, a run's
    figures do not depend on how many passes it gets through.

    The {!deep_witness} instances each close a round.  Each interns tens
    of thousands of terms, and every later request on the same server
    pays a memo scan in proportion; placed anywhere, they left most of a
    round scanning large arrays, whose speed varied by a fifth between
    runs of one seed with the load of other processes on the machine. *)
let corpus_cold ~seed : stream =
  let rng = Rng.create (1000 + seed) in
  let seen = Hashtbl.create 8192 in
  let corpus =
    List.filter (Keys.fresh_in seen)
      (labelled_instances (Sbd_benchgen.Standard.all ()) @ labelled_pairs ())
  in
  let deep, regular =
    List.partition (fun it -> match it.q with S (p, _) -> deep_witness p | C _ -> false) corpus
  in
  let deep = Array.of_list deep in
  let nd = Array.length deep in
  assert (nd <= rounds_per_pass);
  let n = List.length corpus in
  (* rounds of equal length; the regular part padded with fresh
     instances *)
  let per_round = ((2 * n) + rounds_per_pass - 1) / rounds_per_pass in
  let fresh k = List.init k (fun j -> fresh_item rng seen (j mod Array.length families)) in
  let next_id = ref 0 in
  let next_pass () =
    let body = stratified rng (regular @ fresh ((per_round * rounds_per_pass) - nd - List.length regular)) in
    shuffle rng deep;
    let pos = ref 0 in
    let rounds =
      List.init rounds_per_pass (fun j ->
          let k = if j < nd then per_round - 1 else per_round in
          let part = Array.sub body !pos k in
          pos := !pos + k;
          if j < nd then Array.append part [| deep.(j) |] else part)
    in
    numbered next_id (Array.concat rounds)
  in
  { warm = []; get = growing next_pass; round = Some per_round; block = per_round * rounds_per_pass }

(* -- zipf-hot ------------------------------------------------------------- *)

(** Seeded order of [items] in which rank [r] holds a pattern from the
    [r mod 8]-th eighth of the items sorted by pattern length: the seed
    decides which patterns are popular, but not how long the popular
    ones are, which would otherwise swing the bytes per request (and
    the per-hit cost) from seed to seed. *)
let length_balanced rng (items : item array) =
  let len it = match it.q with S (p, _) -> String.length p | C (_, l, r, _) -> String.length l + String.length r in
  let sorted = Array.copy items in
  Array.stable_sort (fun a b -> compare (len a) (len b)) sorted;
  let n = Array.length sorted and classes = 8 in
  let bucket c = Array.sub sorted (c * n / classes) (((c + 1) * n / classes) - (c * n / classes)) in
  let buckets = Array.init classes bucket in
  Array.iter (shuffle rng) buckets;
  let next = Array.make classes 0 in
  let out = ref [] and taken = ref 0 and c = ref 0 in
  while !taken < n do
    let k = !c mod classes in
    if next.(k) < Array.length buckets.(k) then begin
      out := buckets.(k).(next.(k)) :: !out;
      next.(k) <- next.(k) + 1;
      incr taken
    end;
    incr c
  done;
  Array.of_list (List.rev !out)

(** Zipfian draws (weight 1/(rank+1)) over the standard suites (less
    {!deep_witness} instances) in a seeded, length-balanced order, after
    a warm-up that asks each of them once.  One request in
    each block of twenty, at a seeded slot, is a first-seen parametric
    instance (families in turn), so misses keep arriving under a
    read-heavy load. *)
let zipf_hot ~seed : stream =
  let rng = Rng.create (2000 + seed) in
  let seen = Hashtbl.create 4096 in
  let base =
    Array.of_list
      (labelled_instances
         (List.filter
            (fun (i : I.t) -> not (deep_witness i.I.pattern))
            (Sbd_benchgen.Standard.non_boolean () @ Sbd_benchgen.Standard.boolean ())))
  in
  Array.iter (fun it -> ignore (Keys.fresh_in seen it)) base;
  let base = length_balanced rng base in
  let n = Array.length base in
  let cumul = Array.make n 0.0 in
  let acc = ref 0.0 in
  Array.iteri
    (fun k _ ->
      acc := !acc +. (1.0 /. float_of_int (k + 1));
      cumul.(k) <- !acc)
    base;
  let draw () =
    let u = float_of_int (Rng.next rng) /. 2147483648.0 *. !acc in
    (* first rank whose cumulative weight exceeds u *)
    let rec bs lo hi =
      if lo >= hi then lo
      else
        let mid = (lo + hi) / 2 in
        if cumul.(mid) > u then bs lo mid else bs (mid + 1) hi
    in
    base.(bs 0 (n - 1))
  in
  let warm = List.init n (fun i -> req_of_item ~id:(1_000_000_000 + i) base.(i)) in
  let next_id = ref 0 and block = ref (Rng.int rng (Array.length families)) in
  let next_block () =
    let slot = Rng.int rng 20 in
    let family = !block mod Array.length families in
    incr block;
    numbered next_id
      (Array.init 20 (fun k -> if k = slot then fresh_item rng seen family else draw ()))
  in
  (* 500 draw blocks, about two seconds *)
  { warm; get = growing next_block; round = None; block = 10_000 }

(* -- match-large ---------------------------------------------------------- *)

type mpat = {
  mpattern : string;
  core : string;  (** the fragment planted in the filler, a space either side *)
  mlocated : bool;
  (* expected (full, span, found_end) for an input of [n] bytes whose
     core starts at byte [c] *)
  want : n:int -> c:int -> bool * (int * int) option * int option;
}

let span_at len ~n:_ ~c = (false, Some (c, c + len), None)
let from_start len ~n:_ ~c = (true, Some (0, c + len), None)
let ends_at len ~n:_ ~c = (false, None, Some (c + len))

(** Match patterns: the [Engine_bench] classes (literal, class, boolean,
    counter) plus anchored and lookaround patterns, which route to
    [Locmatch].  Filler text never matches any of them (see {!filler}),
    so the expected result follows from where the core is planted. *)
let match_patterns =
  let plain mpattern core want = { mpattern; core; mlocated = false; want } in
  let located mpattern core want = { mpattern; core; mlocated = true; want } in
  [
    plain "needle" "needle" (span_at 6);
    plain ".*needle.*" "needle" (from_start 6);
    plain "banjo|lambda|kimono" "lambda" (span_at 6);
    plain "needle\\d+" "needle42" (span_at 7);
    plain "(ab){3,5}" "ababab" (span_at 6);
    plain "k[aeiou]{2,4}m" "kaeim" (span_at 5);
    plain "h.llo" "h\xc3\xa9llo" (span_at 6);
    plain "[c-h]{8}" "cdefghcd" (span_at 8);
    plain "\\d{4}-[a-zA-Z]{3}-\\d{2}" "2026-Jan-15" (span_at 11);
    plain "\\d{4}-[a-zA-Z]{3}-\\d{2}|[c-h]{8}" "2026-Jan-15" (span_at 11);
    plain "[0-9]+\\.[0-9]+" "3.14" (span_at 3);
    plain ".*\\d.*&~(.*01.*)" "7" (from_start 1);
    plain "(.*a.{6})&(.*b.{6})" "ab" (fun ~n:_ ~c:_ -> (false, None, None));
    plain ".*c{7}.*&~(.*01.*)" "ccccccc" (from_start 7);
    plain "[a-b]{2}\\d{2}&~(.*00.*)" "ab12" (span_at 4);
    located "needle(?=\\d)" "needle7" (ends_at 6);
    located "(?<=\\d)needle" "7needle" (ends_at 7);
    located "^.*needle" "needle" (ends_at 6);
    located "needle.*$" "needle" (fun ~n ~c:_ -> (false, None, Some n));
    located "(?<![0-9])42(?![0-9])" "42" (ends_at 2);
    located "^(?=.*\\d)\\w{4,8}$" "ab12" (fun ~n:_ ~c:_ -> (false, None, None));
  ]

(** Filler that no match pattern can match: no digits, none of
    [a b i..p], no two [c-h] letters in a row, no non-ASCII. *)
let filler rng n =
  let other = " qrstuvwxyz CDEFGH." and ch = "cdefgh" in
  let b = Bytes.create n in
  let prev_ch = ref false in
  for i = 0 to n - 1 do
    if (not !prev_ch) && Rng.int rng 4 = 0 then begin
      Bytes.set b i ch.[Rng.int rng 6];
      prev_ch := true
    end
    else begin
      Bytes.set b i other.[Rng.int rng (String.length other)];
      prev_ch := false
    end
  done;
  Bytes.unsafe_to_string b

let min_input = 4096
let max_input = 1 lsl 20

(** [n] bytes of filler from [start] with [mp]'s core, a space either
    side, planted at [o]. *)
let plant ~(fill : string) ~start mp ~n ~o =
  let b = Bytes.of_string (String.sub fill start n) in
  Bytes.blit_string (" " ^ mp.core ^ " ") 0 b o (String.length mp.core + 2);
  Bytes.unsafe_to_string b

(** The request matching [mp] against the input [plant] builds; the
    line is assembled in one buffer, since inputs reach 1 MB. *)
let match_req ~id mp ~fill ~start ~n ~o =
  let full, span, found_end = mp.want ~n ~c:(o + 1) in
  let head = Printf.sprintf "{\"id\":%d,\"op\":\"match\",\"re\":%s,\"input\":\"" id
      (J.to_string (J.Str mp.mpattern)) in
  let h = String.length head in
  let b = Bytes.create (h + n + 2) in
  Bytes.blit_string head 0 b 0 h;
  (* filler and cores hold no byte that JSON must escape *)
  Bytes.blit_string fill start b h n;
  Bytes.blit_string (" " ^ mp.core ^ " ") 0 b (h + o) (String.length mp.core + 2);
  Bytes.blit_string "\"}" 0 b (h + n) 2;
  {
    line = Bytes.unsafe_to_string b;
    expect = Match { pattern = mp.mpattern; located = mp.mlocated; full; span; found_end };
    input_bytes = n;
  }

(** Short inputs for every match pattern: the warm-up requests, whose
    replies (and whose construction) are checked by brute force. *)
let probes ~seed =
  let rng = Rng.create (3500 + seed) in
  List.mapi
    (fun i mp ->
      let fill = filler rng 48 in
      let n = 18 + String.length mp.core in
      let o = Rng.int rng (n - String.length mp.core - 2) in
      (mp, plant ~fill ~start:0 mp ~n ~o, o, 2_000_000_000 + i))
    match_patterns

(** Inputs log-uniform in size from 4 KB to 1 MB.  Each block of
    requests pairs every pattern with one size from each of 8 strata of
    the log range, in a seeded order, so every block has the same mix of
    patterns and sizes.  Sizes are jittered only within the middle fifth
    of their stratum: p99 rests on the located patterns on the largest
    inputs, whose sizes would otherwise swing it from seed to seed.

    A scan stops near the planted fragment, so its cost follows the
    fragment's offset.  Offsets are therefore balanced as a Latin
    square: within the plain and within the located patterns, each
    stratum of a block uses each of [g] evenly spaced offset slots
    once ([g] the group's size), and over [g] blocks each pattern takes
    each slot once per stratum.  The seed decides which pattern starts
    at which slot. *)
let match_large ~seed : stream =
  let rng = Rng.create (3000 + seed) in
  let fill = filler rng (max_input + 4096) in
  let strata = 8 in
  let lo = log (float_of_int min_input) and hi = log (float_of_int max_input) in
  let jitter () = 0.4 +. (0.2 *. float_of_int (Rng.int rng 1_000_000) /. 1e6) in
  (* each pattern's group size and seeded first slot *)
  let slots =
    let group located =
      let members = List.filter (fun mp -> mp.mlocated = located) match_patterns in
      let first = Array.init (List.length members) Fun.id in
      shuffle rng first;
      List.mapi (fun j mp -> (mp.mpattern, (Array.length first, first.(j)))) members
    in
    group false @ group true
  in
  let next_id = ref 0 and nblock = ref 0 in
  let specs_block () =
    let b = !nblock in
    incr nblock;
    let cells =
      Array.of_list
        (List.concat_map (fun mp -> List.init strata (fun k -> (mp, k))) match_patterns)
    in
    shuffle rng cells;
    Array.map
      (fun (mp, k) ->
        let n =
          int_of_float (exp (lo +. ((hi -. lo) *. (float_of_int k +. jitter ()) /. float_of_int strata)))
        in
        let n = max min_input (min max_input n) in
        let g, first = List.assoc mp.mpattern slots in
        let slot = (first + k + b) mod g in
        let room = n - String.length mp.core - 2 in
        let o = int_of_float ((float_of_int slot +. jitter ()) /. float_of_int g *. float_of_int room) in
        let start = Rng.int rng (String.length fill - n + 1) in
        let id = !next_id in
        incr next_id;
        (id, mp, n, o, start))
      cells
  in
  (* specs are small; the inputs are built when a request is sent *)
  let spec = growing specs_block in
  let get i =
    let id, mp, n, o, start = spec i in
    match_req ~id mp ~fill ~start ~n ~o
  in
  let warm =
    List.map
      (fun (mp, input, o, id) -> match_req ~id mp ~fill:input ~start:0 ~n:(String.length input) ~o)
      (probes ~seed)
  in
  { warm; get; round = None; block = strata * List.length match_patterns }

let workloads = [ "corpus-cold"; "zipf-hot"; "match-large" ]

let stream ~workload ~seed =
  match workload with
  | "corpus-cold" -> corpus_cold ~seed
  | "zipf-hot" -> zipf_hot ~seed
  | "match-large" -> match_large ~seed
  | w -> invalid_arg (Printf.sprintf "unknown workload %S" w)
