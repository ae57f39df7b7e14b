(** Static analysis of location-aware patterns (anchors, lookarounds).

    The plain analyzer ({!Analyze}) predicts derivative blowup; this
    module lints the {e located} structure that {!Analyze} cannot see —
    degenerate zero-width subterms and anchor placements that silence a
    pattern entirely — and classifies the located fragment so reports
    and routing decisions can name what they are dealing with.

    Lint rules (continuing the stable-ID scheme of {!Analyze}):
    - [SBD301] (warning) a positive lookaround with a nullable body is
      trivially true: the empty span always witnesses it, so the
      construct is [ε] in disguise;
    - [SBD302] (error) a negative lookaround with a nullable body is
      unsatisfiable — the empty span always witnesses the body, so the
      negation never holds; this covers the negative-look-of-top-star
      contradiction;
    - [SBD303] (warning) a lookahead in tail position: in full-match
      use the obligation constrains text {e beyond} the match, which at
      end-of-input degenerates to a nullability test of the body — far
      more often a misplaced guard than an intent;
    - [SBD304] (error) anchor placement makes the pattern empty: the
      anchor-eliminating translation ({!Sbd_locregex.Locregex.S.lower})
      yields the empty language (e.g. [a^b], [$a]) — either
      syntactically ([R.is_empty]) or by the abstract length/character
      domains ({!Sbd_absdom.Absdom}), which prove emptiness of lowered
      patterns like [^a{3}$ & ^a{5}$] without any derivation.

    Everything here is structural and O(|pattern|) plus one memoized
    abstract sweep; there is no budgeted layer.  Findings reuse the
    severity vocabulary of {!Analyze} so the CLI and service render
    both uniformly. *)

module Make
    (Ab : Sbd_absdom.Absdom.S)
    (L : Sbd_locregex.Locregex.S with module R = Ab.D.R) =
struct
  module R = L.R

  type severity = Error | Warning | Info

  let severity_name = function
    | Error -> "error"
    | Warning -> "warning"
    | Info -> "info"

  type finding = {
    rule : string;
    severity : severity;
    message : string;
    subterm : string option;
  }

  let finding ?subterm rule severity message =
    { rule; severity; message; subterm }

  (* ------------------------------------------------------------------ *)
  (* Fragment classification                                             *)
  (* ------------------------------------------------------------------ *)

  (** Located fragments: the classical hierarchy of {!Analyze.fragment}
      with a [Loc(-)] modality when zero-width atoms are present.  The
      spine is classified as if every zero-width atom were [ε]
      (mirroring {!R.in_re}/{!R.in_bre} exactly otherwise), and
      lookaround {e bodies} contribute their own fragment — a pattern
      whose guard bodies use intersection needs B(RE)-class obligation
      automata even when its spine is linear.  The reported fragment is
      the join of the two. *)
  let fragment (t : L.t) : string =
    (* spine, zero-width atoms erased to ε: a concat side that matches
       only width-0 spans does not demote its sibling *)
    let rec pure_zw (x : L.t) =
      match x.L.node with
      | L.Eps | L.Begin | L.Endl | L.Look _ -> true
      | L.Pred _ | L.Not _ -> false
      | L.Concat (a, b) -> pure_zw a && pure_zw b
      | L.Star a | L.Loop (a, _, _) -> pure_zw a
      | L.Or xs | L.And xs -> List.for_all pure_zw xs
    in
    let rec in_re (x : L.t) =
      match x.L.node with
      | L.Pred _ | L.Eps | L.Begin | L.Endl | L.Look _ -> true
      | L.Concat (a, b) ->
        if pure_zw a then in_re b
        else if pure_zw b then in_re a
        else in_re a && in_re b
      | L.Star a | L.Loop (a, _, _) -> in_re a
      | L.Or xs -> List.for_all in_re xs
      | L.And _ | L.Not _ -> false
    in
    let rec in_bre (x : L.t) =
      match x.L.node with
      | L.Pred _ | L.Eps | L.Begin | L.Endl | L.Look _ -> true
      | L.Concat (a, b) ->
        if pure_zw a then in_bre b
        else if pure_zw b then in_bre a
        else in_re a && in_re b
      | L.Star a | L.Loop (a, _, _) -> in_re a
      | L.Or xs | L.And xs -> List.for_all in_bre xs
      | L.Not a -> in_bre a
    in
    let rank_plain p = if R.in_re p then 0 else if R.in_bre p then 1 else 2 in
    let spine = if in_re t then 0 else if in_bre t then 1 else 2 in
    let rank =
      List.fold_left
        (fun acc a ->
          match a with
          | L.Abegin | L.Aend -> acc
          | L.Alook { body; _ } -> max acc (rank_plain body))
        spine (L.atoms t)
    in
    let inner = match rank with 0 -> "RE" | 1 -> "B(RE)" | _ -> "ERE" in
    if L.zero_width t then Printf.sprintf "Loc(%s)" inner else inner

  (* ------------------------------------------------------------------ *)
  (* Linter                                                              *)
  (* ------------------------------------------------------------------ *)

  (* Zero-width subterms in tail position: a match can end right after
     them.  Over-approximates via [nul] (exact on zw-free right
     contexts, conservative otherwise), which is the right polarity for
     a lint. *)
  let rec tail_looks (t : L.t) acc =
    match t.L.node with
    | L.Look { behind = false; _ } -> t :: acc
    | L.Pred _ | L.Eps | L.Begin | L.Endl | L.Look _ -> acc
    | L.Concat (a, b) ->
      let acc = tail_looks b acc in
      if b.L.nul then tail_looks a acc else acc
    | L.Star a | L.Loop (a, _, _) -> tail_looks a acc
    | L.Or xs -> List.fold_left (fun acc x -> tail_looks x acc) acc xs
    | L.And _ | L.Not _ -> acc

  let lint (t : L.t) : finding list =
    let out = ref [] in
    let add f = out := f :: !out in
    (* degenerate lookarounds: one DAG walk *)
    let seen = Hashtbl.create 32 in
    let rec walk (x : L.t) =
      if not (Hashtbl.mem seen x.L.id) then begin
        Hashtbl.add seen x.L.id ();
        match x.L.node with
        | L.Look { neg; body; _ } when R.nullable body ->
          if neg then
            add
              (finding "SBD302" Error ~subterm:(L.to_string x)
                 "negative lookaround with a nullable body never holds: \
                  the empty span always witnesses the body")
          else
            add
              (finding "SBD301" Warning ~subterm:(L.to_string x)
                 "positive lookaround with a nullable body is trivially \
                  true (equivalent to the empty string)")
        | L.Pred _ | L.Eps | L.Begin | L.Endl | L.Look _ -> ()
        | L.Concat (a, b) ->
          walk a;
          walk b
        | L.Star a | L.Loop (a, _, _) | L.Not a -> walk a
        | L.Or xs | L.And xs -> List.iter walk xs
      end
    in
    walk t;
    (* lookahead at end-of-pattern *)
    List.iter
      (fun (x : L.t) ->
        let degenerate =
          (* already reported as SBD301/302 *)
          match x.L.node with
          | L.Look { body; _ } -> R.nullable body
          | L.Pred _ | L.Eps | L.Begin | L.Endl | L.Concat _ | L.Star _
          | L.Loop _ | L.Or _ | L.And _ | L.Not _ ->
            false
        in
        if not degenerate then
          add
            (finding "SBD303" Warning ~subterm:(L.to_string x)
               "lookahead in tail position: in a full match it \
                degenerates to a nullability test of its body at \
                end-of-input"))
      (List.sort_uniq
         (fun (a : L.t) (b : L.t) -> compare a.L.id b.L.id)
         (tail_looks t []));
    (* anchors that empty the language: syntactically, or by the
       abstract length/character domains on the lowered pattern *)
    (match L.lower t with
    | Some p when R.is_empty p ->
      add
        (finding "SBD304" Error
           "anchor placement makes the pattern unsatisfiable: no \
            string can place ^/$ as required")
    | Some p when (Ab.summarize p).Ab.empty = Ab.Empty ->
      add
        (finding "SBD304" Error
           "anchor placement makes the pattern unsatisfiable: the \
            anchor-eliminated form is empty by length/character \
            abstraction")
    | Some _ | None -> ());
    List.rev !out

  let severity_rank = function Error -> 2 | Warning -> 1 | Info -> 0

  let max_severity (fs : finding list) : severity option =
    List.fold_left
      (fun acc f ->
        match acc with
        | None -> Some f.severity
        | Some s ->
          Some
            (if severity_rank f.severity > severity_rank s then f.severity
             else s))
      None fs

  (* ------------------------------------------------------------------ *)
  (* Reports                                                             *)
  (* ------------------------------------------------------------------ *)

  type report = {
    fragment : string;
    zero_width : bool;
    n_looks : int;
    n_anchors : int;
    lowered : string option;
        (** anchor-eliminated plain equivalent, when lookaround-free *)
    findings : finding list;
  }

  let analyze (t : L.t) : report =
    let looks = ref 0 and anchors = ref 0 in
    let seen = Hashtbl.create 32 in
    let rec count (x : L.t) =
      if not (Hashtbl.mem seen x.L.id) then begin
        Hashtbl.add seen x.L.id ();
        match x.L.node with
        | L.Begin | L.Endl -> incr anchors
        | L.Look _ -> incr looks
        | L.Pred _ | L.Eps -> ()
        | L.Concat (a, b) ->
          count a;
          count b
        | L.Star a | L.Loop (a, _, _) | L.Not a -> count a
        | L.Or xs | L.And xs -> List.iter count xs
      end
    in
    count t;
    { fragment = fragment t
    ; zero_width = L.zero_width t
    ; n_looks = !looks
    ; n_anchors = !anchors
    ; lowered = Option.map R.to_string (L.lower t)
    ; findings = lint t }

  module J = Sbd_obs.Obs.Json

  let json_of_finding (f : finding) : J.t =
    J.Obj
      [ ("rule", J.Str f.rule)
      ; ("severity", J.Str (severity_name f.severity))
      ; ("message", J.Str f.message)
      ; ( "subterm",
          match f.subterm with None -> J.Null | Some s -> J.Str s ) ]

  let json_of_report (r : report) : J.t =
    J.Obj
      [ ("fragment", J.Str r.fragment)
      ; ("zero_width", J.Bool r.zero_width)
      ; ("n_looks", J.Int r.n_looks)
      ; ("n_anchors", J.Int r.n_anchors)
      ; ( "lowered",
          match r.lowered with None -> J.Null | Some s -> J.Str s )
      ; ("findings", J.Arr (List.map json_of_finding r.findings)) ]

  let pp_finding ppf (f : finding) =
    Format.fprintf ppf "%s %s: %s" f.rule (severity_name f.severity)
      f.message;
    match f.subterm with
    | None -> ()
    | Some s -> Format.fprintf ppf "  [in: %s]" s

  let pp_report ppf (r : report) =
    Format.fprintf ppf "fragment %s  looks %d  anchors %d" r.fragment
      r.n_looks r.n_anchors;
    (match r.lowered with
    | Some p when r.zero_width ->
      Format.fprintf ppf "  lowers-to %s" p
    | Some _ | None -> ());
    Format.fprintf ppf "@\n";
    match r.findings with
    | [] -> Format.fprintf ppf "no findings@\n"
    | fs -> List.iter (fun f -> Format.fprintf ppf "%a@\n" pp_finding f) fs
end
