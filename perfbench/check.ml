(** Reply checking against {!Gen}'s expected answers.  Witnesses are
    validated by the reference matcher of [lib/classic] — never by the
    derivative stack that produced them. *)

module J = Sbd_obs.Obs.Json
module Jsonin = Sbd_service.Jsonin
module D = Sbd_service.Default
module Brz = Sbd_classic.Brzozowski.Make (D.R)

type reason = Overloaded | Error_reply | Unknown_reply | Wrong | Timed_out

let reasons = [ Overloaded; Error_reply; Unknown_reply; Wrong; Timed_out ]

let reason_name = function
  | Overloaded -> "overloaded"
  | Error_reply -> "error"
  | Unknown_reply -> "unknown"
  | Wrong -> "wrong"
  | Timed_out -> "timed_out"

(** Decode the printable witness rendering of [Solve.string_of_witness]:
    printable ASCII verbatim, double quote and backslash escaped with a
    backslash, every other code point as a braced [u] escape. *)
let decode_witness s =
  let n = String.length s in
  let rec go i acc =
    if i >= n then Some (List.rev acc)
    else if s.[i] <> '\\' then go (i + 1) (Char.code s.[i] :: acc)
    else if i + 1 < n && (s.[i + 1] = '"' || s.[i + 1] = '\\') then
      go (i + 2) (Char.code s.[i + 1] :: acc)
    else if i + 2 < n && s.[i + 1] = 'u' && s.[i + 2] = '{' then
      match String.index_from_opt s i '}' with
      | None -> None
      | Some j -> (
        match int_of_string_opt ("0x" ^ String.sub s (i + 3) (j - i - 3)) with
        | Some cp -> go (j + 1) (cp :: acc)
        | None -> None)
    else None
  in
  go 0 []

let regexes : (string, D.R.t) Hashtbl.t = Hashtbl.create 1024
let members : (string * int list, bool) Hashtbl.t = Hashtbl.create 4096

let regex pat =
  match Hashtbl.find_opt regexes pat with
  | Some r -> r
  | None ->
    let r = Gen.parse_exn pat in
    Hashtbl.add regexes pat r;
    r

(** [w ∈ L(pat)] by the reference DP, or (past 64 code points, where the
    cubic DP stalls) by classical Brzozowski derivatives over concrete
    characters.  Memoised: a cached reply repeats its witness. *)
let member pat w =
  match Hashtbl.find_opt members (pat, w) with
  | Some b -> b
  | None ->
    let r = regex pat in
    let b = if List.length w <= 64 then D.Ref.matches r w else Brz.matches r w in
    Hashtbl.add members (pat, w) b;
    b

let str key j = Jsonin.str_member key j

(** The failure a reply shows, if any. *)
let reply (expect : Gen.expect) (doc : J.t) : reason option =
  match str "error" doc with
  | Some "overloaded" -> Some Overloaded
  | Some _ -> Some Error_reply
  | None -> (
    let status = str "status" doc in
    if status = Some "unknown" then Some Unknown_reply
    else
      let wrong b = if b then None else Some Wrong in
      match expect with
      | Gen.Solve { pattern; sat } -> (
        match status with
        | Some "unsat" -> wrong (not sat)
        | Some "sat" -> (
          match Option.bind (str "witness" doc) decode_witness with
          | Some w -> wrong (sat && member pattern w)
          | None -> Some Wrong)
        | _ -> Some Wrong)
      | Gen.Contain { equiv; left; right; holds } -> (
        match status with
        | Some "proved" -> wrong holds
        | Some "refuted" -> (
          match[@warning "-4"] Jsonin.member "witness_codepoints" doc with
          | Some (J.Arr cps) ->
            let w = List.filter_map (function[@warning "-4"] J.Int c -> Some c | _ -> None) cps in
            let l = member left w and r = member right w in
            wrong ((not holds) && if equiv then l <> r else l && not r)
          | _ -> Some Wrong)
        | _ -> Some Wrong)
      | Gen.Match { located; full; span; found_end; _ } -> (
        let int_pair = function[@warning "-4"]
          | Some (J.Arr [ J.Int i; J.Int j ]) -> Some (i, j)
          | _ -> None
        in
        let got_end = match[@warning "-4"] Jsonin.member "found_end" doc with
          | Some (J.Int j) -> Some j
          | _ -> None
        in
        match status with
        | Some "ok" ->
          wrong
            (Jsonin.bool_member "full" doc = Some full
            &&
            if located then got_end = found_end
            else int_pair (Jsonin.member "span" doc) = span)
        | _ -> Some Wrong))

(* -- brute-force references for the match construction ------------------- *)

(* Scalars of [input] with their byte offsets, segmented like the
   engine's UTF-8 mode. *)
let scalars input =
  let n = String.length input in
  let rec seg i offs cps =
    if i >= n then (Array.of_list (List.rev (i :: offs)), Array.of_list (List.rev cps))
    else
      let cp, i' = Sbd_engine.Byteclass.scalar_forward input i n in
      seg i' (i :: offs) (cp :: cps)
  in
  seg 0 [] []

(** Full-match flag, leftmost-earliest span and earliest match end of
    [pattern] on [input], by trying every slice.  Exponential in the
    worst case: a few dozen bytes only. *)
let brute_force ~located pattern input =
  let offs, cps = scalars input in
  let k = Array.length cps in
  if located then begin
    let t =
      match D.LP.parse pattern with
      | Ok t -> t
      | Error (pos, msg) -> failwith (Printf.sprintf "perfbench: %S at %d: %s" pattern pos msg)
    in
    let o = D.LRef.make t cps in
    (D.LRef.full o, None, Option.map (fun j -> offs.(j)) (D.LRef.earliest_end o))
  end
  else begin
    let r = regex pattern in
    let sub i j = Array.to_list (Array.sub cps i (j - i)) in
    let span = ref None in
    (try
       for i = 0 to k do
         for j = i to k do
           if D.Ref.matches r (sub i j) then begin
             span := Some (offs.(i), offs.(j));
             raise Exit
           end
         done
       done
     with Exit -> ());
    (D.Ref.matches r (Array.to_list cps), !span, None)
  end

(** Check every match pattern's expected result on its short probe
    input against brute force: a wrong construction fails here, before
    any reply is judged by it.  Returns the mismatching patterns. *)
let probe_mismatches ~seed =
  List.filter_map
    (fun ((mp : Gen.mpat), input, o, _) ->
      let want = mp.Gen.want ~n:(String.length input) ~c:(o + 1) in
      let got = brute_force ~located:mp.Gen.mlocated mp.Gen.mpattern input in
      if want = got then None else Some mp.Gen.mpattern)
    (Gen.probes ~seed)
