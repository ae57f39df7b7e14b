(** Wire protocol of the solver service: newline-delimited JSON, one
    request per line, one JSON response per request (DESIGN.md §9).

    Requests:
    {v {"id": <any>, "op": "solve"|"assert"|"check"|"match"|"analyze"
              |"subset"|"equiv"|"stats"|"shutdown",
        "re": <ERE pattern> | "smt2": <SMT-LIB script>,
        "re2": <ERE pattern, ops "subset"/"equiv" only>,
        "input": <UTF-8 text, op "match" only>,
        "deadline_s": <seconds>, "budget": <steps>, "stats": <bool>} v}

    Responses echo ["id"] verbatim and carry either ["status"]
    ([sat]/[unsat]/[unknown]/[ok]) or ["error"].  A deadline expiry is
    [{"status":"unknown","reason":"deadline"}]; an overloaded queue is
    [{"error":"overloaded"}] — the request is rejected immediately,
    never queued behind the backlog.

    Batching (DESIGN.md §17): [{"op":"batch","reqs":[...]}] wraps up to
    {!max_batch} requests in one line.  Every wrapped request {e must}
    carry a client-assigned ["id"], and the ids must be distinct within
    the batch, because the responses come back as individual lines
    correlated by ["id"] and {e in no guaranteed order} (requests of a
    batch may execute on different workers).  Nested batches are
    rejected; ["shutdown"] inside a batch is a per-request error (the
    rest of the batch still runs).  Envelope-level violations — missing
    or empty ["reqs"], more than {!max_batch} entries, a missing or
    duplicate ["id"] — produce a single structured error response and
    leave the session open. *)

module J = Sbd_obs.Obs.Json

type payload =
  | Solve_re of string  (** decide satisfiability of one ERE pattern *)
  | Solve_smt2 of string  (** evaluate an SMT-LIB QF_S script *)
  | Assert_re of string  (** add a pattern to the session's conjunction *)
  | Check  (** decide the conjunction of asserted patterns *)
  | Match_re of { pattern : string; input : string }
      (** match [input] (UTF-8 bytes) against [pattern] with the
          byte-level engine: full-match verdict plus leftmost-earliest
          span *)
  | Analyze_re of string
      (** static analysis of a pattern: metrics, lint findings, sound
          emptiness/universality verdicts, routing hints *)
  | Subset_re of { left : string; right : string }
      (** decide L(left) ⊆ L(right) with the coinductive containment
          prover *)
  | Equiv_re of { left : string; right : string }
      (** decide L(left) = L(right); the cache key is canonical under
          argument order *)
  | Stats  (** server/pool/cache counters *)
  | Shutdown  (** drain in-flight requests, then stop *)
  | Batch of (request, J.t * string) result list
      (** a validated [{"op":"batch"}] envelope: parse errors of
          individual wrapped requests are preserved in order so each
          gets its own correlated error response *)

and request = {
  id : J.t;  (** echoed verbatim in the response; [J.Null] when absent *)
  payload : payload;
  deadline_s : float option;
  budget : int option;
  want_stats : bool;  (** include per-query session stats in the response *)
}

(** Maximum number of requests inside one batch envelope. *)
let max_batch = 128

(** Parse one request from its parsed JSON.  On error, the returned
    [J.t] is the request id when one could be extracted (so the error
    response can still be correlated), [J.Null] otherwise. *)
let rec request_of_json ~nested (json : J.t) : (request, J.t * string) result =
  let id = Option.value (Jsonin.member "id" json) ~default:J.Null in
  let deadline_s = Jsonin.float_member "deadline_s" json in
  let budget = Jsonin.int_member "budget" json in
  let want_stats = Option.value (Jsonin.bool_member "stats" json) ~default:false in
  let re = Jsonin.str_member "re" json in
  let smt2 = Jsonin.str_member "smt2" json in
  let finish payload = Ok { id; payload; deadline_s; budget; want_stats } in
  match Jsonin.str_member "op" json with
  | None -> Error (id, "missing \"op\" field")
  | Some "batch" ->
    if nested then Error (id, "nested \"batch\" is not allowed")
    else parse_batch ~id json ~finish
  | Some "shutdown" when nested ->
    Error (id, "\"shutdown\" is not allowed inside a batch")
  | Some "solve" -> (
      match (re, smt2) with
      | Some pat, None -> finish (Solve_re pat)
      | None, Some script -> finish (Solve_smt2 script)
      | Some _, Some _ -> Error (id, "give either \"re\" or \"smt2\", not both")
      | None, None -> Error (id, "op \"solve\" needs a \"re\" or \"smt2\" field"))
    | Some "assert" -> (
      match re with
      | Some pat -> finish (Assert_re pat)
      | None -> Error (id, "op \"assert\" needs a \"re\" field"))
    | Some "check" -> finish Check
    | Some "match" -> (
      match (re, Jsonin.str_member "input" json) with
      | Some pattern, Some input -> finish (Match_re { pattern; input })
      | None, _ -> Error (id, "op \"match\" needs a \"re\" field")
      | _, None -> Error (id, "op \"match\" needs an \"input\" field"))
    | Some "analyze" -> (
      match re with
      | Some pat -> finish (Analyze_re pat)
      | None -> Error (id, "op \"analyze\" needs a \"re\" field"))
    | Some (("subset" | "equiv") as op) -> (
      match (re, Jsonin.str_member "re2" json) with
      | Some left, Some right ->
        finish
          (if op = "subset" then Subset_re { left; right }
           else Equiv_re { left; right })
      | None, _ -> Error (id, Printf.sprintf "op %S needs a \"re\" field" op)
      | _, None -> Error (id, Printf.sprintf "op %S needs a \"re2\" field" op))
  | Some "stats" -> finish Stats
  | Some "shutdown" -> finish Shutdown
  | Some other -> Error (id, Printf.sprintf "unknown op %S" other)

(* Envelope validation: the structural rules that make out-of-order
   correlation work (ids present and distinct) fail the whole envelope;
   a bad wrapped request only fails itself. *)
and parse_batch ~id json ~finish =
  match[@warning "-4"] Jsonin.member "reqs" json with
  | None -> Error (id, "op \"batch\" needs a \"reqs\" array")
  | Some (J.Arr []) -> Error (id, "empty batch")
  | Some (J.Arr items) ->
    if List.length items > max_batch then
      Error
        (id, Printf.sprintf "batch too large (max %d requests)" max_batch)
    else begin
      let reqs = List.map (request_of_json ~nested:true) items in
      let ids =
        List.filter_map
          (function Ok r -> Some r.id | Error (i, _) -> Some i)
          reqs
      in
      if List.exists (fun i -> i = J.Null) ids then
        Error (id, "every request in a batch needs an \"id\"")
      else
        let rec dup = function
          | [] -> false
          | x :: rest -> List.mem x rest || dup rest
        in
        if dup ids then Error (id, "duplicate \"id\" in batch")
        else finish (Batch reqs)
    end
  | Some _ -> Error (id, "\"reqs\" must be an array")

(** Parse the request line [line.[off, off + len)] in place (a view of
    {!Jsonin.Lines}); error offsets count from [off]. *)
let parse_request_sub (line : string) (off : int) (len : int) :
    (request, J.t * string) result =
  match Jsonin.parse_sub line off len with
  | Error msg -> Error (J.Null, "malformed JSON: " ^ msg)
  | Ok json -> request_of_json ~nested:false json

(** Parse one request line. *)
let parse_request (line : string) : (request, J.t * string) result =
  parse_request_sub line 0 (String.length line)

(* -- responses ----------------------------------------------------------- *)

(** Solver verdict as carried by the service: the witness keeps its raw
    code points (for validation against an independent matcher) next to
    the printable rendering that goes on the wire. *)
type verdict =
  | Sat of { witness : string; codepoints : int list }
  | Unsat
  | Unknown of string

let verdict_fields = function
  | Sat { witness; _ } ->
    [ ("status", J.Str "sat"); ("witness", J.Str witness) ]
  | Unsat -> [ ("status", J.Str "unsat") ]
  | Unknown reason ->
    [ ("status", J.Str "unknown"); ("reason", J.Str reason) ]

let with_id id fields = J.Obj (("id", id) :: fields)

let json_of_stats (stats : (string * float) list) : J.t =
  J.Obj
    (List.map
       (fun (name, v) ->
         ( name,
           if Float.is_integer v && Float.abs v < 1e15 then J.Int (int_of_float v)
           else J.Float v ))
       stats)

let stats_fields = function
  | None -> []
  | Some s -> [ ("stats", json_of_stats s) ]

let solve_response ~id ~(cached : bool) ~(wall_s : float)
    ?(stats : (string * float) list option) (v : verdict) : J.t =
  with_id id
    (verdict_fields v
    @ [ ("cached", J.Bool cached); ("wall_s", J.Float wall_s) ]
    @ stats_fields stats)

(** The verdict of a containment/equivalence request.  The carried
    {!verdict} reuses the solver shape via the emptiness reduction view
    — [subset l r] iff [is_empty (l & ~r)] — so the shared LRU stays a
    [verdict Lru.t]: [Unsat] means {e proved}, [Sat] means {e refuted}
    with the distinguishing word as the witness. *)
let contain_fields = function
  | Unsat -> [ ("status", J.Str "proved") ]
  | Sat { witness; codepoints } ->
    [
      ("status", J.Str "refuted");
      ("witness", J.Str witness);
      ("witness_codepoints", J.Arr (List.map (fun c -> J.Int c) codepoints));
    ]
  | Unknown reason -> [ ("status", J.Str "unknown"); ("reason", J.Str reason) ]

let contain_response ~id ~(cached : bool) ~(wall_s : float)
    ?(stats : (string * float) list option) (v : verdict) : J.t =
  with_id id
    (contain_fields v
    @ [ ("cached", J.Bool cached); ("wall_s", J.Float wall_s) ]
    @ stats_fields stats)

(** Outcome of a [match] request: either the engine ran to completion
    (full-match flag + leftmost-earliest span in byte offsets; located
    patterns report the earliest match end instead of a span, since the
    located engine does not recover start positions), or it hit the
    deadline. *)
type match_verdict =
  | Matched of {
      full : bool;
      span : (int * int) option;
      found_end : int option;
    }
  | Match_unknown of string

let match_fields = function
  | Matched { full; span; found_end } ->
    [
      ("status", J.Str "ok");
      ("matched", J.Bool (span <> None || found_end <> None));
      ("full", J.Bool full);
    ]
    @ (match span with
      | Some (i, j) -> [ ("span", J.Arr [ J.Int i; J.Int j ]) ]
      | None -> [])
    @ (match found_end with Some j -> [ ("found_end", J.Int j) ] | None -> [])
  | Match_unknown reason ->
    [ ("status", J.Str "unknown"); ("reason", J.Str reason) ]

let match_response ~id ~(wall_s : float)
    ?(stats : (string * float) list option) (v : match_verdict) : J.t =
  with_id id (match_fields v @ [ ("wall_s", J.Float wall_s) ] @ stats_fields stats)

let smt2_response ~id ~(wall_s : float)
    (answers : (string * string option) list) (output : string) : J.t =
  let answer_json = function
    | status, None -> J.Str status
    | status, Some reason ->
      J.Obj [ ("status", J.Str status); ("reason", J.Str reason) ]
  in
  with_id id
    [
      ("status", J.Str "ok");
      ("answers", J.Arr (List.map answer_json answers));
      ("output", J.Str output);
      ("wall_s", J.Float wall_s);
    ]

(** Response to an [analyze] request: the analyzer's JSON report under
    an ["analysis"] key. *)
let analyze_response ~id ~(wall_s : float) (report : J.t) : J.t =
  with_id id
    [ ("status", J.Str "ok"); ("analysis", report); ("wall_s", J.Float wall_s) ]

let ok_response ~id fields = with_id id (("status", J.Str "ok") :: fields)
let error_response ~id msg = with_id id [ ("error", J.Str msg) ]
let overloaded_response ~id = error_response ~id "overloaded"
