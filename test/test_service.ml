(* Tests for the concurrent solver service (lib/service, DESIGN.md §9,
   §17): wire-protocol parsing (including batch envelopes), a full
   session round-trip over pipes (including malformed input,
   per-request deadlines and batch robustness), work-stealing scheduler
   backpressure and drain, sharded-LRU accounting under multi-domain
   churn, and pool-vs-sequential agreement with reference-matcher
   witness validation. *)

module Obs = Sbd_obs.Obs
module J = Obs.Json
module Jsonin = Sbd_service.Jsonin
module Protocol = Sbd_service.Protocol
module Sched = Sbd_service.Sched
module Lru = Sbd_service.Lru
module Worker = Sbd_service.Worker
module Pool = Sbd_service.Pool
module Server = Sbd_service.Server

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)

(* -- JSON reader --------------------------------------------------------- *)

let test_jsonin () =
  (match Jsonin.parse {|{"a": [1, -2.5, true, null], "s": "x\né"}|} with
  | Error msg -> Alcotest.fail ("parse failed: " ^ msg)
  | Ok json ->
    (match Jsonin.member "a" json with
    | Some (J.Arr [ J.Int 1; J.Float f; J.Bool true; J.Null ]) ->
      check "float element" true (Float.abs (f +. 2.5) < 1e-9)
    | _ -> Alcotest.fail "array shape");
    check_str "escapes decoded" "x\n\xc3\xa9"
      (Option.get (Jsonin.str_member "s" json)));
  (match Jsonin.parse {|{"broken": }|} with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "accepted malformed JSON");
  match Jsonin.parse {|{"a":1} trailing|} with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "accepted trailing garbage"

(* -- request parsing ----------------------------------------------------- *)

let test_parse_request () =
  (match
     Protocol.parse_request
       {|{"id": 7, "op": "solve", "re": "a|b", "deadline_s": 0.5, "budget": 100}|}
   with
  | Ok { id = J.Int 7; payload = Protocol.Solve_re "a|b"; deadline_s = Some d;
         budget = Some 100; _ } ->
    check "deadline" true (Float.abs (d -. 0.5) < 1e-9)
  | Ok _ -> Alcotest.fail "wrong request shape"
  | Error (_, msg) -> Alcotest.fail msg);
  (match Protocol.parse_request "not json at all" with
  | Error (J.Null, msg) ->
    check "malformed tagged" true
      (String.length msg >= 9 && String.sub msg 0 9 = "malformed")
  | _ -> Alcotest.fail "malformed line must fail without an id");
  (* the id survives even when the request itself is bad, so the error
     response can be correlated *)
  (match Protocol.parse_request {|{"id": "q1", "op": "frobnicate"}|} with
  | Error (J.Str "q1", _) -> ()
  | _ -> Alcotest.fail "id not preserved on unknown op");
  match Protocol.parse_request {|{"id": 1, "op": "assert"}|} with
  | Error (J.Int 1, _) -> ()
  | _ -> Alcotest.fail "assert without re must fail"

(* -- scheduler backpressure and drain ------------------------------------ *)

let test_sched_backpressure () =
  (* one worker: a single deque, exactly the old shared-queue contract *)
  let q = Sched.create ~workers:1 ~cap:2 in
  check "push 1" true (Sched.try_push q 1);
  check "push 2" true (Sched.try_push q 2);
  check "push beyond cap refused" false (Sched.try_push q 3);
  check_int "length" 2 (Sched.length q);
  (match Sched.pop q ~me:0 with
  | Some 1 -> ()
  | _ -> Alcotest.fail "FIFO order");
  check "slot freed" true (Sched.try_push q 4);
  Sched.close q;
  check "push after close refused" false (Sched.try_push q 5);
  check "drains after close" true (Sched.pop q ~me:0 = Some 2);
  check "drains after close" true (Sched.pop q ~me:0 = Some 4);
  check "None once drained" true (Sched.pop q ~me:0 = None)

let test_sched_spill () =
  (* a full affinity target spills to the least-loaded deque instead of
     shedding, and the spill is counted *)
  let q = Sched.create ~workers:2 ~cap:4 in
  (* per-deque cap is 2; all pushes target deque 0 *)
  check "push 1" true (Sched.try_push ~affinity:0 q 1);
  check "push 2" true (Sched.try_push ~affinity:0 q 2);
  check "spilled to deque 1" true (Sched.try_push ~affinity:0 q 3);
  check_int "one spill" 1 (Sched.spills q);
  check "spill target fills too" true (Sched.try_push ~affinity:0 q 4);
  check "both deques full" false (Sched.try_push ~affinity:0 q 5);
  check_int "length" 4 (Sched.length q);
  Sched.close q

(* Multi-domain churn: every item routed to deque 0, consumed only by
   workers 1..3 — each delivery is necessarily a steal.  Checks no item
   is lost or duplicated and that close lets consumers drain cleanly. *)
let test_sched_steal_stress () =
  let n = 1_000 in
  let workers = 4 in
  let q = Sched.create ~workers ~cap:64 in
  let got = Array.make workers [] in
  let consumers =
    List.init (workers - 1) (fun k ->
        let me = k + 1 in
        Domain.spawn (fun () ->
            let rec go () =
              match Sched.pop q ~me with
              | Some x ->
                got.(me) <- x :: got.(me);
                go ()
              | None -> ()
            in
            go ()))
  in
  for i = 0 to n - 1 do
    check "push_wait accepted" true (Sched.push_wait ~affinity:0 q i)
  done;
  Sched.close q;
  List.iter Domain.join consumers;
  check "push after close refused" false (Sched.push_wait ~affinity:0 q n);
  let all = Array.to_list got |> List.concat |> List.sort compare in
  check_int "no lost or duplicated items" n (List.length all);
  check "exactly the pushed items" true (all = List.init n Fun.id);
  check_int "every delivery was a steal" n (Sched.steals q);
  check_int "drained empty" 0 (Sched.length q)

(* -- LRU accounting ------------------------------------------------------ *)

let test_lru () =
  let c : int Lru.t = Lru.create ~cap:2 () in
  check "cold miss" true (Lru.find c "a" = None);
  Lru.put c "a" 1;
  Lru.put c "b" 2;
  check "hit a" true (Lru.find c "a" = Some 1);
  (* "b" is now least recent: inserting "c" must evict it, not "a" *)
  Lru.put c "c" 3;
  check_int "size stays at cap" 2 (Lru.size c);
  check "a survived (recently used)" true (Lru.find c "a" = Some 1);
  check "b evicted" true (Lru.find c "b" = None);
  check "c present" true (Lru.find c "c" = Some 3);
  check_int "hits" 3 (Lru.hits c);
  check_int "misses" 2 (Lru.misses c);
  check_int "evictions" 1 (Lru.evictions c)

let test_lru_shards () =
  (* shard count rounds up to a power of two; cap splits across shards *)
  let c : int Lru.t = Lru.create ~shards:3 ~cap:16 () in
  check_int "rounded to power of two" 4 (Lru.num_shards c);
  check_int "per-shard cap" 4 (Lru.shard_cap c);
  for i = 0 to 63 do
    Lru.put c (string_of_int i) i
  done;
  check "size bounded by total cap" true (Lru.size c <= 16);
  List.iter
    (fun (size, _, _, _) -> check "shard within its cap" true (size <= 4))
    (Lru.shard_rows c);
  (* per-shard rows surface in stats *)
  let stats = Lru.stats c in
  check "per-shard gauges present" true
    (List.mem_assoc "service.cache.shard0.size" stats
    && List.mem_assoc "service.cache.shard3.hits" stats)

(* Multi-domain churn over the sharded cache: concurrent get/put/evict
   with per-shard invariants (size never exceeds the shard cap) and
   exact aggregate accounting (hits + misses = finds issued). *)
let test_lru_sharded_stress () =
  let c : int Lru.t = Lru.create ~shards:8 ~cap:64 () in
  let domains = 4 and ops = 5_000 and keyspace = 200 in
  let finds = Atomic.make 0 in
  let workers =
    List.init domains (fun d ->
        Domain.spawn (fun () ->
            let seed = ref ((d * 7919) + 1) in
            let rand m =
              seed := ((!seed * 1103515245) + 12345) land 0x3FFFFFFF;
              !seed mod m
            in
            for _ = 1 to ops do
              let key = string_of_int (rand keyspace) in
              if rand 3 = 0 then Lru.put c key (int_of_string key)
              else begin
                ignore (Atomic.fetch_and_add finds 1);
                match Lru.find c key with
                | Some v -> assert (v = int_of_string key)
                | None -> ()
              end
            done))
  in
  List.iter Domain.join workers;
  check "size bounded by total cap" true (Lru.size c <= 64);
  List.iter
    (fun (size, _, _, _) ->
      check "shard within its cap" true (size <= Lru.shard_cap c))
    (Lru.shard_rows c);
  check_int "exact hit+miss accounting" (Atomic.get finds)
    (Lru.hits c + Lru.misses c);
  check "hit rate in range" true
    (Lru.hit_rate c >= 0.0 && Lru.hit_rate c <= 1.0)

(* -- worker: canonical cache keys and witness checking -------------------- *)

let test_worker_keys () =
  let (module W) = Worker.create () in
  let key p =
    match W.cache_key p with
    | Ok k -> k
    | Error msg -> Alcotest.fail msg
  in
  check_str "commutative or" (key "a|b") (key "b|a");
  check_str "commutative and" (key "a&b&c") (key "c&a&b");
  check "distinct languages, distinct keys" true (key "a|b" <> key "a|c");
  (* keys are instantiation-independent: a second worker whose hash-cons
     ids differ (forced by interning extra regexes first) agrees *)
  let (module W2) = Worker.create () in
  (match W2.cache_key "zz*|q{3}" with
  | Ok _ -> ()
  | Error msg -> Alcotest.fail msg);
  (match W2.cache_key "b|a" with
  | Ok k -> check_str "cross-worker key" (key "a|b") k
  | Error msg -> Alcotest.fail msg);
  match W.cache_key "a|(" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "parse error must not produce a key"

let test_worker_witness () =
  let (module W) = Worker.create () in
  (match W.solve_pattern "a{2,3}&~(.*b.*)" with
  | Ok (Protocol.Sat { codepoints; _ }, _) ->
    check "witness valid (reference matcher)" true
      (W.check_witness "a{2,3}&~(.*b.*)" codepoints = Some true)
  | Ok _ -> Alcotest.fail "expected sat"
  | Error msg -> Alcotest.fail msg);
  match W.solve_pattern "a{2}&a{3}" with
  | Ok (Protocol.Unsat, _) -> ()
  | Ok _ -> Alcotest.fail "expected unsat"
  | Error msg -> Alcotest.fail msg

(* -- containment requests ------------------------------------------------ *)

let test_contain_op () =
  (* request parsing *)
  (match Protocol.parse_request {|{"id":1,"op":"subset","re":"a","re2":"a*"}|} with
  | Ok { Protocol.payload = Protocol.Subset_re { left = "a"; right = "a*" }; _ }
    -> ()
  | Ok _ -> Alcotest.fail "wrong subset payload"
  | Error (_, msg) -> Alcotest.fail msg);
  (match Protocol.parse_request {|{"op":"equiv","re":"a"}|} with
  | Error (_, msg) -> check "missing re2 reported" true (msg <> "")
  | Ok _ -> Alcotest.fail "equiv without re2 must be rejected");
  let (module W) = Worker.create () in
  (* verdicts through the worker: Unsat = proved, Sat = refuted *)
  (match W.contain_pattern ~equiv:false "(ab)*a" "a(ba)*" with
  | Ok (Protocol.Unsat, _) -> ()
  | Ok _ -> Alcotest.fail "expected proved"
  | Error msg -> Alcotest.fail msg);
  (match W.contain_pattern ~equiv:false "a{1,4}" "a{2,3}" with
  | Ok (Protocol.Sat { codepoints; _ }, _) ->
    (* the distinguishing word is in the left language, not the right *)
    check "witness in left" true
      (W.check_witness "a{1,4}" codepoints = Some true);
    check "witness not in right" true
      (W.check_witness "a{2,3}" codepoints = Some false)
  | Ok _ -> Alcotest.fail "expected refuted"
  | Error msg -> Alcotest.fail msg);
  (match W.contain_pattern ~equiv:true "(a|b)*" "(a*b*)*" with
  | Ok (Protocol.Unsat, _) -> ()
  | Ok _ -> Alcotest.fail "expected equiv proved"
  | Error msg -> Alcotest.fail msg);
  (* cache keys: equiv is order-canonical, subset is not *)
  let key ~equiv l r =
    match W.contain_cache_key ~equiv l r with
    | Ok k -> k
    | Error msg -> Alcotest.fail msg
  in
  check_str "equiv key order-canonical" (key ~equiv:true "a|b" "c*")
    (key ~equiv:true "c*" "b|a");
  check "subset key is ordered" true
    (key ~equiv:false "a" "a*" <> key ~equiv:false "a*" "a");
  check "subset and equiv keys distinct" true
    (key ~equiv:false "a" "a*" <> key ~equiv:true "a" "a*");
  match W.contain_cache_key ~equiv:false "a|(" "a" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "parse error must not produce a key"

(* -- match requests ------------------------------------------------------- *)

let test_parse_match_request () =
  (match
     Protocol.parse_request {|{"id": 3, "op": "match", "re": "ab*c", "input": "xxabc"}|}
   with
  | Ok { id = J.Int 3; payload = Protocol.Match_re { pattern = "ab*c"; input = "xxabc" }; _ }
    -> ()
  | Ok _ -> Alcotest.fail "wrong match request shape"
  | Error (_, msg) -> Alcotest.fail msg);
  (* input is mandatory *)
  match Protocol.parse_request {|{"id": 4, "op": "match", "re": "ab*c"}|} with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "match without input accepted"

(* -- batch envelope parsing ----------------------------------------------- *)

let test_parse_batch () =
  (* a valid envelope preserves order and per-request parse errors *)
  (match
     Protocol.parse_request
       {|{"op":"batch","reqs":[{"id":1,"op":"solve","re":"a"},{"id":2,"op":"frobnicate"},{"id":3,"op":"assert","re":"b"}]}|}
   with
  | Ok { payload = Protocol.Batch [ Ok r1; Error (J.Int 2, _); Ok r3 ]; _ } ->
    check "first is solve" true (r1.Protocol.payload = Protocol.Solve_re "a");
    check "third is assert" true (r3.Protocol.payload = Protocol.Assert_re "b")
  | Ok _ -> Alcotest.fail "wrong batch shape"
  | Error (_, msg) -> Alcotest.fail msg);
  let must_fail label line =
    match Protocol.parse_request line with
    | Error (_, msg) -> check (label ^ " reported") true (msg <> "")
    | Ok _ -> Alcotest.fail (label ^ " accepted")
  in
  must_fail "missing reqs" {|{"op":"batch"}|};
  must_fail "reqs not an array" {|{"op":"batch","reqs":7}|};
  must_fail "empty batch" {|{"op":"batch","reqs":[]}|};
  must_fail "missing inner id"
    {|{"op":"batch","reqs":[{"op":"solve","re":"a"}]}|};
  must_fail "duplicate ids"
    {|{"op":"batch","reqs":[{"id":1,"op":"solve","re":"a"},{"id":1,"op":"solve","re":"b"}]}|};
  (* nested batches and shutdown degrade to per-request errors: the
     envelope stays valid and the other requests still run *)
  let per_item_error label line =
    match Protocol.parse_request line with
    | Ok { payload = Protocol.Batch [ Error (J.Int 1, msg); Ok _ ]; _ } ->
      check (label ^ " reported") true (msg <> "")
    | Ok _ -> Alcotest.fail (label ^ ": wrong shape")
    | Error (_, msg) -> Alcotest.fail (label ^ ": envelope rejected: " ^ msg)
  in
  per_item_error "nested batch"
    {|{"op":"batch","reqs":[{"id":1,"op":"batch","reqs":[]},{"id":2,"op":"solve","re":"a"}]}|};
  per_item_error "shutdown inside batch"
    {|{"op":"batch","reqs":[{"id":1,"op":"shutdown"},{"id":2,"op":"solve","re":"a"}]}|};
  (* an oversized envelope is refused with a structured error *)
  let big =
    String.concat ","
      (List.init
         (Protocol.max_batch + 1)
         (fun i -> Printf.sprintf {|{"id":%d,"op":"solve","re":"a"}|} i))
  in
  must_fail "oversized batch"
    (Printf.sprintf {|{"op":"batch","reqs":[%s]}|} big);
  (* exactly max_batch is fine *)
  let ok =
    String.concat ","
      (List.init Protocol.max_batch (fun i ->
           Printf.sprintf {|{"id":%d,"op":"solve","re":"a"}|} i))
  in
  match
    Protocol.parse_request (Printf.sprintf {|{"op":"batch","reqs":[%s]}|} ok)
  with
  | Ok { payload = Protocol.Batch reqs; _ } ->
    check_int "max_batch accepted" Protocol.max_batch (List.length reqs)
  | Ok _ -> Alcotest.fail "wrong max-batch shape"
  | Error (_, msg) -> Alcotest.fail msg

(* -- draining line reader ------------------------------------------------- *)

let test_lines_reader () =
  let path = Filename.temp_file "sbd_lines" ".txt" in
  let oc = open_out_bin path in
  output_string oc "one\ntwo\nthree";
  close_out oc;
  let ic = open_in_bin path in
  let t = Jsonin.Lines.create ic in
  (* the whole file arrives in one read: both complete lines at once *)
  (match Jsonin.Lines.read t with
  | Some [ "one"; "two" ] -> ()
  | Some _ -> Alcotest.fail "wrong first burst"
  | None -> Alcotest.fail "premature EOF");
  (* the unterminated tail is delivered once EOF is seen *)
  (match Jsonin.Lines.read t with
  | Some [ "three" ] -> ()
  | _ -> Alcotest.fail "missing final unterminated line");
  check "eof" true (Jsonin.Lines.read t = None);
  close_in ic;
  Sys.remove path

(* -- full session over pipes --------------------------------------------- *)

(* Run a server on its own thread, speaking the newline-delimited JSON
   protocol over two pipes, exactly as a socket client would see it. *)
let with_session cfg f =
  let req_r, req_w = Unix.pipe ~cloexec:true () in
  let resp_r, resp_w = Unix.pipe ~cloexec:true () in
  let t = Server.create cfg in
  let srv =
    Thread.create
      (fun () ->
        let ic = Unix.in_channel_of_descr req_r in
        let oc = Unix.out_channel_of_descr resp_w in
        ignore (Server.serve_channel t ic oc);
        Pool.shutdown t.Server.pool;
        close_out_noerr oc;
        close_in_noerr ic)
      ()
  in
  let out = Unix.out_channel_of_descr req_w in
  let inp = Unix.in_channel_of_descr resp_r in
  let send line =
    output_string out line;
    output_char out '\n';
    flush out
  in
  let recv () =
    match Jsonin.parse (input_line inp) with
    | Ok json -> json
    | Error msg -> Alcotest.fail ("bad response JSON: " ^ msg)
  in
  Fun.protect
    ~finally:(fun () ->
      close_out_noerr out;
      Thread.join srv;
      close_in_noerr inp)
    (fun () -> f ~send ~recv)

let small_cfg =
  {
    Server.default_config with
    workers = 2;
    queue_cap = 8;
    cache_cap = 64;
    default_budget = 20_000;
    default_deadline = Some 5.0;
  }

let status json = Jsonin.str_member "status" json

let test_session_roundtrip () =
  with_session small_cfg (fun ~send ~recv ->
      send {|{"id": 1, "op": "solve", "re": "ab*c"}|};
      let r = recv () in
      check "sat" true (status r = Some "sat");
      check "id echoed" true (Jsonin.member "id" r = Some (J.Int 1));
      check "witness present" true (Jsonin.str_member "witness" r <> None);
      send {|{"id": 2, "op": "solve", "re": "a{2}&a{3}"}|};
      check "unsat" true (status (recv ()) = Some "unsat");
      (* malformed line: structured error, session keeps working *)
      send "this is not JSON";
      let r = recv () in
      check "error field" true (Jsonin.str_member "error" r <> None);
      check "null id" true (Jsonin.member "id" r = Some J.Null);
      (* assert/check: the conjunction is decided at check time *)
      send {|{"id": 3, "op": "assert", "re": ".*a"}|};
      check "assert ok" true (status (recv ()) = Some "ok");
      send {|{"id": 4, "op": "assert", "re": "z.*"}|};
      check "assert ok" true (status (recv ()) = Some "ok");
      send {|{"id": 5, "op": "check"}|};
      let r = recv () in
      check "conjunction sat" true (status r = Some "sat");
      (match Jsonin.str_member "witness" r with
      | Some w ->
        check "witness starts with z" true (String.length w > 0 && w.[0] = 'z');
        check "witness ends with a" true (w.[String.length w - 1] = 'a')
      | None -> Alcotest.fail "no witness on check");
      (* cache: same canonical form, served from the shared LRU *)
      send {|{"id": 6, "op": "solve", "re": "b*a|c*ab"}|};
      ignore (recv ());
      send {|{"id": 7, "op": "solve", "re": "c*ab|b*a"}|};
      let r = recv () in
      check "cache hit on commuted query" true
        (Jsonin.bool_member "cached" r = Some true);
      (* match op: leftmost-earliest span over the engine *)
      send {|{"id": "m1", "op": "match", "re": "ab*c", "input": "xxabbbcyy"}|};
      let r = recv () in
      check "match ok" true (status r = Some "ok");
      check "matched" true (Jsonin.bool_member "matched" r = Some true);
      check "not a full match" true (Jsonin.bool_member "full" r = Some false);
      check "span [2,7)" true
        (Jsonin.member "span" r = Some (J.Arr [ J.Int 2; J.Int 7 ]));
      (* the input is decoded as UTF-8: é is a single '.' *)
      send {|{"id": "m2", "op": "match", "re": "h.llo", "input": "héllo", "stats": true}|};
      let r = recv () in
      check "utf8 full match" true (Jsonin.bool_member "full" r = Some true);
      check "match stats present" true (Jsonin.member "stats" r <> None);
      send {|{"id": 8, "op": "stats"}|};
      let r = recv () in
      check "stats ok" true (status r = Some "ok");
      (match Jsonin.member "stats" r with
      | Some (J.Obj rows) ->
        check "cache hit counted" true
          (List.exists
             (fun (k, v) -> k = "service.cache.hits" && v <> J.Int 0)
             rows)
      | _ -> Alcotest.fail "stats payload missing");
      send {|{"id": 9, "op": "shutdown"}|};
      let r = recv () in
      check "shutdown ok" true (status r = Some "ok");
      check "drained" true (Jsonin.bool_member "drained" r = Some true))

(* -- batch protocol over a live session ----------------------------------- *)

let test_batch_roundtrip () =
  with_session small_cfg (fun ~send ~recv ->
      (* mixed batch: solves, an assert (answered by the reader), and a
         bad pattern; responses are correlated by id, order free *)
      send
        {|{"op":"batch","reqs":[{"id":"b1","op":"solve","re":"ab*c"},{"id":"b2","op":"assert","re":".*a"},{"id":"b3","op":"solve","re":"a{2}&a{3}"},{"id":"b4","op":"solve","re":"a|("}]}|};
      let responses = List.init 4 (fun _ -> recv ()) in
      let by_id want =
        match
          List.find_opt
            (fun r -> Jsonin.member "id" r = Some (J.Str want))
            responses
        with
        | Some r -> r
        | None -> Alcotest.fail ("no response for id " ^ want)
      in
      check "b1 sat" true (status (by_id "b1") = Some "sat");
      check "b2 ok" true (status (by_id "b2") = Some "ok");
      check "b3 unsat" true (status (by_id "b3") = Some "unsat");
      check "b4 structured error" true
        (Jsonin.str_member "error" (by_id "b4") <> None);
      (* the asserted pattern took effect for the rest of the session *)
      send {|{"id": 5, "op": "check"}|};
      check "conjunction sat" true (status (recv ()) = Some "sat");
      (* repeats of a batched solve hit the shared cache *)
      send {|{"op":"batch","reqs":[{"id":"c1","op":"solve","re":"ab*c"}]}|};
      let r = recv () in
      check "batched repeat cached" true
        (Jsonin.bool_member "cached" r = Some true);
      send {|{"id": 6, "op": "shutdown"}|};
      ignore (recv ()))

let test_batch_robustness () =
  with_session small_cfg (fun ~send ~recv ->
      let expect_error label =
        let r = recv () in
        check (label ^ " is an error") true (Jsonin.str_member "error" r <> None);
        r
      in
      (* envelope violations: one structured error each, session alive *)
      send {|{"id": "e1", "op": "batch"}|};
      let r = expect_error "missing reqs" in
      check "envelope id echoed" true
        (Jsonin.member "id" r = Some (J.Str "e1"));
      send {|{"op": "batch", "reqs": []}|};
      ignore (expect_error "empty batch");
      send {|{"op": "batch", "reqs": 42}|};
      ignore (expect_error "non-array reqs");
      send
        {|{"op":"batch","reqs":[{"id":1,"op":"solve","re":"a"},{"id":1,"op":"solve","re":"b"}]}|};
      ignore (expect_error "duplicate ids");
      send {|{"op":"batch","reqs":[{"op":"solve","re":"a"}]}|};
      ignore (expect_error "missing inner id");
      (* oversized: max_batch + 1 requests *)
      send
        (Printf.sprintf {|{"op":"batch","reqs":[%s]}|}
           (String.concat ","
              (List.init
                 (Protocol.max_batch + 1)
                 (fun i -> Printf.sprintf {|{"id":%d,"op":"solve","re":"a"}|} i))));
      ignore (expect_error "oversized batch");
      (* after all that abuse the session still answers *)
      send {|{"id": "alive", "op": "solve", "re": "ab*c"}|};
      let r = recv () in
      check "session survived" true (status r = Some "sat");
      check "id correlated" true (Jsonin.member "id" r = Some (J.Str "alive"));
      send {|{"id": 0, "op": "shutdown"}|};
      ignore (recv ()))

(* An intersection of alternations that clean-DNF pruning cannot
   collapse (see test_obs.ml): the first transition computation builds
   8^8 meets, so only the deadline can stop it. *)
let blowup_pattern =
  let factor k =
    String.concat "|"
      (List.init 8 (fun i ->
           Printf.sprintf "a%c.*" (Char.chr (Char.code 'a' + k + i))))
  in
  String.concat "&" (List.init 8 (fun k -> "(" ^ factor k ^ ")"))

let test_deadline_isolation () =
  with_session small_cfg (fun ~send ~recv ->
      (* a deadline-doomed request and an easy one, in flight together *)
      send
        (Printf.sprintf {|{"id": "hard", "op": "solve", "re": %S, "deadline_s": 0.05}|}
           blowup_pattern);
      send {|{"id": "easy", "op": "solve", "re": "easy|trivial"}|};
      let r1 = recv () in
      let r2 = recv () in
      let by_id want =
        if Jsonin.member "id" r1 = Some (J.Str want) then r1
        else if Jsonin.member "id" r2 = Some (J.Str want) then r2
        else Alcotest.fail ("no response for id " ^ want)
      in
      let hard = by_id "hard" and easy = by_id "easy" in
      check "doomed request is unknown" true (status hard = Some "unknown");
      check_str "reason is deadline" "deadline"
        (Option.value (Jsonin.str_member "reason" hard) ~default:"<none>");
      check "easy request unaffected" true (status easy = Some "sat");
      send {|{"id": 0, "op": "shutdown"}|};
      ignore (recv ()))

(* -- analyze op ----------------------------------------------------------- *)

let test_analyze_op () =
  with_session small_cfg (fun ~send ~recv ->
      send {|{"id": 1, "op": "analyze", "re": "[a-m]+&[n-z]+"}|};
      let r = recv () in
      check "analyze ok" true (status r = Some "ok");
      (match Jsonin.member "analysis" r with
      | Some (J.Obj kvs) ->
        (* the report proves emptiness and carries the SBD201 finding *)
        (match List.assoc_opt "semantic" kvs with
        | Some (J.Obj sem) ->
          check "proved empty over the wire" true
            (List.assoc_opt "empty" sem = Some (J.Str "proved"))
        | _ -> Alcotest.fail "semantic object missing");
        (match List.assoc_opt "findings" kvs with
        | Some (J.Arr fs) ->
          check "SBD201 over the wire" true
            (List.exists
               (fun f ->
                 match f with
                 | J.Obj kv -> List.assoc_opt "rule" kv = Some (J.Str "SBD201")
                 | _ -> false)
               fs)
        | _ -> Alcotest.fail "findings array missing");
        check "hints present" true (List.assoc_opt "hints" kvs <> None)
      | _ -> Alcotest.fail "analysis payload missing");
      (* a pattern that fails to parse turns into a structured error *)
      send {|{"id": 2, "op": "analyze", "re": "ab["}|};
      let r = recv () in
      check "bad pattern is an error" true (Jsonin.str_member "error" r <> None);
      (* missing "re" is rejected at the protocol layer *)
      send {|{"id": 3, "op": "analyze"}|};
      let r = recv () in
      check "missing re is an error" true (Jsonin.str_member "error" r <> None);
      send {|{"id": 4, "op": "shutdown"}|};
      ignore (recv ()))

(* -- explicit containment budget ------------------------------------------ *)

let test_contain_budget () =
  (* a request budget equal to the server's solver default is still the
     request's own budget, not "unset" *)
  let req extra =
    Printf.sprintf
      {|{"id":1,"op":"subset","re":"~(.*a{9,17}.*)&.*b{8,16}.*","re2":"~(.*a{8,16}.*)"%s}|}
      extra
  in
  with_session { small_cfg with default_budget = 17 } (fun ~send ~recv ->
      send (req {|,"budget":17|});
      check "explicit budget honoured" true (status (recv ()) = Some "unknown");
      (* without one the prover's own default applies *)
      send (req "");
      check "prover default" true (status (recv ()) = Some "refuted");
      send {|{"id": 0, "op": "shutdown"}|};
      ignore (recv ()))

(* -- pool vs sequential agreement ---------------------------------------- *)

(* Inverse of [Solve.string_of_witness]: printable ASCII verbatim,
   backslash-escaped quote and backslash, [\u{HHHH}] for the rest. *)
let decode_witness s =
  let n = String.length s in
  let rec go i acc =
    if i >= n then List.rev acc
    else if s.[i] <> '\\' then go (i + 1) (Char.code s.[i] :: acc)
    else if s.[i + 1] <> 'u' then go (i + 2) (Char.code s.[i + 1] :: acc)
    else
      let j = String.index_from s i '}' in
      go (j + 1) (int_of_string ("0x" ^ String.sub s (i + 3) (j - i - 3)) :: acc)
  in
  go 0 []

(* One pipelined pass and one batched pass of the same solve stream over
   a 2-worker session with the result cache on, plus match requests:
   every id answered once without error, no sat/unsat conflict with a
   sequential worker, every witness valid, batched repeats of decided
   patterns served from the cache, match spans equal to the oracle's. *)
let test_pool_agreement () =
  let module I = Sbd_benchgen.Instance in
  let base =
    Array.of_list
      (List.map
         (fun (i : I.t) -> i.I.pattern)
         (Sbd_benchgen.Standard.non_boolean () @ Sbd_benchgen.Standard.boolean ()))
  in
  let rng = I.Rng.create 7 in
  for i = Array.length base - 1 downto 1 do
    let j = I.Rng.int rng (i + 1) in
    let tmp = base.(i) in
    base.(i) <- base.(j);
    base.(j) <- tmp
  done;
  let pats = Array.init 48 (fun _ -> base.(I.Rng.int rng 16)) in
  let (module W0) = Worker.create () in
  let seq =
    Array.map
      (fun p ->
        match W0.solve_pattern ~deadline:1.0 ~budget:20_000 p with
        | Ok (v, _) -> v
        | Error msg -> Alcotest.fail msg)
      pats
  in
  let solve_req i =
    Printf.sprintf {|{"id":%d,"op":"solve","re":%s,"deadline_s":1.0,"budget":20000}|}
      i (J.to_string (J.Str pats.(i mod 48)))
  in
  let replies = Hashtbl.create 128 in
  let take recv =
    let r = recv () in
    check "no error reply" true (Jsonin.member "error" r = None);
    match[@warning "-4"] Jsonin.member "id" r with
    | Some (J.Int i) ->
      check "answered once" false (Hashtbl.mem replies i);
      Hashtbl.add replies i r
    | _ -> Alcotest.fail "reply without an integer id"
  in
  with_session { small_cfg with queue_cap = 64; cache_cap = 4096 }
    (fun ~send ~recv ->
      (* pipelined: up to 8 requests in flight *)
      for i = 0 to 47 do
        send (solve_req i);
        if i >= 7 then take recv
      done;
      for _ = 1 to 7 do take recv done;
      (* the same stream again, as batch envelopes of 8 *)
      for e = 0 to 5 do
        send
          (Printf.sprintf {|{"op":"batch","reqs":[%s]}|}
             (String.concat "," (List.init 8 (fun k -> solve_req (48 + (8 * e) + k)))));
        for _ = 1 to 8 do take recv done
      done;
      List.iteri
        (fun k (pattern, input) ->
          send
            (J.to_string
               (J.Obj
                  [ ("id", J.Int (96 + k)); ("op", J.Str "match");
                    ("re", J.Str pattern); ("input", J.Str input) ]));
          let r = (take recv; Hashtbl.find replies (96 + k)) in
          match W0.match_ref ~pattern ~input with
          | None -> Alcotest.fail ("oracle cannot parse " ^ pattern)
          | Some (full, span) ->
            check ("full " ^ pattern) true (Jsonin.bool_member "full" r = Some full);
            check ("span " ^ pattern) true
              (Jsonin.member "span" r
              = Option.map (fun (i, j) -> J.Arr [ J.Int i; J.Int j ]) span))
        [ ("ab*c", "xxabbbcyy"); ("a*b", "aaaaaaaa"); ("\\d{2}-\\d{2}", "on 24-07 it shipped")
        ; (".*a.*&.*b.*", "xxxayyybzzz"); ("~(.*ab.*)", "ba"); ("~(.*ab.*)", "xaby")
        ; ("h.llo", "h\xc3\xa9llo"); ("(a|b){3}", "abba"); (".*(0|1){2}", "xyz01")
        ; ("x+y+", "zzzxxyyzz") ];
      send {|{"id": 0, "op": "shutdown"}|};
      ignore (recv ()));
  check_int "every id answered" 106 (Hashtbl.length replies);
  for i = 0 to 95 do
    let r = Hashtbl.find replies i and pat = pats.(i mod 48) in
    (match[@warning "-4"] (status r, seq.(i mod 48)) with
    | Some "sat", Protocol.Unsat | Some "unsat", Protocol.Sat _ ->
      Alcotest.failf "verdict conflict on %s" pat
    | Some "sat", _ ->
      let w = decode_witness (Option.get (Jsonin.str_member "witness" r)) in
      check ("witness for " ^ pat) true (W0.check_witness pat w = Some true)
    | _ -> ());
    let decided r = status r = Some "sat" || status r = Some "unsat" in
    if i >= 48 && decided (Hashtbl.find replies (i - 48)) then
      check ("cached repeat " ^ pat) true (Jsonin.bool_member "cached" r = Some true)
  done

let suite =
  ( "service",
    [
      Alcotest.test_case "jsonin round-trip" `Quick test_jsonin
    ; Alcotest.test_case "request parsing" `Quick test_parse_request
    ; Alcotest.test_case "match request parsing" `Quick test_parse_match_request
    ; Alcotest.test_case "batch envelope parsing" `Quick test_parse_batch
    ; Alcotest.test_case "draining line reader" `Quick test_lines_reader
    ; Alcotest.test_case "sched backpressure" `Quick test_sched_backpressure
    ; Alcotest.test_case "sched spill-over" `Quick test_sched_spill
    ; Alcotest.test_case "sched steal stress" `Quick test_sched_steal_stress
    ; Alcotest.test_case "lru accounting" `Quick test_lru
    ; Alcotest.test_case "lru shard layout" `Quick test_lru_shards
    ; Alcotest.test_case "lru sharded stress" `Quick test_lru_sharded_stress
    ; Alcotest.test_case "canonical cache keys" `Quick test_worker_keys
    ; Alcotest.test_case "worker witness validation" `Quick test_worker_witness
    ; Alcotest.test_case "session round-trip" `Quick test_session_roundtrip
    ; Alcotest.test_case "batch round-trip" `Quick test_batch_roundtrip
    ; Alcotest.test_case "batch robustness" `Quick test_batch_robustness
    ; Alcotest.test_case "analyze op" `Quick test_analyze_op
    ; Alcotest.test_case "contain ops" `Quick test_contain_op
    ; Alcotest.test_case "contain request budget" `Quick test_contain_budget
    ; Alcotest.test_case "deadline isolation" `Quick test_deadline_isolation
    ; Alcotest.test_case "pool vs sequential agreement" `Quick
        test_pool_agreement
    ] )
