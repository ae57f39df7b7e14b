(* Tests for the concurrent solver service (lib/service, DESIGN.md §9,
   §17): wire-protocol parsing (including batch envelopes), a full
   session round-trip over pipes (including malformed input,
   per-request deadlines, batch robustness and batch chunking), the
   pool's shared queue (FIFO order, backpressure, drain, many workers),
   sharded-LRU accounting under multi-domain churn, and
   pool-vs-sequential agreement with reference-matcher witness
   validation. *)

module Obs = Sbd_obs.Obs
module J = Obs.Json
module Jsonin = Sbd_service.Jsonin
module Protocol = Sbd_service.Protocol
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

(* -- pool queue: FIFO, backpressure, drain ------------------------------- *)

(* A gate that [wait]s until [release]d. *)
let gate () =
  let m = Mutex.create () and c = Condition.create () and opened = ref false in
  let wait () =
    Mutex.protect m (fun () -> while not !opened do Condition.wait c m done)
  in
  let release () =
    Mutex.protect m (fun () ->
        opened := true;
        Condition.broadcast c)
  in
  (wait, release)

let spin_until p =
  while not (p ()) do
    Unix.sleepf 0.001
  done

(* Occupy both workers of a 2-worker pool with jobs that block on their
   own gate, and run [f] with the two release functions once both are
   running.  The gates are opened when [f] ends, so a failing check
   cannot leave the pool unjoinable. *)
let with_blocked_workers pool f =
  let started = Atomic.make 0 in
  let gates = List.init 2 (fun _ -> gate ()) in
  List.iter
    (fun (wait, _) ->
      (* a 1-slot queue refuses the second blocker until a worker takes
         the first *)
      spin_until (fun () ->
          Pool.submit pool (fun _ ->
              Atomic.incr started;
              wait ())))
    gates;
  spin_until (fun () -> Atomic.get started = 2);
  let releases = List.map snd gates in
  Fun.protect
    ~finally:(fun () -> List.iter (fun release -> release ()) releases)
    (fun () -> f releases)

let pool_stat pool name = List.assoc name (Pool.stats pool)

let test_pool_backpressure () =
  let cap = 4 in
  let pool = Pool.create ~workers:2 ~queue_cap:cap () in
  let ran = ref [] and ran_mutex = Mutex.create () in
  with_blocked_workers pool (fun releases ->
      for i = 1 to cap do
        check "within cap accepted" true
          (Pool.submit pool (fun _ ->
               Mutex.protect ran_mutex (fun () -> ran := i :: !ran)))
      done;
      check "submit at queue_cap refused" false (Pool.submit pool (fun _ -> ()));
      check_int "queue full" cap (Pool.queue_length pool);
      (* close while the jobs are still queued: the workers run them
         before they stop *)
      let closer = Thread.create Pool.shutdown pool in
      Unix.sleepf 0.01;
      (* only one worker is freed, so the run order is the queue order *)
      List.hd releases ();
      spin_until (fun () ->
          Mutex.protect ran_mutex (fun () -> List.length !ran = cap));
      closer)
  |> Thread.join;
  check "FIFO order" true (List.rev !ran = List.init cap (fun i -> i + 1));
  check "submit after close refused" false (Pool.submit pool (fun _ -> ()));
  check "rejections counted" true (pool_stat pool "service.pool.rejected" = 2.0);
  check "nothing pending" true (pool_stat pool "service.pool.pending" = 0.0)

(* Producer domains race on a small queue (retrying on refusal) while
   three workers consume; shutdown closes with jobs possibly queued.
   Every job must run exactly once. *)
let test_pool_stress () =
  let n = 2_000 and producers = 3 in
  let pool = Pool.create ~workers:3 ~queue_cap:16 () in
  let runs = Array.init n (fun _ -> Atomic.make 0) in
  let refused = Atomic.make 0 in
  let domains =
    List.init producers (fun p ->
        Domain.spawn (fun () ->
            let i = ref p in
            while !i < n do
              let k = !i in
              if Pool.submit pool (fun _ -> Atomic.incr runs.(k)) then
                i := !i + producers
              else begin
                Atomic.incr refused;
                Unix.sleepf 1e-4
              end
            done))
  in
  List.iter Domain.join domains;
  Pool.shutdown pool;
  check "every job ran exactly once" true
    (Array.for_all (fun a -> Atomic.get a = 1) runs);
  check "submit after shutdown refused" false (Pool.submit pool (fun _ -> ()));
  check "processed" true (pool_stat pool "service.pool.processed" = float_of_int n);
  check "rejections counted" true
    (pool_stat pool "service.pool.rejected" = float_of_int (Atomic.get refused + 1));
  check_int "drained empty" 0 (Pool.queue_length pool)

(* [drain] must not return while an accepted job has left the queue but
   not yet finished.  The first rounds run jobs that sleep; the later,
   instant ones make [drain] race the hand-off from queue to worker. *)
let test_pool_drain () =
  let pool = Pool.create ~workers:2 ~queue_cap:8 () in
  let finished = Atomic.make 0 and accepted = ref 0 in
  for round = 1 to 1000 do
    for _ = 1 to 2 do
      if
        Pool.submit pool (fun _ ->
            if round <= 10 then Unix.sleepf 0.003;
            Atomic.incr finished)
      then incr accepted
    done;
    Pool.drain pool;
    check_int "every accepted job finished" !accepted (Atomic.get finished)
  done;
  check_int "all accepted" 2000 !accepted;
  Pool.shutdown pool

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

(* -- one derivative tower per worker --------------------------------------- *)

(* [Default.Make] applies [Deriv.Make] and [Absdom.Make] once and hands
   them to every layer: a derivative the solver computed is a memo hit
   when the prover steps the same regex, and one [clear] empties every
   memo of the tower. *)
let test_one_tower () =
  let module B = Sbd_alphabet.Bdd.Make () in
  let module T = Sbd_service.Default.Make (Sbd_regex.Regex.Make (B)) in
  let parse p =
    match T.P.parse p with Ok r -> r | Error _ -> Alcotest.fail p
  in
  let counter name =
    Option.value ~default:0.0 (List.assoc_opt name (Obs.snapshot ()))
  in
  Obs.set_enabled true;
  (* the length abstraction decides a{2}&a{3} before any search *)
  let session = T.S.create_session () in
  (match T.S.solve session (parse "a{2}&a{3}") with
  | T.S.Unsat -> ()
  | _ -> Alcotest.fail "length conflict must be unsat");
  check_int "presolve fired" 1 session.T.S.presolve_hits;
  check "presolve verdict memoized" true (Hashtbl.length T.Ab.verdict_memo > 0);
  check_int "abstract gauge counts summaries and verdicts"
    (Hashtbl.length T.Ab.memo + Hashtbl.length T.Ab.verdict_memo)
    (T.Ab.memo_entries ());
  (* the solver expands both sides; the prover's first step then derives
     them again and must only hit the shared memo *)
  let l = parse "(ab)+" and r = parse "a(a|b)*" in
  List.iter
    (fun x -> ignore (T.S.solve ~presolve:false session x : T.S.result))
    [ l; r ];
  let hits0 = counter "deriv.delta.memo_hit"
  and misses0 = counter "deriv.delta.memo_miss" in
  (match T.C.subset ~budget:1 ~presolve:false T.csession l r with
  | T.C.Unknown _ -> ()
  | _ -> Alcotest.fail "one pair expansion cannot decide (ab)+ <= a(a|b)*");
  check "prover stepped the solver's derivatives" true
    (counter "deriv.delta.memo_hit" > hits0);
  check "no derivative computed twice" true
    (counter "deriv.delta.memo_miss" = misses0);
  (match T.C.subset ~presolve:false T.csession l r with
  | T.C.Proved -> ()
  | _ -> Alcotest.fail "(ab)+ <= a(a|b)* must be proved");
  ignore (T.An.analyze (parse "(a|b)*&~(.*c.*)|ab") : T.An.report);
  let tables =
    [
      ("deriv", T.D.memo_entries ());
      ("absdom", T.Ab.memo_entries ());
      ("contain", T.C.memo_entries T.csession);
      ("analyze", T.An.memo_entries ());
    ]
  in
  List.iter (fun (name, n) -> check (name ^ " memo filled") true (n > 0)) tables;
  check_int "tower gauge sums every layer"
    (List.fold_left (fun acc (_, n) -> acc + n) 0 tables)
    (T.memo_entries ());
  T.clear ();
  check_int "one clear empties the tower" 0 (T.memo_entries ());
  check_int "verdict memo cleared" 0 (Hashtbl.length T.Ab.verdict_memo);
  match T.S.solve session (parse "a{2}&a{3}") with
  | T.S.Unsat -> ()
  | _ -> Alcotest.fail "answers survive a clear"

(* A worker over its memo cap clears its whole tower after each query. *)
let test_worker_memo_cap () =
  let (module W) = Worker.create ~memo_cap:0 () in
  let after what = function
    | Ok _ -> check_int (what ^ " leaves no memo") 0 (W.memo_entries ())
    | Error msg -> Alcotest.fail msg
  in
  after "solve" (W.solve_pattern "(ab)+&~(.*b.*b.*)");
  after "subset" (W.contain_pattern ~equiv:false "(ab)*a" "a(ba)*");
  after "analyze" (W.analyze_pattern "(a|b)*&~(.*c.*)|ab");
  after "smt2"
    (W.run_smt2
       "(declare-const s String)(assert (str.in_re s (re.+ (str.to_re \"ab\"))))(check-sat)");
  let (module W2) = Worker.create () in
  ignore (W2.solve_pattern "(ab)+&~(.*b.*b.*)");
  check "below the cap the memos stay" true (W2.memo_entries () > 0);
  check "no clear below the cap" false (W2.relieve_pressure ())

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
   protocol over two pipes, exactly as a socket client would see it.
   Unless [stop_pool] is false (a second session on the same server),
   the pool is shut down when the session ends; an exception from that
   (a worker domain that died) fails the test. *)
let with_server ?(stop_pool = true) t f =
  let req_r, req_w = Unix.pipe ~cloexec:true () in
  let resp_r, resp_w = Unix.pipe ~cloexec:true () in
  let shutdown_error = ref None in
  let srv =
    Thread.create
      (fun () ->
        let ic = Unix.in_channel_of_descr req_r in
        let oc = Unix.out_channel_of_descr resp_w in
        ignore (Server.serve_channel t ic oc);
        (if stop_pool then
           try Pool.shutdown t.Server.pool
           with e -> shutdown_error := Some (Printexc.to_string e));
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
  let result =
    Fun.protect
      ~finally:(fun () ->
        close_out_noerr out;
        Thread.join srv;
        close_in_noerr inp)
      (fun () -> f ~send ~recv)
  in
  Option.iter (Alcotest.failf "Pool.shutdown raised %s") !shutdown_error;
  result

let with_session cfg f = with_server (Server.create cfg) f

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
      (* zero-width parts that simplify away leave a plain pattern: it
         is matched as [a] and [x], not re-read by the plain grammar *)
      send {|{"id": "m3", "op": "match", "re": "(?=b){0}a", "input": "a"}|};
      let r = recv () in
      check "(?=b){0}a full" true (Jsonin.bool_member "full" r = Some true);
      check "(?=b){0}a span [0,1)" true
        (Jsonin.member "span" r = Some (J.Arr [ J.Int 0; J.Int 1 ]));
      send {|{"id": "m4", "op": "match", "re": "x(?<=q){0}", "input": "yxz"}|};
      let r = recv () in
      check "x(?<=q){0} not full" true (Jsonin.bool_member "full" r = Some false);
      check "x(?<=q){0} span [1,2)" true
        (Jsonin.member "span" r = Some (J.Arr [ J.Int 1; J.Int 2 ]));
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

(* Receive [n] replies and index them by their string id; each id must
   appear once. *)
let recv_ids recv n =
  let replies = Hashtbl.create n in
  for _ = 1 to n do
    let r = recv () in
    match[@warning "-4"] Jsonin.member "id" r with
    | Some (J.Str id) ->
      check ("answered once: " ^ id) false (Hashtbl.mem replies id);
      Hashtbl.add replies id r
    | _ -> Alcotest.fail "reply without a string id"
  done;
  fun id ->
    match Hashtbl.find_opt replies id with
    | Some r -> r
    | None -> Alcotest.fail ("no response for id " ^ id)

let test_batch_chunks () =
  check "chunks of a batch" true
    (Server.chunks 2 [ 1; 2; 3; 4; 5 ] = [ [ 1; 2; 3 ]; [ 4; 5 ] ]
    && Server.chunks 4 [ 1; 2; 3; 4; 5 ] = [ [ 1; 2 ]; [ 3; 4 ]; [ 5 ] ]
    && Server.chunks 3 [ 1 ] = [ [ 1 ] ]
    && Server.chunks 2 [] = []);
  (* five pool-bound members on two workers: two chunks, two pool jobs;
     the reader answers the assert and the bad member itself *)
  let t = Server.create small_cfg in
  with_server t (fun ~send ~recv ->
      send
        {|{"op":"batch","reqs":[{"id":"s1","op":"solve","re":"ab*c"},{"id":"s2","op":"solve","re":"a{2}&a{3}"},{"id":"a","op":"assert","re":"x"},{"id":"s3","op":"match","re":"ab*c","input":"xxabbbcyy"},{"id":"bad","op":"frobnicate"},{"id":"s4","op":"subset","re":"a","re2":"a*"},{"id":"s5","op":"solve","re":"[0-9]{3}"}]}|};
      let by_id = recv_ids recv 7 in
      check "s1 sat" true (status (by_id "s1") = Some "sat");
      check "s2 unsat" true (status (by_id "s2") = Some "unsat");
      check "assert ok" true (status (by_id "a") = Some "ok");
      check "s3 span" true
        (Jsonin.member "span" (by_id "s3") = Some (J.Arr [ J.Int 2; J.Int 7 ]));
      check "bad member error" true (Jsonin.str_member "error" (by_id "bad") <> None);
      check "s4 proved" true (status (by_id "s4") = Some "proved");
      check "s5 sat" true (status (by_id "s5") = Some "sat");
      send {|{"id":"end","op":"shutdown"}|};
      ignore (recv ()));
  check "one pool job per chunk" true
    (pool_stat t.Server.pool "service.pool.processed" = 2.0)

(* A full queue answers [overloaded] at once, and the queued request is
   still answered once the workers free up. *)
let test_overloaded_reply () =
  let t = Server.create { small_cfg with queue_cap = 1 } in
  with_server t (fun ~send ~recv ->
      with_blocked_workers t.Server.pool (fun _ ->
          send {|{"id":"queued","op":"solve","re":"ab*c"}|};
          send {|{"id":"shed","op":"solve","re":"a|b"}|};
          let r = recv () in
          check "shed request answered first" true
            (Jsonin.member "id" r = Some (J.Str "shed"));
          check_str "overloaded" "overloaded"
            (Option.value (Jsonin.str_member "error" r) ~default:"<none>"));
      let r = recv () in
      check "queued request answered" true
        (Jsonin.member "id" r = Some (J.Str "queued") && status r = Some "sat");
      send {|{"id":"end","op":"shutdown"}|};
      ignore (recv ()))

(* 63 workers, one domain each: every request is answered and the pool
   joins cleanly.  [max 1] is the only clamp on the worker count. *)
let test_many_workers () =
  let t = Server.create { small_cfg with workers = 63 } in
  check_int "63 workers" 63 t.Server.pool.Pool.workers;
  with_server t (fun ~send ~recv ->
      send {|{"id":"a","op":"solve","re":"ab*c"}|};
      send {|{"id":"b","op":"solve","re":"a{2}&a{3}"}|};
      send {|{"id":"c","op":"match","re":"b+","input":"abbc"}|};
      let by_id = recv_ids recv 3 in
      check "a sat" true (status (by_id "a") = Some "sat");
      check "b unsat" true (status (by_id "b") = Some "unsat");
      check "c matched" true (Jsonin.bool_member "matched" (by_id "c") = Some true);
      send {|{"id":"end","op":"shutdown"}|};
      check "drained" true (Jsonin.bool_member "drained" (recv ()) = Some true));
  check_int "workers floor at 1" 1 (Pool.create ~workers:0 ~queue_cap:1 ()).Pool.workers

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

(* Independent oracle for match verdicts: segment the input as the
   engine does (lossy UTF-8 scalars with their byte offsets), then ask
   the reference matcher for the full-match flag and, by brute force
   over scalar boundaries, the leftmost-earliest span.  Cubic calls to
   a cubic matcher: test-sized inputs only.  [None] on a parse error. *)
let match_ref ~pattern ~input =
  let module Ref = Sbd_service.Default.Ref in
  match Sbd_service.Default.P.parse pattern with
  | Error _ -> None
  | Ok r ->
    let n = String.length input in
    let rec seg i offs cps =
      if i >= n then (Array.of_list (List.rev (i :: offs)), Array.of_list (List.rev cps))
      else
        let cp, i' = Sbd_engine.Byteclass.scalar_forward input i n in
        seg i' (i :: offs) (cp :: cps)
    in
    let offs, cps = seg 0 [] [] in
    let k = Array.length cps in
    let matches i j = Ref.matches r (Array.to_list (Array.sub cps i (j - i))) in
    let rec span i j =
      if i > k then None
      else if j > k then span (i + 1) (i + 1)
      else if matches i j then Some (offs.(i), offs.(j))
      else span i (j + 1)
    in
    Some (matches 0 k, span 0 0)

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
          match match_ref ~pattern ~input with
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

(* -- generational workers ------------------------------------------------- *)

let memo_clears () =
  Option.value ~default:0.0
    (List.assoc_opt "service.worker.memo_clears" (Obs.snapshot ()))

(* A fixed slice of the Fig. 4 suites and of the containment pairs: each
   op brings first-seen patterns, so a small cap retires a generation
   after every op. *)
type gen_case = Solve of string | Contain of bool * string * string

let generation_cases =
  lazy
    (let every k l = List.filteri (fun i _ -> i mod k = 0) l in
     List.map
       (fun (i : Sbd_benchgen.Instance.t) -> Solve i.Sbd_benchgen.Instance.pattern)
       (every 40 (Sbd_benchgen.Standard.all ()))
     @ List.map
         (fun (p : Sbd_benchgen.Pairs.t) ->
           Contain (p.Sbd_benchgen.Pairs.mode = Sbd_benchgen.Pairs.Equiv,
                    p.Sbd_benchgen.Pairs.left, p.Sbd_benchgen.Pairs.right))
         (every 6 (Sbd_benchgen.Pairs.all ())))

let case_name = function
  | Solve p -> p
  | Contain (equiv, l, r) -> Printf.sprintf "%s %s %s" l (if equiv then "==" else "<=") r

let run_case (module W : Worker.WORKER) = function
  | Solve p -> W.solve_pattern ~budget:200_000 p
  | Contain (equiv, l, r) -> W.contain_pattern ~equiv l r

(* A refutation's word is in the left language and not the right one
   (either way round for equiv); a solve witness matches the pattern. *)
let witness_valid (module W : Worker.WORKER) case w =
  match case with
  | Solve p -> W.check_witness p w = Some true
  | Contain (equiv, l, r) -> (
    match (W.check_witness l w, W.check_witness r w) with
    | Some a, Some b -> if equiv then a <> b else a && not b
    | _ -> false)

let status_of_verdict = function
  | Protocol.Sat _ -> "sat"
  | Protocol.Unsat -> "unsat"
  | Protocol.Unknown _ -> "unknown"

(* Same verdicts as a default-cap worker, every witness valid, the gauge
   back under the cap after every op, a new generation after every op,
   and the query count carried across generations. *)
let test_worker_generations () =
  let cap = 2 in
  let (module Ref) = Worker.create () in
  let (module W) = Worker.create ~memo_cap:cap () in
  let cases = Lazy.force generation_cases in
  let expected =
    List.map
      (fun c ->
        match run_case (module Ref) c with
        | Ok (v, _) -> status_of_verdict v
        | Error msg -> Alcotest.fail msg)
      cases
  in
  List.iteri
    (fun i (c, want) ->
      let before = memo_clears () in
      (match run_case (module W) c with
      | Ok (v, _) ->
        check_str ("verdict " ^ case_name c) want (status_of_verdict v);
        (match v with
        | Protocol.Sat { codepoints; _ } ->
          check ("witness " ^ case_name c) true
            (witness_valid (module Ref) c codepoints)
        | Protocol.Unsat | Protocol.Unknown _ -> ())
      | Error msg -> Alcotest.fail msg);
      check ("gauge under the cap after " ^ case_name c) true
        (W.memo_entries () <= cap);
      check ("new generation after " ^ case_name c) true (memo_clears () > before);
      check_int "queries carried across generations" (i + 1) (W.queries ()))
    (List.combine cases expected);
  (* the same list through a server session, inline and pooled *)
  List.iter
    (fun workers ->
      let cfg = { small_cfg with workers; memo_cap = cap; default_deadline = None } in
      let before = memo_clears () in
      with_session cfg (fun ~send ~recv ->
          List.iteri
            (fun i (c, want) ->
              let fields =
                match c with
                | Solve p -> [ ("op", J.Str "solve"); ("re", J.Str p); ("budget", J.Int 200_000) ]
                | Contain (equiv, l, r) ->
                  [ ("op", J.Str (if equiv then "equiv" else "subset"));
                    ("re", J.Str l); ("re2", J.Str r) ]
              in
              send (J.to_string (J.Obj (("id", J.Int i) :: fields)));
              let r = recv () in
              let got =
                match status r with
                | Some ("sat" | "refuted") -> "sat"
                | Some ("unsat" | "proved") -> "unsat"
                | Some s -> s
                | None -> Alcotest.fail ("no status for " ^ case_name c)
              in
              check_str
                (Printf.sprintf "%d-worker verdict %s" workers (case_name c))
                want got;
              match Jsonin.str_member "witness" r with
              | Some w ->
                check ("server witness " ^ case_name c) true
                  (witness_valid (module Ref) c (decode_witness w))
              | None -> ())
            (List.combine cases expected);
          send {|{"id": 0, "op": "shutdown"}|};
          ignore (recv ()));
      check (Printf.sprintf "%d-worker session retired generations" workers) true
        (memo_clears () > before))
    [ 1; 2 ]

(* Match-only traffic grows a generation too: Dfa rows intern
   derivatives over the tower's [R], located patterns intern [LR]
   terms.  The post-op check retires it, and answers stay right. *)
let test_match_generations () =
  let cap = 64 in
  let (module Ref) = Worker.create () in
  let (module W) = Worker.create ~memo_cap:cap () in
  let before = memo_clears () in
  for i = 1 to 40 do
    let plain = Printf.sprintf "(ab|c{%d})*d" i
    and located = Printf.sprintf "^a{%d}(?=b)" (1 + (i mod 7))
    and input = String.concat "" [ "xx"; String.make (1 + (i mod 7)) 'a'; "bcd" ] in
    (match (W.match_input ~pattern:plain ~input (), match_ref ~pattern:plain ~input) with
    | Ok (Protocol.Matched { full; span; _ }, _), Some (full', span') ->
      check ("full " ^ plain) full' full;
      check ("span " ^ plain) true (span = span')
    | _ -> Alcotest.fail ("no match verdict for " ^ plain));
    (match
       (W.match_input ~pattern:located ~input (),
        Ref.match_input ~pattern:located ~input ())
     with
    | Ok (v, _), Ok (v', _) -> check ("located " ^ located) true (v = v')
    | _ -> Alcotest.fail ("no match verdict for " ^ located));
    check "gauge under the cap" true (W.memo_entries () <= cap)
  done;
  check "match-only worker retired generations" true (memo_clears () > before);
  check_int "queries carried across generations" 80 (W.queries ())

(* -- line reader: chunk boundaries, long lines, allocation ---------------- *)

(* Every burst [Lines.read] returns for the bytes of [data], until EOF. *)
let read_all_lines data =
  let path = Filename.temp_file "sbd_lines" ".txt" in
  let oc = open_out_bin path in
  output_string oc data;
  close_out oc;
  let ic = open_in_bin path in
  let t = Jsonin.Lines.create ic in
  let rec go acc =
    match Jsonin.Lines.read t with
    | Some lines -> go (List.rev_append lines acc)
    | None -> List.rev acc
  in
  let lines = Fun.protect ~finally:(fun () -> close_in ic) (fun () -> go []) in
  Sys.remove path;
  lines

let test_lines_chunks () =
  let chunk = Jsonin.Lines.chunk in
  let lines = Alcotest.(list string) in
  (* a 1 MB line spans many chunks, with short lines either side *)
  let big = String.init (1 lsl 20) (fun i -> Char.chr (97 + (i mod 26))) in
  Alcotest.check lines "1 MB line" [ "a"; big; "b" ]
    (read_all_lines ("a\n" ^ big ^ "\nb\n"));
  (* several lines arrive in one chunk *)
  Alcotest.check lines "many lines in one chunk"
    (List.init 100 string_of_int)
    (read_all_lines
       (String.concat "" (List.init 100 (fun i -> string_of_int i ^ "\n"))));
  (* the newline is the last byte of a chunk, then the first of the
     next *)
  let edge = String.make (chunk - 1) 'x' in
  Alcotest.check lines "newline ends a chunk" [ edge; "y" ]
    (read_all_lines (edge ^ "\ny\n"));
  let full = String.make chunk 'x' in
  Alcotest.check lines "newline starts a chunk" [ full; "y" ]
    (read_all_lines (full ^ "\ny"));
  Alcotest.check lines "line of exactly two chunks" [ full ^ full ]
    (read_all_lines (full ^ full ^ "\n"));
  (* empty lines and '\r' are kept; the unterminated tail arrives at
     EOF *)
  Alcotest.check lines "empty lines, CRLF, tail"
    [ ""; "a\r"; ""; "b\r"; "tail" ]
    (read_all_lines "\na\r\n\nb\r\ntail");
  Alcotest.check lines "empty input" [] (read_all_lines "");
  Alcotest.check lines "lone newline" [ "" ] (read_all_lines "\n");
  (* a long unterminated tail *)
  Alcotest.check lines "long tail" [ "x"; big ] (read_all_lines ("x\n" ^ big));
  (* a line handed out in the line buffer itself stays as it was while
     a shorter long line follows *)
  let shorter = String.make 300_000 'z' in
  Alcotest.check lines "two long lines" [ big; shorter; "c" ]
    (read_all_lines (big ^ "\n" ^ shorter ^ "\nc\n"))

(* Reading one 4 MB line allocates a small multiple of its size, not
   one copy of the pending bytes per chunk read. *)
let test_lines_allocation () =
  let size = 4 lsl 20 in
  let path = Filename.temp_file "sbd_lines" ".txt" in
  let oc = open_out_bin path in
  output_string oc (String.make size 'q');
  output_char oc '\n';
  close_out oc;
  let ic = open_in_bin path in
  let t = Jsonin.Lines.create ic in
  let before = Gc.allocated_bytes () in
  let got = Jsonin.Lines.read t in
  let allocated = Gc.allocated_bytes () -. before in
  check "eof" true (Jsonin.Lines.read t = None);
  close_in ic;
  Sys.remove path;
  (match got with
  | Some [ line ] -> check_int "line length" size (String.length line)
  | _ -> Alcotest.fail "expected one line");
  check
    (Printf.sprintf "allocated %.0f bytes for a %d-byte line" allocated size)
    true
    (allocated < 4.0 *. float_of_int size)

(* -- JSON strings: round trip and pinned errors -------------------------- *)

let test_json_strings () =
  let rand = Random.State.make [| 19 |] in
  let parse_str text =
    match Jsonin.parse text with
    | Ok (J.Str s) -> s
    | Ok _ -> Alcotest.fail ("not a string: " ^ text)
    | Error msg -> Alcotest.fail (Printf.sprintf "%S: %s" text msg)
  in
  (* whatever bytes the builder escapes, the reader restores *)
  let interesting = "\"\\/\b\012\n\r\t\000\031\127 az\xc3\xa9\xe4\xb8\xad\xf0\x9f\x98\x80\xff" in
  for _ = 1 to 2000 do
    let n = Random.State.int rand 40 in
    let s =
      String.init n (fun _ ->
          if Random.State.bool rand then
            interesting.[Random.State.int rand (String.length interesting)]
          else Char.chr (Random.State.int rand 256))
    in
    check_str (Printf.sprintf "round trip %S" s) s
      (parse_str (J.to_string (J.Str s)))
  done;
  (* every escape form, against the UTF-8 it must decode to *)
  let utf8 cp =
    let b = Buffer.create 4 in
    Buffer.add_utf_8_uchar b (Uchar.of_int cp);
    Buffer.contents b
  in
  for _ = 1 to 2000 do
    let text = Buffer.create 64 and want = Buffer.create 64 in
    for _ = 1 to Random.State.int rand 12 do
      match Random.State.int rand 6 with
      | 0 ->
        let e, c =
          [| ("\\\"", "\""); ("\\\\", "\\"); ("\\/", "/"); ("\\b", "\b");
             ("\\f", "\012"); ("\\n", "\n"); ("\\r", "\r"); ("\\t", "\t") |].(
            Random.State.int rand 8)
        in
        Buffer.add_string text e;
        Buffer.add_string want c
      | 1 ->
        (* a BMP \u escape outside the surrogate block *)
        let cp = Random.State.int rand 0xF800 in
        let cp = if cp >= 0xD800 then cp + 0x800 else cp in
        Buffer.add_string text (Printf.sprintf "\\u%04x" cp);
        Buffer.add_string want (utf8 cp)
      | 2 ->
        (* an astral code point as a surrogate pair *)
        let cp = 0x10000 + Random.State.int rand 0x100000 in
        let v = cp - 0x10000 in
        Buffer.add_string text
          (Printf.sprintf "\\u%04X\\u%04X" (0xD800 + (v lsr 10))
             (0xDC00 + (v land 0x3FF)));
        Buffer.add_string want (utf8 cp)
      | 3 ->
        (* raw control bytes are accepted verbatim *)
        let c = String.make 1 (Char.chr (Random.State.int rand 0x20)) in
        Buffer.add_string text c;
        Buffer.add_string want c
      | 4 ->
        let c = utf8 (0x80 + Random.State.int rand 0xD000) in
        Buffer.add_string text c;
        Buffer.add_string want c
      | _ ->
        let c = String.make (1 + Random.State.int rand 5) 'k' in
        Buffer.add_string text c;
        Buffer.add_string want c
    done;
    let text = "\"" ^ Buffer.contents text ^ "\"" in
    check_str (Printf.sprintf "escapes %S" text) (Buffer.contents want)
      (parse_str text)
  done;
  (* error messages and offsets, pinned *)
  List.iter
    (fun (text, want) ->
      match Jsonin.parse text with
      | Ok _ -> Alcotest.fail (Printf.sprintf "%S accepted" text)
      | Error msg -> check_str (Printf.sprintf "error for %S" text) want msg)
    [
      ({|{"a": "abc|}, "unterminated string at offset 10");
      ({|"ab\|}, "truncated escape at offset 4");
      ({|"ab\q"|}, "invalid escape at offset 5");
      ({|"\u12G4"|}, "invalid hex digit in \\u escape at offset 3");
      ({|"\u12"|}, "truncated \\u escape at offset 3");
      ({|"\uD800\u0041"|}, "invalid surrogate pair at offset 13");
      ({|["x", "y\|}, "truncated escape at offset 9");
    ]

(* -- in-place parsing and line views ---------------------------------------- *)

(* A random JSON value: nested objects and arrays, strings with every
   escape the builder writes, numbers, booleans, null. *)
let rec random_json rand depth =
  match Random.State.int rand (if depth > 3 then 4 else 6) with
  | 0 ->
    let bytes = "ab\"\\/\n\r\t\000\031\xc3\xa9 {}[],:" in
    J.Str
      (String.init (Random.State.int rand 12) (fun _ ->
           bytes.[Random.State.int rand (String.length bytes)]))
  | 1 -> J.Int (Random.State.int rand 2000 - 1000)
  | 2 -> J.Bool (Random.State.bool rand)
  | 3 -> J.Null
  | 4 ->
    J.Obj
      (List.init (Random.State.int rand 4) (fun i ->
           (Printf.sprintf "k%d" i, random_json rand (depth + 1))))
  | _ -> J.Arr (List.init (Random.State.int rand 4) (fun _ -> random_json rand (depth + 1)))

(* [parse_sub] on a view agrees with [parse] on the same bytes as a
   string of their own, answers and error offsets alike, whatever lies
   outside the view: garbage that would be a parse error, trailing
   tokens, or the rest of a document. *)
let test_parse_sub () =
  let rand = Random.State.make [| 26 |] in
  let garbage () =
    String.init (Random.State.int rand 6) (fun _ ->
        "\"\\{}[]:, x0\n\xff".[Random.State.int rand 13])
  in
  for _ = 1 to 2000 do
    let doc = J.to_string (random_json rand 0) in
    let doc =
      match Random.State.int rand 4 with
      | 0 -> String.sub doc 0 (Random.State.int rand (String.length doc + 1))
      | 1 -> " \r\n" ^ doc ^ "\t "
      | _ -> doc
    in
    let pre = garbage () and post = garbage () in
    let src = pre ^ doc ^ post in
    let want = Jsonin.parse doc in
    let got = Jsonin.parse_sub src (String.length pre) (String.length doc) in
    if want <> got then Alcotest.failf "parse_sub disagrees on %S inside %S" doc src;
    check (Printf.sprintf "request %S" doc) true
      (Protocol.parse_request doc
      = Protocol.parse_request_sub src (String.length pre) (String.length doc))
  done;
  check "an error offset counts from the view" true
    (Jsonin.parse_sub "xx{\"a\": }yy" 2 7 = Error "unexpected character '}' at offset 6");
  check "trailing garbage offset" true
    (Jsonin.parse_sub "[1] 2[3] 4" 4 5 = Error "trailing garbage at offset 1");
  check "bytes past the view are not read" true
    (Jsonin.parse_sub "\"abc\"" 0 4 = Error "unterminated string at offset 4");
  Alcotest.check_raises "a view outside the string" (Invalid_argument "Jsonin.parse_sub")
    (fun () -> ignore (Jsonin.parse_sub "{}" 1 2))

(* Every line [Lines.read_views] delivers for [data], read back from
   its views after each read returns, grouped by read. *)
let read_view_bursts data =
  let path = Filename.temp_file "sbd_views" ".txt" in
  Out_channel.with_open_bin path (fun oc -> output_string oc data);
  let ic = open_in_bin path in
  let t = Jsonin.Lines.create ic in
  let rec go acc =
    let views = ref [] in
    if Jsonin.Lines.read_views t (fun s off len -> views := (s, off, len) :: !views) then
      go (List.rev_map (fun (s, off, len) -> String.sub s off len) !views :: acc)
    else List.rev acc
  in
  let bursts = Fun.protect ~finally:(fun () -> close_in ic) (fun () -> go []) in
  Sys.remove path;
  bursts

(* Long lines through both paths of the reader (a line longer than the
   line buffer, which is assembled from spilled chunks, and one that
   fits it, read straight in), each followed by short lines that
   arrive in the same read; the views stay valid until the next read. *)
let test_line_views () =
  let lines = Alcotest.(list string) in
  let long n c = String.make n c in
  let data =
    [ "s0"; long 200_000 'a'; "s1"; "s2"; long 300_000 'b'; "s3"; long 150_000 'c'; "s4"; "s5";
      long 65_536 'd'; "s6"; long 65_535 'e'; ""; "s7" ]
  in
  let bursts = read_view_bursts (String.concat "\n" data ^ "\n") in
  Alcotest.check lines "every line, in order" data (List.concat bursts);
  List.iter
    (fun (first, next) ->
      check
        (Printf.sprintf "%S arrives with its long line" next)
        true
        (List.exists (fun b -> List.mem first b && List.mem next b) bursts))
    [ (long 200_000 'a', "s2"); (long 300_000 'b', "s3"); (long 150_000 'c', "s5") ];
  (* the unterminated tail of both paths *)
  Alcotest.check lines "long tail past the buffer" [ "x"; long 100_000 'f' ]
    (List.concat (read_view_bursts ("x\n" ^ long 100_000 'f')));
  Alcotest.check lines "long tail in the buffer"
    [ long 100_000 'g'; long 90_000 'h' ]
    (List.concat (read_view_bursts (long 100_000 'g' ^ "\n" ^ long 90_000 'h')))

(* Escapes split by every 64 KB chunk edge: a match line whose input
   has a \u surrogate pair, a \uXXXX escape and the two-byte escapes
   at the edge, shifted over every offset of the sequence, read
   through the line reader and parsed in place. *)
let test_escapes_at_chunk_edges () =
  let chunk = Jsonin.Lines.chunk in
  let escapes = {|😀é\\\"\/\n|} in
  let decoded = "\xf0\x9f\x98\x80\xc3\xa9\\\"/\n" in
  List.iter
    (fun edge ->
      for shift = 0 to String.length escapes do
        let head = {|{"id":1,"op":"match","re":"x+","input":"|} in
        (* a short line first, so the long line starts mid-chunk *)
        let first = {|{"id":0,"op":"stats"}|} ^ "\n" in
        let pad = edge - String.length first - String.length head - String.length escapes + shift in
        let body = String.make pad 'x' ^ escapes ^ String.make 5000 'y' in
        let line = head ^ body ^ {|"}|} in
        let want = String.make pad 'x' ^ decoded ^ String.make 5000 'y' in
        let got = ref [] in
        let path = Filename.temp_file "sbd_edges" ".txt" in
        Out_channel.with_open_bin path (fun oc ->
            output_string oc first;
            output_string oc line;
            output_string oc "\r\n");
        let ic = open_in_bin path in
        let t = Jsonin.Lines.create ic in
        while
          Jsonin.Lines.read_views t (fun s off len ->
              got := Protocol.parse_request_sub s off len :: !got)
        do
          ()
        done;
        close_in ic;
        Sys.remove path;
        match[@warning "-4"] List.rev !got with
        | [ Ok _; Ok { Protocol.payload = Protocol.Match_re { input; _ }; _ } ] ->
          if input <> want then
            Alcotest.failf "edge %d shift %d: input decoded wrong" edge shift
        | _ -> Alcotest.failf "edge %d shift %d: not two requests" edge shift
      done)
    [ chunk; 2 * chunk; 3 * chunk ]

(* Once the line buffer has grown to the longest line, reading lines
   allocates nothing. *)
let test_lines_warm_allocation () =
  let size = 1 lsl 20 in
  let path = Filename.temp_file "sbd_warm" ".txt" in
  Out_channel.with_open_bin path (fun oc ->
      for i = 1 to 9 do
        output_string oc (String.make (size - (i * 1000)) 'q');
        output_string oc "\nshort\n"
      done);
  let ic = open_in_bin path in
  let t = Jsonin.Lines.create ic in
  let count = ref 0 and bytes = ref 0 in
  let f _ _ len =
    incr count;
    bytes := !bytes + len
  in
  (* the first line grows the buffer *)
  while !count < 2 do
    ignore (Jsonin.Lines.read_views t f : bool)
  done;
  let before = Gc.allocated_bytes () in
  while Jsonin.Lines.read_views t f do
    ()
  done;
  let allocated = Gc.allocated_bytes () -. before in
  close_in ic;
  Sys.remove path;
  check_int "lines" 18 !count;
  check
    (Printf.sprintf "allocated %.0f bytes for 8 MB of warm lines" allocated)
    true (allocated < 4096.)

(* CRLF line ends and lines of nothing but whitespace: the blank ones
   get no reply, the others are served as usual. *)
let test_blank_lines () =
  with_session small_cfg (fun ~send ~recv ->
      send "";
      send "\r";
      send " \t \012\r";
      send {|{"id": 1, "op": "match", "re": "ab*c", "input": "xxabbbcyy"}|};
      let r = recv () in
      check "first reply is the request's" true (Jsonin.member "id" r = Some (J.Int 1));
      check "span" true (Jsonin.member "span" r = Some (J.Arr [ J.Int 2; J.Int 7 ]));
      let input = String.make (1 lsl 20) 'z' ^ "abc" in
      send
        (J.to_string
           (J.Obj
              [ ("id", J.Int 2); ("op", J.Str "match"); ("re", J.Str "ab*c");
                ("input", J.Str input) ])
        ^ " \r");
      send "\r";
      send {|{"id": 3, "op": "stats"}   |};
      (* the match runs on the pool, so the two replies come in either
         order *)
      let r1 = recv () in
      let r2 = recv () in
      let r, stats = if Jsonin.member "id" r1 = Some (J.Int 2) then (r1, r2) else (r2, r1) in
      check "CRLF 1 MB line answered" true (Jsonin.member "id" r = Some (J.Int 2));
      check "CRLF span" true
        (Jsonin.member "span" r = Some (J.Arr [ J.Int (1 lsl 20); J.Int ((1 lsl 20) + 3) ]));
      check "stats answered" true (Jsonin.member "id" stats = Some (J.Int 3));
      send {|{"id": 0, "op": "shutdown"}|};
      ignore (recv ()))

(* Each engine table evicts its oldest entry when full: with 64 hot
   patterns cached, one new pattern costs one compile, the hot ones
   that stayed answer without compiling, and the oldest one comes back
   with a compile of its own. *)
let test_engine_cache () =
  let (module W) = Worker.create () in
  let compiles = Obs.Counter.make "engine.compiles" in
  let run pat =
    match W.match_input ~pattern:pat ~input:"xxaaab7" () with
    | Ok _ -> ()
    | Error msg -> Alcotest.fail msg
  in
  let cost pats =
    let before = Obs.Counter.value compiles in
    List.iter run pats;
    Obs.Counter.value compiles - before
  in
  List.iter
    (fun (kind, pat) ->
      let hot = List.init 64 pat in
      check_int (kind ^ ": warm-up") 64 (cost hot);
      check_int (kind ^ ": hot again") 0 (cost hot);
      check_int (kind ^ ": one new pattern") 1 (cost [ pat 64 ]);
      check_int (kind ^ ": the other hot patterns") 0 (cost (List.tl hot));
      check_int (kind ^ ": the oldest was evicted") 1 (cost [ List.hd hot ]))
    [ ("plain", Printf.sprintf "a{%d,}b");
      ("located", Printf.sprintf "a{%d,}(?=b)") ]

(* -- located match under a deadline --------------------------------------- *)

let test_located_deadline () =
  let input = String.make (4 lsl 20) 'x' ^ "needle7" in
  with_session small_cfg (fun ~send ~recv ->
      List.iter
        (fun (id, re) ->
          send
            (J.to_string
               (J.Obj
                  [ ("id", J.Str id); ("op", J.Str "match"); ("re", J.Str re);
                    ("input", J.Str input); ("deadline_s", J.Float 1e-6) ]));
          let r = recv () in
          check (id ^ " is unknown") true (status r = Some "unknown");
          check_str (id ^ " reason") "deadline"
            (Option.value (Jsonin.str_member "reason" r) ~default:"<none>"))
        [ ("plain", "needle\\d"); ("located", "needle(?=\\d)") ];
      (* without a deadline the same request answers *)
      send
        (J.to_string
           (J.Obj
              [ ("id", J.Int 3); ("op", J.Str "match");
                ("re", J.Str "needle(?=\\d)"); ("input", J.Str input) ]));
      let r = recv () in
      check "located ok" true (status r = Some "ok");
      check "located found_end" true
        (Jsonin.int_member "found_end" r = Some (String.length input - 1));
      send {|{"id": 0, "op": "shutdown"}|};
      ignore (recv ()))

(* -- exact repeats answered by the reader ----------------------------------- *)

(* The session's [stats] reply as a counter lookup; a counter the
   reply omits (the snapshot drops zeros) reads 0. *)
let stat_counters ~send ~recv =
  send {|{"id":"st","op":"stats"}|};
  match Jsonin.member "stats" (recv ()) with
  | Some (J.Obj rows) -> (
    fun name -> match List.assoc_opt name rows with Some (J.Int n) -> n | _ -> 0)
  | _ -> Alcotest.fail "stats payload missing"

let reader_hits = "service.cache.reader_hits"
let submitted = "service.pool.submitted"

(* A decided solve sent again is answered by the reader with the first
   reply's verdict: [cached] set, one more reader hit, no pool job.  So
   is [check] over one asserted, already-solved pattern; [check] over
   two such patterns is a conjunction no raw key names, and goes to the
   pool. *)
let test_reader_hits () =
  List.iter
    (fun workers ->
      let label s = Printf.sprintf "%d-worker %s" workers s in
      with_session { small_cfg with workers } (fun ~send ~recv ->
          let solve id re =
            send (Printf.sprintf {|{"id":%d,"op":"solve","re":"%s"}|} id re);
            recv ()
          in
          let same_answer ~first r =
            check (label "repeat cached") true (Jsonin.bool_member "cached" r = Some true);
            check (label "repeat status") true (status r = status first);
            check (label "repeat witness") true
              (Jsonin.str_member "witness" r = Jsonin.str_member "witness" first)
          in
          (* [f] moves the reader-hit and pool-job counters by exactly
             these amounts *)
          let counted expect_hits expect_jobs f =
            let c0 = stat_counters ~send ~recv in
            f ();
            let c1 = stat_counters ~send ~recv in
            check_int (label "reader hits") expect_hits (c1 reader_hits - c0 reader_hits);
            check_int (label "pool jobs") expect_jobs (c1 submitted - c0 submitted)
          in
          let firsts =
            List.mapi
              (fun i re ->
                let r = solve (1 + i) re in
                check (label "first not cached") true
                  (Jsonin.bool_member "cached" r = Some false);
                (re, r))
              [ "ab*c"; "a{2}&a{3}"; "a+"; "b+" ]
          in
          check (label "sat and unsat") true
            (List.map (fun (_, r) -> status r) firsts
            = [ Some "sat"; Some "unsat"; Some "sat"; Some "sat" ]);
          List.iteri
            (fun i (re, first) ->
              counted 1 0 (fun () -> same_answer ~first (solve (10 + i) re)))
            firsts;
          send {|{"id":20,"op":"assert","re":"a+"}|};
          ignore (recv ());
          counted 1 0 (fun () ->
              send {|{"id":21,"op":"check"}|};
              same_answer ~first:(List.assoc "a+" firsts) (recv ()));
          send {|{"id":22,"op":"assert","re":"b+"}|};
          ignore (recv ());
          counted 0 1 (fun () ->
              send {|{"id":23,"op":"check"}|};
              let r = recv () in
              check (label "conjunction unsat") true (status r = Some "unsat");
              check (label "conjunction solved") true
                (Jsonin.bool_member "cached" r = Some false));
          send {|{"id":0,"op":"shutdown"}|};
          ignore (recv ())))
    [ 1; 2 ]

(* A batch that mixes decided repeats with first-seen patterns: the
   repeats go out in the reader's burst, the rest on the pool, and every
   id is answered exactly once. *)
let test_batch_reader_hits () =
  with_session small_cfg (fun ~send ~recv ->
      send {|{"id":"s","op":"solve","re":"ab*c"}|};
      let sat = recv () in
      send {|{"id":"u","op":"solve","re":"a{2}&a{3}"}|};
      check "unsat first" true (status (recv ()) = Some "unsat");
      let c0 = stat_counters ~send ~recv in
      send
        {|{"op":"batch","reqs":[{"id":"r1","op":"solve","re":"ab*c"},{"id":"n1","op":"solve","re":"x+y"},{"id":"r2","op":"solve","re":"a{2}&a{3}"},{"id":"n2","op":"solve","re":"[0-9]{3}&~(.*0.*)"},{"id":"r3","op":"solve","re":"ab*c"}]}|};
      let by_id = recv_ids recv 5 in
      List.iter
        (fun id ->
          check (id ^ " cached sat") true
            (Jsonin.bool_member "cached" (by_id id) = Some true
            && status (by_id id) = Some "sat"
            && Jsonin.str_member "witness" (by_id id) = Jsonin.str_member "witness" sat))
        [ "r1"; "r3" ];
      check "r2 cached unsat" true
        (Jsonin.bool_member "cached" (by_id "r2") = Some true
        && status (by_id "r2") = Some "unsat");
      List.iter
        (fun id ->
          check (id ^ " solved") true
            (Jsonin.bool_member "cached" (by_id id) = Some false
            && status (by_id id) = Some "sat"))
        [ "n1"; "n2" ];
      (* no sixth reply: the next line is the stats reply *)
      let c1 = stat_counters ~send ~recv in
      check_int "three reader hits" 3 (c1 reader_hits - c0 reader_hits);
      send {|{"id":0,"op":"shutdown"}|};
      ignore (recv ()))

(* A hit is answered while the queue is full; once a [shutdown] drain
   has begun on another session, the same repeat is refused. *)
let test_repeat_during_drain () =
  let t = Server.create { small_cfg with queue_cap = 1 } in
  with_server t (fun ~send ~recv ->
      send {|{"id":"x","op":"solve","re":"ab*c"}|};
      check "first sat" true (status (recv ()) = Some "sat");
      let repeat = {|{"id":"again","op":"solve","re":"ab*c"}|} in
      with_blocked_workers t.Server.pool (fun releases ->
          send {|{"id":"queued","op":"solve","re":"x+y"}|};
          spin_until (fun () -> Pool.queue_length t.Server.pool = 1);
          send repeat;
          let r = recv () in
          check "hit answered with the queue full" true
            (Jsonin.member "id" r = Some (J.Str "again")
            && Jsonin.bool_member "cached" r = Some true);
          with_server ~stop_pool:false t (fun ~send:send_b ~recv:recv_b ->
              send_b {|{"id":"stop","op":"shutdown"}|};
              spin_until (fun () -> Atomic.get t.Server.stopping);
              send repeat;
              let r = recv () in
              (* released before any check, so a failing one cannot
                 leave the drain waiting on blocked workers *)
              List.iter (fun release -> release ()) releases;
              check_str "repeat during drain" "shutting down"
                (Option.value (Jsonin.str_member "error" r) ~default:"<none>");
              check "drained" true
                (Jsonin.bool_member "drained" (recv_b ()) = Some true));
          let r = recv () in
          check "queued request answered" true
            (Jsonin.member "id" r = Some (J.Str "queued") && status r = Some "sat")))

(* The solver reads a pattern the plain grammar rejects with the
   extended one: an anchor-only pattern is lowered and solved (and its
   decided verdict cached like any other), a lookaround answers unknown
   with the lookaround reason (never cached), in [solve] and in a
   single-pattern [check] alike. *)
let test_located_solve () =
  with_session small_cfg (fun ~send ~recv ->
      let solve id re =
        send (Printf.sprintf {|{"id":%d,"op":"solve","re":%S}|} id re);
        recv ()
      in
      let check_once id =
        send (Printf.sprintf {|{"id":%d,"op":"check"}|} id);
        recv ()
      in
      let is_lookaround what r =
        check (what ^ ": unknown") true (status r = Some "unknown");
        check_str (what ^ ": reason") Worker.lookaround_unknown
          (Option.value (Jsonin.str_member "reason" r) ~default:"<none>");
        check (what ^ ": not cached") true (Jsonin.bool_member "cached" r = Some false)
      in
      let look = "(?=a)b" in
      is_lookaround "solve" (solve 1 look);
      is_lookaround "repeat" (solve 2 look);
      send (Printf.sprintf {|{"id":3,"op":"assert","re":%S}|} look);
      ignore (recv ());
      is_lookaround "check" (check_once 4);
      is_lookaround "check again" (check_once 5);
      (* the lookahead's branch is empty (it ends in the complement of
         everything), so the parse keeps only the anchor *)
      let anchored = "^(b|(?=a)~(.*))" in
      let r = solve 6 anchored in
      check "anchor-only sat" true (status r = Some "sat");
      check_str "anchor-only witness" "b"
        (Option.value (Jsonin.str_member "witness" r) ~default:"<none>");
      check "anchor-only first not cached" true
        (Jsonin.bool_member "cached" r = Some false);
      let r = solve 7 anchored in
      check "anchor-only repeat cached" true
        (status r = Some "sat" && Jsonin.bool_member "cached" r = Some true);
      send {|{"id":0,"op":"shutdown"}|};
      ignore (recv ()));
  let (module W) = Worker.create () in
  check "lookaround has a key" true (Result.is_ok (W.cache_key "(?=a)b"));
  check "anchor witness validated" true
    (W.check_witness "^(b|(?=a)~(.*))" [ Char.code 'b' ] = Some true);
  check "a lookaround conjunct answers unknown" true
    (match W.solve_conj [ "a"; "(?=a)b" ] with
    | Ok (Protocol.Unknown _, _) -> true
    | _ -> false);
  check "a parse error in a conjunct wins" true
    (Result.is_error (W.solve_conj [ "(?=a)b"; "a(" ]));
  check "other syntax reports the plain error" true
    (W.solve_pattern "a(" = Error "parse error at 2: expected ')'")

let suite =
  ( "service",
    [
      Alcotest.test_case "jsonin round-trip" `Quick test_jsonin
    ; Alcotest.test_case "request parsing" `Quick test_parse_request
    ; Alcotest.test_case "match request parsing" `Quick test_parse_match_request
    ; Alcotest.test_case "batch envelope parsing" `Quick test_parse_batch
    ; Alcotest.test_case "draining line reader" `Quick test_lines_reader
    ; Alcotest.test_case "pool backpressure" `Quick test_pool_backpressure
    ; Alcotest.test_case "pool stress" `Quick test_pool_stress
    ; Alcotest.test_case "pool drain" `Quick test_pool_drain
    ; Alcotest.test_case "lru accounting" `Quick test_lru
    ; Alcotest.test_case "lru shard layout" `Quick test_lru_shards
    ; Alcotest.test_case "lru sharded stress" `Quick test_lru_sharded_stress
    ; Alcotest.test_case "canonical cache keys" `Quick test_worker_keys
    ; Alcotest.test_case "worker witness validation" `Quick test_worker_witness
    ; Alcotest.test_case "session round-trip" `Quick test_session_roundtrip
    ; Alcotest.test_case "batch round-trip" `Quick test_batch_roundtrip
    ; Alcotest.test_case "batch robustness" `Quick test_batch_robustness
    ; Alcotest.test_case "batch chunks" `Quick test_batch_chunks
    ; Alcotest.test_case "overloaded reply" `Quick test_overloaded_reply
    ; Alcotest.test_case "63 workers" `Quick test_many_workers
    ; Alcotest.test_case "analyze op" `Quick test_analyze_op
    ; Alcotest.test_case "contain ops" `Quick test_contain_op
    ; Alcotest.test_case "contain request budget" `Quick test_contain_budget
    ; Alcotest.test_case "deadline isolation" `Quick test_deadline_isolation
    ; Alcotest.test_case "pool vs sequential agreement" `Quick
        test_pool_agreement
    ; Alcotest.test_case "one derivative tower" `Quick test_one_tower
    ; Alcotest.test_case "worker memo cap" `Quick test_worker_memo_cap
    ; Alcotest.test_case "worker generations" `Quick test_worker_generations
    ; Alcotest.test_case "match-only generations" `Quick test_match_generations
    ; Alcotest.test_case "line reader chunk edges" `Quick test_lines_chunks
    ; Alcotest.test_case "line reader allocation" `Quick test_lines_allocation
    ; Alcotest.test_case "json strings" `Quick test_json_strings
    ; Alcotest.test_case "located match deadline" `Quick test_located_deadline
    ; Alcotest.test_case "parse_sub on views" `Quick test_parse_sub
    ; Alcotest.test_case "line views" `Quick test_line_views
    ; Alcotest.test_case "escapes at chunk edges" `Quick test_escapes_at_chunk_edges
    ; Alcotest.test_case "line reader warm allocation" `Quick test_lines_warm_allocation
    ; Alcotest.test_case "blank and CRLF lines" `Quick test_blank_lines
    ; Alcotest.test_case "engine cache eviction" `Quick test_engine_cache
    ; Alcotest.test_case "reader answers repeats" `Quick test_reader_hits
    ; Alcotest.test_case "batch with reader hits" `Quick test_batch_reader_hits
    ; Alcotest.test_case "repeat during drain" `Quick test_repeat_during_drain
    ; Alcotest.test_case "located patterns in solve and check" `Quick
        test_located_solve
    ] )
