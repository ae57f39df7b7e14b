#!/bin/sh
# CI entry point, and the only one: the workflow installs the toolchain
# and runs this script.  Build (with lib/ warnings-as-errors), run the
# full test suite, fuzz the match engine against the classic lazy DFA
# and the DP oracle (each round also cross-checks the static analyzer's
# Proved/Refuted verdicts against the solver), smoke every sbdsolve
# mode, run every bench gate (analyze-bench cross-checks the analyzer
# over the whole benchmark corpus), then drive every benchmark workload
# through a real sbdserve and check every reply (verdict/span agreement
# and witness validity are checked inside the fuzzer, the service
# session tests and perfbench; non-zero exit on any mismatch).
set -eu

cd "$(dirname "$0")/.."

echo "== build =="
dune build

echo "== strict check (lib/ fragile matches are errors) =="
dune build @check

echo "== tests =="
dune runtest

echo "== tests (GC-perturbed interleavings) =="
# OCaml has no thread-schedule randomizer; the closest portable lever
# is a tiny minor heap (s=4k words), which forces frequent GC
# safepoints and so perturbs domain/thread interleavings in the
# pool queue and sharded-cache stress tests.  --force reruns the
# suite even though dune has cached the first pass.
OCAMLRUNPARAM='s=4k' dune runtest --force

echo "== engine + analyzer fuzz smoke =="
# cross-checks the byte engine vs the classic lazy DFA's scans vs the
# DP oracle (verdicts, find spans, earliest match ends, prefix counts,
# UTF-8 decoding), forces the
# max_states cache-reset path, and checks analyzer Proved verdicts
# against the solver; exits non-zero on any disagreement
dune exec bin/fuzz.exe -- --rounds 300 --seed 42
dune exec bin/fuzz.exe -- --rounds 300 --seed 1234
# counter-heavy generation: larger and open-ended {m,n} bounds stress
# the ultimately-periodic length abstraction and its CRT intersections
dune exec bin/fuzz.exe -- --rounds 300 --seed 2718 --counters

echo "== paper table smoke =="
# the quick, deterministic paper-table paths: the Figure 4(c) corpus
# counts and the A1 clean-vs-raw DNF sizes (no solver timings)
dune exec bin/experiments.exe -- fig4c
dune exec bin/experiments.exe -- ablation-dnf

echo "== solver CLI smoke =="
# pattern and script modes, with the exit codes scripts rely on: 0 =
# sat/unsat, 3 = unknown (budget exhausted, a lookaround obligation, a
# script with an unknown check-sat), 2 = parse error
expect_rc() {
  want=$1; shift
  rc=0; dune exec bin/sbdsolve.exe -- "$@" > /dev/null 2>&1 || rc=$?
  [ "$rc" -eq "$want" ] || { echo "sbdsolve $*: expected exit $want, got $rc"; exit 1; }
}
out=$(dune exec bin/sbdsolve.exe -- 'a{2,3}&~(.*b)')
[ "$out" = 'sat "aa"' ] || { echo "pattern mode: expected sat \"aa\", got $out"; exit 1; }
out=$(dune exec bin/sbdsolve.exe -- 'ab&~ab')
[ "$out" = 'unsat' ] || { echo "pattern mode: expected unsat, got $out"; exit 1; }
expect_rc 3 --budget 1 '~(.*a{8,16}.*)&.*b{9,17}.*'
expect_rc 2 'a('
expect_rc 3 '(?=a)b'
smt=$(mktemp -d)
trap 'rm -rf "$smt"' EXIT
dune exec bin/experiments.exe -- dump-smt2 "$smt" > /dev/null
expect_rc 0 "$smt/norn-bool-001.smt2"
expect_rc 3 --budget 1 "$smt/norn-bool-001.smt2"

echo "== analyzer smoke =="
# single-pattern JSON reports, plain and located (a located pattern's
# emptiness is undecided: exit 3), then analyze-bench over the whole
# benchmark corpus: analyzer throughput and the
# difficulty-vs-solver-effort correlations; exits non-zero if a
# Proved/Refuted verdict contradicts the solver, a Refuted witness or a
# Proved universality fails the reference matcher, or an SBD203-SBD206
# replacement fails the solver equivalence check
dune exec bin/sbdsolve.exe -- --lint '~(.*a{8,16}.*)&.*b.*' --json
rc=0; dune exec bin/sbdsolve.exe -- --lint '^a(?=b*)c$' --json || rc=$?
[ "$rc" -eq 3 ] || { echo "expected located lint exit 3, got $rc"; exit 1; }
dune exec bin/experiments.exe -- analyze-bench --no-bench

echo "== lint exit codes =="
# uniform scheme, same as --subset/--equiv: 0 = semantic verdict
# decided (emptiness proved or refuted), 3 = undecided within budget,
# 2 = parse error; structural findings alone never count as decided
dune exec bin/sbdsolve.exe -- --lint 'ab&cd' > /dev/null
dune exec bin/sbdsolve.exe -- --lint 'a^b' > /dev/null
rc=0; dune exec bin/sbdsolve.exe -- --lint '(' > /dev/null 2>&1 || rc=$?
[ "$rc" -eq 2 ] || { echo "expected lint exit 2 on parse error, got $rc"; exit 1; }
rc=0; dune exec bin/sbdsolve.exe -- --lint --budget 6400 \
  'a{80}&~((aa){40})' > /dev/null 2>&1 || rc=$?
[ "$rc" -eq 3 ] || { echo "expected lint exit 3 on budget exhaustion, got $rc"; exit 1; }
rc=0; dune exec bin/sbdsolve.exe -- --lint '(?=a)b' > /dev/null 2>&1 || rc=$?
[ "$rc" -eq 3 ] || { echo "expected lint exit 3 on undecided located pattern, got $rc"; exit 1; }

echo "== lookaround corpus gates =="
# located engine vs the all-splits oracle vs hand labels on the
# anchored/lookaround corpus, plus solver cross-checks of the
# anchor-elimination translation; exits non-zero on any mismatch
dune exec bin/experiments.exe -- lookaround-bench --no-bench --check

echo "== containment smoke =="
# exit codes: 0 = decided, 3 = unknown, 2 = parse error — assert all
# three so scripts can rely on the scheme
dune exec bin/sbdsolve.exe -- --subset 'a{2,3}' 'a{1,4}' > /dev/null
dune exec bin/sbdsolve.exe -- --equiv --witness '(ab)*a' 'a(ba)*' > /dev/null
dune exec bin/sbdsolve.exe -- --subset 'a{2,3}' 'a{1,4}' --json
dune exec bin/sbdsolve.exe -- --equiv --witness '(ab)*a' 'a(ba)*' --json
rc=0; dune exec bin/sbdsolve.exe -- --subset 'a(' 'a' > /dev/null 2>&1 || rc=$?
[ "$rc" -eq 2 ] || { echo "expected exit 2 on parse error, got $rc"; exit 1; }
rc=0; dune exec bin/sbdsolve.exe -- --budget 17 --subset \
  '~(.*a{9,17}.*)&.*b{8,16}.*' '~(.*a{8,16}.*)' > /dev/null 2>&1 || rc=$?
[ "$rc" -eq 3 ] || { echo "expected exit 3 on budget exhaustion, got $rc"; exit 1; }

echo "== containment bench gates =="
# sweeps the pair corpus (textbook inclusions, counter nestings,
# boolean lattice facts): exits non-zero on any disagreement with the
# is_empty (r & ~s) reduction, any witness the oracle rejects, any
# mislabeled expected verdict, a decided rate < 95%, or a pairs/s
# collapse below 20; --no-bench only skips appending the run to the
# BENCH file (the timing and its floor still run)
dune exec bin/experiments.exe -- contain-bench --no-bench --check

echo "== derivation bench gates =="
# cold-derives every state of the boolean + handwritten + dz3 suites,
# then gates: boolean dz3 solved% must be 100, the warm DNF memo
# hit rate >= 0.9 on every suite (a hash-consing or memo regression
# shows up here before it shows up as wall time), and the dz3 verdict
# digest over the three suites must equal the pinned one; --no-bench
# only skips appending the run to the BENCH file (the throughput timing
# still runs, and no gate reads it)
dune exec bin/experiments.exe -- deriv-bench --no-bench --check

echo "== abstract pre-solver gates =="
# runs Absdom.presolve against the full solver over the whole corpus
# and the containment pair corpus: exits non-zero on any unsound
# abstract verdict, any witness the reference matcher rejects, a
# corpus hit rate < 25%, or a pair hit rate < 15%; --no-bench only
# skips appending the run to the BENCH file (the password-family
# wall-clock A/B still runs, and no gate reads it)
dune exec bin/experiments.exe -- absdom-bench --no-bench --check

echo "== match smoke =="
# JSON replies of the byte engine (plain patterns) and the located
# engine (anchors, lookarounds)
dune exec bin/sbdsolve.exe -- --match 'ab*c' --input 'xxabbbcyy' --json
dune exec bin/sbdsolve.exe -- --match '\d{4}-[a-zA-Z]{3}-\d{2}' --input 'shipped on 2026-Aug-06, delayed' --json
dune exec bin/sbdsolve.exe -- --match '^(?=.*\d)\w{4,8}$' --input 'ab12cd' --json

echo "== long located match line =="
# one 16 MB located match request through sbdserve: the line reader,
# the JSON string decoder and the located engine must each stay linear
# (the reader was quadratic in the line length once), so the whole
# session fits well inside the timeout
n=$((16 << 20))
out=$(python3 -c '
import json, sys
n = int(sys.argv[1])
print(json.dumps({"id": 1, "op": "match", "re": "needle(?=\\d)", "input": "x" * n + "needle7"}))
print(json.dumps({"id": 2, "op": "shutdown"}))' "$n" \
  | timeout 120 dune exec bin/sbdserve.exe) \
  || { echo "16 MB located match: server failed or timed out"; exit 1; }
echo "$out" | grep -q "\"id\":1,\"status\":\"ok\",.*\"found_end\":$((n + 6))," \
  || { echo "16 MB located match: wrong or missing found_end"; exit 1; }

echo "== long located match lines =="
# two 16 MB located match requests for a bounded lookbehind pattern,
# the fragment at the front and at the very end: the required factor
# locates it, the walk starts a match's byte bound before it, and the
# lookbehind DFA warms up from its body's bound before that
out=$(python3 -c '
import json, sys
n = int(sys.argv[1])
print(json.dumps({"id": 1, "op": "match", "re": "(?<=\\d)needle", "input": "7needle" + "x" * n}))
print(json.dumps({"id": 2, "op": "match", "re": "(?<=\\d)needle", "input": "x" * n + "7needle"}))
print(json.dumps({"id": 3, "op": "shutdown"}))' "$n" \
  | timeout 120 dune exec bin/sbdserve.exe) \
  || { echo "16 MB located lookbehind match: server failed or timed out"; exit 1; }
echo "$out" | grep -q "\"id\":1,\"status\":\"ok\",.*\"found_end\":7," \
  || { echo "16 MB located lookbehind match (front): wrong or missing found_end"; exit 1; }
echo "$out" | grep -q "\"id\":2,\"status\":\"ok\",.*\"found_end\":$((n + 7))," \
  || { echo "16 MB located lookbehind match (end): wrong or missing found_end"; exit 1; }

echo "== long plain match lines =="
# two 16 MB plain match requests for a bounded pattern, the fragment at
# the front and at the very end: the required-factor search locates it,
# and find's DFA passes read only the bytes around it (the forward pass
# from just before the factor, the backward pass over the window around
# the earliest match end).  Both lines end in CRLF and go out in one
# write with a stats line after them, so the reader parses a 16 MB line
# with a '\r' in place and finds the next line in the same buffer.
out=$(python3 -c '
import json, sys
n = int(sys.argv[1])
sys.stdout.write(
    json.dumps({"id": 1, "op": "match", "re": "needle\\d{2}", "input": "needle42" + "x" * n}) + "\r\n"
    + json.dumps({"id": 2, "op": "match", "re": "needle\\d{2}", "input": "x" * n + "needle42"}) + "\r\n"
    + json.dumps({"id": 3, "op": "stats"}) + "\n"
    + json.dumps({"id": 4, "op": "shutdown"}) + "\n")' "$n" \
  | timeout 120 dune exec bin/sbdserve.exe) \
  || { echo "16 MB plain match: server failed or timed out"; exit 1; }
echo "$out" | grep -q "\"id\":1,\"status\":\"ok\",.*\"span\":\[0,8\]," \
  || { echo "16 MB plain match (front): wrong or missing span"; exit 1; }
echo "$out" | grep -q "\"id\":2,\"status\":\"ok\",.*\"span\":\[$n,$((n + 8))\]," \
  || { echo "16 MB plain match (end): wrong or missing span"; exit 1; }
echo "$out" | grep -q "\"id\":3,\"status\":\"ok\"," \
  || { echo "16 MB plain match: no stats reply after the CRLF lines"; exit 1; }

echo "== long accelerated match lines =="
# three 16 MB match requests whose scans spend the input in states that
# loop on all but a few bytes: the full-match verdict of a boolean
# pattern after a digit at the front (true) and with its forbidden
# "01" at the very end (false), and a [^]-anchored located walk to its
# core at the end.  Each skips the run a word at a time, so the session
# fits well inside the timeout.
out=$(python3 -c '
import json, sys
n = int(sys.argv[1])
pw = ".*\\d.*&~(.*01.*)"
print(json.dumps({"id": 1, "op": "match", "re": pw, "input": "7" + "x" * n}))
print(json.dumps({"id": 2, "op": "match", "re": pw, "input": "7" + "x" * n + "01"}))
print(json.dumps({"id": 3, "op": "match", "re": "^.*needle", "input": "x" * n + "needle"}))
print(json.dumps({"id": 4, "op": "shutdown"}))' "$n" \
  | timeout 120 dune exec bin/sbdserve.exe) \
  || { echo "16 MB accelerated match: server failed or timed out"; exit 1; }
echo "$out" | grep -q "\"id\":1,\"status\":\"ok\",\"matched\":true,\"full\":true,\"span\":\[0,1\]," \
  || { echo "16 MB accelerated match (digit in front): wrong or missing verdict"; exit 1; }
echo "$out" | grep -q "\"id\":2,\"status\":\"ok\",\"matched\":true,\"full\":false,\"span\":\[0,1\]," \
  || { echo "16 MB accelerated match (01 at the end): wrong or missing verdict"; exit 1; }
echo "$out" | grep -q "\"id\":3,\"status\":\"ok\",.*\"found_end\":$((n + 6))," \
  || { echo "16 MB accelerated located match: wrong or missing found_end"; exit 1; }

echo "== engine throughput matrix gates =="
# steady-state (hot) MB/s floors per pattern class (literal / class /
# boolean / counter) plus span agreement between the engine and the
# classic lazy DFA's per-position scan; floors are
# conservative so shared runners pass — the gate catches
# order-of-magnitude regressions (a lost prefilter, a de-flattened
# transition table), not noise
dune exec bin/experiments.exe -- engine-bench --no-bench --check

echo "== service workloads =="
# builds sbdserve and runs each perfbench workload (corpus-cold,
# zipf-hot, match-large) briefly against a real server, checking every
# reply: verdicts against the corpus labels, witnesses against the
# reference matcher, match spans against the oracle; exits non-zero on
# any failed, missing or wrong reply
python3 perfbench/run.py --test

echo "== batch protocol robustness smoke =="
# a malformed envelope and duplicate ids must each draw one structured
# error while the session stays alive for the requests around them;
# run inline (1 worker) and pooled (2 workers, where a batch's members
# are split into one pool job per worker)
for w in 1 2; do
  out=$(printf '%s\n' \
    '{"op":"batch","reqs":[{"id":1,"op":"solve","re":"a|b"},{"id":2,"op":"solve","re":"ab&~ab"},{"id":4,"op":"match","re":"ab*c","input":"xxabbbcyy"}]}' \
    '{"op":"batch","reqs":"nope"}' \
    '{"op":"batch","reqs":[{"id":3,"op":"solve","re":"a"},{"id":3,"op":"solve","re":"b"}]}' \
    '{"id":9,"op":"solve","re":"[0-9]{3}"}' \
    '{"op":"shutdown"}' \
    | dune exec bin/sbdserve.exe -- --workers "$w")
  echo "$out" | grep -q '"id":1,"status":"sat"' || { echo "workers=$w: batch member 1 missing"; exit 1; }
  echo "$out" | grep -q '"id":2,"status":"unsat"' || { echo "workers=$w: batch member 2 missing"; exit 1; }
  echo "$out" | grep -q '"id":4,"status":"ok"' || { echo "workers=$w: batch member 4 missing"; exit 1; }
  echo "$out" | grep -q '"id":9,"status":"sat"' || { echo "workers=$w: post-abuse solve missing: session died"; exit 1; }
  errs=$(echo "$out" | grep -c '"error"') || true
  [ "$errs" -eq 2 ] || { echo "workers=$w: expected 2 structured batch errors, got $errs"; exit 1; }
done

echo "== reader-hit smoke =="
# an exact repeat of a decided solve is answered by the session's reader
# from the cache's raw-text key and never reaches the pool.  Inline (1
# worker) the repeat is read only after the first answer is cached, so
# the counts are exact; a pooled stdin session would race the worker.
out=$(printf '%s\n' \
  '{"id":1,"op":"solve","re":"a{2,3}&~(.*b)"}' \
  '{"id":2,"op":"solve","re":"a{2,3}&~(.*b)"}' \
  '{"id":3,"op":"stats"}' \
  '{"id":4,"op":"shutdown"}' \
  | dune exec bin/sbdserve.exe -- --workers 1)
echo "$out" | grep -q '"id":2,"status":"sat",.*"cached":true' || { echo "reader hit: repeat not cached"; exit 1; }
echo "$out" | grep -q '"service.cache.reader_hits":1[,}]' || { echo "reader hit: expected service.cache.reader_hits 1"; exit 1; }
echo "$out" | grep -q '"service.pool.submitted":1[,}]' || { echo "reader hit: expected service.pool.submitted 1"; exit 1; }

echo "== many-worker smoke =="
# one domain per worker: 63 workers must answer every request and exit
# 0 after shutdown
out=$(printf '%s\n' \
  '{"id":1,"op":"solve","re":"a|b"}' \
  '{"id":2,"op":"solve","re":"ab&~ab"}' \
  '{"id":3,"op":"shutdown"}' \
  | dune exec bin/sbdserve.exe -- --workers 63)
echo "$out" | grep -q '"id":1,"status":"sat"' || { echo "63 workers: solve 1 missing"; exit 1; }
echo "$out" | grep -q '"id":2,"status":"unsat"' || { echo "63 workers: solve 2 missing"; exit 1; }
echo "$out" | grep -q '"id":3,"status":"ok","drained":true' || { echo "63 workers: shutdown reply missing"; exit 1; }
# OCaml runs at most 128 domains, the main one included: --workers
# outside 1..127 is a usage error (exit 124) naming the bound, never a
# crash at startup
for w in 0 128; do
  rc=0; err=$(dune exec bin/sbdserve.exe -- --workers "$w" < /dev/null 2>&1) || rc=$?
  [ "$rc" -eq 124 ] || { echo "--workers $w: expected exit 124, got $rc"; exit 1; }
  echo "$err" | grep -q "1 to 127" || { echo "--workers $w: error does not name the bound"; exit 1; }
done
