#!/bin/sh
# CI entry point: build (with lib/ warnings-as-errors), run the full
# test suite, fuzz the match engine against the other matchers and the
# DP oracle (each round also cross-checks the static analyzer's
# Proved/Refuted verdicts against the solver), lint the whole benchmark
# corpus through the analyzer, then drive every benchmark workload
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
# scheduler, pool, and sharded-cache stress tests.  --force reruns the
# suite even though dune has cached the first pass.
OCAMLRUNPARAM='s=4k' dune runtest --force

echo "== engine + analyzer fuzz smoke =="
# cross-checks engine vs matcher vs the DP oracle (verdicts, find
# spans, prefix counts, chunked streaming, UTF-8 decoding), forces the
# max_states cache-reset path, and checks analyzer Proved verdicts
# against the solver; exits non-zero on any disagreement
dune exec bin/fuzz.exe -- --rounds 300 --seed 42
dune exec bin/fuzz.exe -- --rounds 300 --seed 1234
# counter-heavy generation: larger and open-ended {m,n} bounds stress
# the ultimately-periodic length abstraction and its CRT intersections
dune exec bin/fuzz.exe -- --rounds 300 --seed 2718 --counters

echo "== analyzer corpus lint =="
# analyzes every corpus instance; exits 1 if any Proved verdict or any
# abstract pre-solver verdict (Absdom Unsat_proved/Sat_witnessed)
# contradicts the corpus ground-truth label, or any SBD203-SBD206
# replacement suggestion fails the solver equivalence check, 2 on a
# parse failure
dune exec bin/sbdsolve.exe -- --lint --corpus all --json > /dev/null

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
# anchored/lookaround corpus, plus byte-at-a-time streaming replay and
# solver cross-checks of the anchor-elimination translation; exits
# non-zero on any mismatch (2 on a parse failure)
dune exec bin/sbdsolve.exe -- --lint --corpus lookaround > /dev/null
dune exec bin/experiments.exe -- lookaround-bench --no-bench --check

echo "== containment smoke =="
# exit codes: 0 = decided, 3 = unknown, 2 = parse error — assert all
# three so scripts can rely on the scheme
dune exec bin/sbdsolve.exe -- --subset 'a{2,3}' 'a{1,4}' > /dev/null
dune exec bin/sbdsolve.exe -- --equiv --witness '(ab)*a' 'a(ba)*' > /dev/null
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
# collapse; --no-bench skips wall-clock floors on shared runners
dune exec bin/experiments.exe -- contain-bench --no-bench --check

echo "== derivation bench gates =="
# cold-derives every state of the boolean + handwritten + dz3 suites,
# then gates: boolean dz3 solved% must be 100 and the warm DNF memo
# hit rate >= 0.9 on every suite (a hash-consing or memo regression
# shows up here before it shows up as wall time); --no-bench skips the
# throughput timing, which is meaningless on shared CI runners
dune exec bin/experiments.exe -- deriv-bench --no-bench --check

echo "== abstract pre-solver gates =="
# runs Absdom.presolve against the full solver over the whole corpus
# and the containment pair corpus: exits non-zero on any unsound
# abstract verdict, any witness the reference matcher rejects, a
# corpus hit rate < 25%, or a pair hit rate < 15%; --no-bench skips
# the password-family wall-clock A/B on shared runners
dune exec bin/experiments.exe -- absdom-bench --no-bench --check

echo "== engine throughput matrix gates =="
# steady-state (hot) MB/s floors per pattern class (literal / class /
# boolean / counter) plus engine-vs-scan span agreement; floors are
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

echo "== many-worker smoke =="
# one domain per worker with no cap on the count: 63 workers must
# answer every request and exit 0 after shutdown
out=$(printf '%s\n' \
  '{"id":1,"op":"solve","re":"a|b"}' \
  '{"id":2,"op":"solve","re":"ab&~ab"}' \
  '{"id":3,"op":"shutdown"}' \
  | dune exec bin/sbdserve.exe -- --workers 63)
echo "$out" | grep -q '"id":1,"status":"sat"' || { echo "63 workers: solve 1 missing"; exit 1; }
echo "$out" | grep -q '"id":2,"status":"unsat"' || { echo "63 workers: solve 2 missing"; exit 1; }
echo "$out" | grep -q '"id":3,"status":"ok","drained":true' || { echo "63 workers: shutdown reply missing"; exit 1; }
