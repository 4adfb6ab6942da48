#!/usr/bin/env bash
# One-shot local CI gate: configure, build, test, analyze — and, when a Clang
# toolchain is on PATH, prove the thread-safety annotations with
# -Werror=thread-safety. Run from anywhere inside the repo:
#
#   tools/ci/check.sh            # full gate
#   SKIP_BUILD=1 tools/ci/check.sh   # reuse an existing build/ tree
#
# Exit status is non-zero on the first failing stage.

set -euo pipefail

ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/../.." && pwd)"
BUILD_DIR="${BUILD_DIR:-${ROOT}/build}"
JOBS="${JOBS:-$(nproc 2>/dev/null || echo 4)}"

step() { printf '\n==== %s ====\n' "$*"; }

# ---------------------------------------------------------------- build
if [[ -z "${SKIP_BUILD:-}" ]]; then
  step "configure (${BUILD_DIR})"
  cmake -B "${BUILD_DIR}" -S "${ROOT}"
  step "build (-j${JOBS})"
  cmake --build "${BUILD_DIR}" -j "${JOBS}"
fi

# ---------------------------------------------------------------- tests
step "ctest"
ctest --test-dir "${BUILD_DIR}" --output-on-failure -j "${JOBS}"

# ---------------------------------------------------------------- golden
# The plan-snapshot golden: every NREF2J/NREF3J query and the SkTH3J family,
# planned on P, 1C and a System C recommendation, must reproduce
# tests/golden/plan_snapshot.txt (EXPLAIN text, est_cost with %a, a digest
# of each node's fields), and EstimateCost / Database::Estimate must
# bit-equal the plan-building entry points. The label also selects the
# figure-suite golden: tabbench_suite's stdout at 1/6400 x 10 queries, whole
# and section by section, must equal tests/golden/figure_suite.txt. They ran
# in the full pass above; the labelled re-run names the stage in the log. A
# re-baseline copies the failing run's plan_snapshot.actual or
# figure_suite.actual over its golden with a CHANGES.md line.
step "ctest -L golden (plan snapshot, figure suite)"
ctest --test-dir "${BUILD_DIR}" -L golden --output-on-failure -j "${JOBS}"

# ----------------------------------------------------------------- chaos
# The chaos suite already ran above as part of the full ctest pass; run it
# again with an env-armed fault schedule so the TABBENCH_FAULTS parsing
# path is exercised end to end (the suite disarms programmatically, so the
# env schedule only needs to load cleanly and not break anything).
step "ctest -L chaos (TABBENCH_FAULTS armed)"
TABBENCH_FAULTS="storage.heap_scan=unavailable@prob:0.01:7" \
  ctest --test-dir "${BUILD_DIR}" -L chaos --output-on-failure -j "${JOBS}"

# Chaos under TSan: the fault registry, failure isolation and the parallel
# runner's record workers all run on worker threads; prove them race-free.
# Works under both GCC and Clang (-fsanitize=thread).
step "ctest -L chaos under TABBENCH_SANITIZE=thread"
TSAN_DIR="${ROOT}/build-tsan-chaos"
cmake -B "${TSAN_DIR}" -S "${ROOT}" -DTABBENCH_SANITIZE=thread
cmake --build "${TSAN_DIR}" -j "${JOBS}" --target tabbench_chaos_tests
ctest --test-dir "${TSAN_DIR}" -L chaos --output-on-failure -j "${JOBS}"

# The vectorized golden suite under TSan as well: its morsel workers hammer
# the scheduler's claim loop, the partitioned join merge, and the shared
# fragment buffers — the exact surfaces where a data race would corrupt the
# bit-identity contract without failing any single-threaded test.
step "ctest -L vectorized under TABBENCH_SANITIZE=thread"
cmake --build "${TSAN_DIR}" -j "${JOBS}" --target tabbench_vec_tests
ctest --test-dir "${TSAN_DIR}" -L vectorized --output-on-failure -j "${JOBS}"

# The concurrency suite under TSan: the thread pool, the B-tree stats cache
# and IN-set memo under concurrent readers, and the parallel runner, whose
# record workers also race to rebuild the database's planner memo right
# after a configuration change. PreparedQueryMemoConcurrencyTest has nproc
# threads Plan and Estimate overlapping texts right after a configuration
# change and a statistics pass, so they race to refill the prepared-query
# memo under its lock. The vectorized binary built above carries the label
# too and runs again here.
step "ctest -L concurrency under TABBENCH_SANITIZE=thread"
cmake --build "${TSAN_DIR}" -j "${JOBS}" --target tabbench_concurrency_tests
ctest --test-dir "${TSAN_DIR}" -L concurrency --output-on-failure -j "${JOBS}"

# ------------------------------------------------------------ perfbench
# The simulated-output digest gate: one short traced cfc_nref2j run checks
# all four perfbench workloads' carried seed-1 digests and the serial,
# 1-worker, parallel and vectorized equivalences. Every cached or replayed
# charge path (the IN-set memo, trace replay) must reproduce the live
# charges bit for bit, or a digest moves. perfbench/run.py builds its own
# tree under .bench_build/; this stage only reads its last stdout line.
step "perfbench digest gate (cfc_nref2j, seed 1, traced)"
PB_LAST="$(cd "${ROOT}" && python3 perfbench/run.py --workload cfc_nref2j \
  --seed 1 --seconds 5 --trace 1 | tail -n 1)"
if ! python3 -c '
import json, sys
r = json.loads(sys.argv[1])
sys.exit(0 if r.get("correct") is True and r.get("failed") == 0 else 1)
' "${PB_LAST}"; then
  echo "perfbench digest gate failed: ${PB_LAST:0:300}"
  exit 1
fi
echo "perfbench: correct, 0 failed"

# ------------------------------------------------------------- vectorized
# The morsel-driven vectorized engine: the golden suite proves simulated
# costs bit-identical to the Volcano executor (ctest -L vectorized also ran
# in the full pass above; -L scopes the re-run). Then a small bench_parallel
# run checks the same contract end to end: every inter-query worker count
# and every vectorized helper budget must reproduce the sequential run's
# simulated results bit for bit, or the binary exits 1.
step "ctest -L vectorized"
ctest --test-dir "${BUILD_DIR}" -L vectorized --output-on-failure -j "${JOBS}"

step "bench_parallel smoke (serial = parallel = vectorized, bit-identical)"
TABBENCH_WORKLOAD=8 TABBENCH_WORKERS=2 "${BUILD_DIR}/bench/bench_parallel"

# The Section 4.4 write path (single-row inserts under P, R and 1C, then
# the workload on each) must run to completion.
step "bench_insertions smoke (write path under P, R, 1C)"
TABBENCH_WORKLOAD=8 "${BUILD_DIR}/bench/bench_insertions"

# ------------------------------------------------------------ kill-resume
# Crash-safety proof at the process level, via the CLI rather than gtest:
# a benchmark child is SIGKILLed mid-run by the TABBENCH_JOURNAL_CRASH_AFTER
# hook, resumed from its journal, and the healed journal must be
# byte-identical to one from an uninterrupted run.
step "kill-resume (SIGKILL mid-run, resume, byte-compare journals)"
KR_DIR="$(mktemp -d)"
trap 'rm -rf "${KR_DIR}"' EXIT
CLI="${BUILD_DIR}/examples/tabbench_cli"
set +e
TABBENCH_JOURNAL_CRASH_AFTER=5 \
  "${CLI}" bench nref nref2j "${KR_DIR}/killed.tbj" 800 p
KILL_STATUS=$?
set -e
if [[ ${KILL_STATUS} -ne 137 ]]; then
  echo "expected the child to die by SIGKILL (exit 137), got ${KILL_STATUS}"
  exit 1
fi
"${CLI}" resume "${KR_DIR}/killed.tbj"
"${CLI}" bench nref nref2j "${KR_DIR}/clean.tbj" 800 p
cmp "${KR_DIR}/killed.tbj" "${KR_DIR}/clean.tbj"
echo "resumed journal is byte-identical to the uninterrupted run"

# --------------------------------------------------------------- analyze
# The static analyzer, all 22 rules in one run: the per-file rules
# (determinism, naked-new, raw-sleep, float-equal, unsynced-write,
# unchecked-status, unordered-iter, include-guard, include-hygiene), the
# whole-program passes (layering, lock-order, Status-flow, nondeterminism
# taint, lockset inference, blocking-under-lock), and the path-sensitive
# CFG passes (durability-protocol ordering vs tools/analyze/protocols.txt,
# release-on-all-paths, error-path soundness). Any finding fails. ctest
# already ran analyze_repo; running the binary here puts the
# human-readable findings (if any) at the end of the log. The SARIF
# artifact is what a code-scanning UI ingests.
step "tabbench_analyze (any finding fails)"
"${BUILD_DIR}/tools/analyze/tabbench_analyze" --root "${ROOT}" \
  --sarif "${BUILD_DIR}/analyze.sarif"
echo "SARIF artifact: ${BUILD_DIR}/analyze.sarif"

# Fault-injection coverage: which layers carry TB_FAULT_POINT sites and
# which carry none — printed for review, then enforced as a ratchet: any
# layer recorded in tools/analyze/fault_layers.txt that drops below its
# floor of sites fails the gate, so chaos-test reach only grows.
step "tabbench_analyze --fault-coverage (ratchet vs fault_layers.txt)"
"${BUILD_DIR}/tools/analyze/tabbench_analyze" --root "${ROOT}" \
  --fault-coverage
"${BUILD_DIR}/tools/analyze/tabbench_analyze" --root "${ROOT}" \
  --check-fault-coverage "${ROOT}/tools/analyze/fault_layers.txt"

# ----------------------------------------------------------------- ubsan
# The util/journal layer does the repo's pointer-and-bit arithmetic (CRC32C
# tables, varint packing, Zipf sampling, journal framing); run those suites
# with every UB report turned into an abort (-fno-sanitize-recover=all).
# Journal resume decodes traces and runs them through ExecContext::Apply,
# so the trace interpreter's suite (ExecContextTest) rides along, as do the
# seeded fuzzers of the repo's other parsers: the journal loader
# (RunJournalFuzzTest: flipped, cut and re-checksummed journals), the
# TABBENCH_FAULTS grammar (FaultSpecFuzzTest) and workload files
# (WorkloadIoFuzzTest), which feed mutated text through from_chars and the
# crc32c trailer check.
step "util/journal suites under TABBENCH_SANITIZE=undefined"
UBSAN_DIR="${ROOT}/build-ubsan"
cmake -B "${UBSAN_DIR}" -S "${ROOT}" -DTABBENCH_SANITIZE=undefined
cmake --build "${UBSAN_DIR}" -j "${JOBS}" --target tabbench_tests
"${UBSAN_DIR}/tests/tabbench_tests" --gtest_brief=1 --gtest_filter=\
'Crc32cTest.*:CrcTrailerTest.*:ExecContextTest.*:JournalResumeTest.*'\
':FaultSpecFuzzTest.*:WorkloadIoFuzzTest.*'\
':ResultTest.*:RngTest.*:RunJournalTest.*:RunJournalFuzzTest.*'\
':StatusTest.*'\
':StringsTest.*:ZipfTest.*'

# ----------------------------------------------------------------- asan
# The read path decodes every row into a buffer its caller reuses (heap
# cursor, FetchInto, join concat and key projection into operator-owned
# tuples), and heap pages are written at offsets the slot directory
# records; run the codec, heap, B+-tree and executor suites — plus the
# oversized-record tests, whose rows would overflow a page if the size
# check slipped — with AddressSanitizer, so a stale, overlapping or
# out-of-page write fails here rather than corrupting rows silently. The
# index-NL join and the leaf index scan read index-only keys in place
# through pointers into B-tree leaves (BTree::Iterator::NextKey), and index
# builds and statistics passes sort abbreviated keys that index back into
# the scanned entries; their suites (ExecIndexNLJoinTest, ExecIndexScanTest,
# EngineBTreeBuildSortTest, AbbrevSortTest, StatsCollectorTest) match Exec*,
# *BTree*, AbbrevSortTest.* and StatsCollectorTest.*. The equi-depth
# histogram is built from the statistics pass's value runs, which it reads
# by index with one run of lookahead (HistogramTest.*).
# Filtering reads test rows on their page bytes: the in-place evaluator
# (CompiledPred::EvalEncoded) and the flat IN-set (FlatInSet) read columns
# through pointers into heap pages (TupleCodec::Column) and B-tree leaves,
# and the set keeps its string members in one arena it grows; so a read past
# a record's end or into a moved arena must fail here. Their suites are
# *FlatInSet*, *EvalEncoded* and ExecSeqScanTest (matched by Exec*).
# The SQL front end rides along: the lexer scans string views of its input and
# the parser moves token text into the AST, and the seeded front-end fuzzer
# (SqlFuzz*) feeds both flipped bytes, cut tokens and unterminated quotes.
# The planner holds its units' column names as pointers into the catalog's
# table definitions and the configuration view's view definitions, so the
# planner suites, the plan-snapshot golden and the advisor suites (whose
# trial memo plans against short-lived hypothetical views; System C's on
# TPC-H plans views; AdvisorTest.* covers candidate generation, budgets and
# Unit::RelevantTo, and every advisor suite runs the one greedy search,
# which swaps its cost buffers rather than reallocating them) run here too:
# a dangling name pointer fails here rather than reading freed memory. Each
# planner call also keeps its search state in a stack-buffer arena that
# dies on return, so those suites and the planner's allocation contract
# (PlannerArenaTest) run with
# detect_stack_use_after_return=1: without it, a plan that kept a pointer
# into the arena would read a dead frame silently. The database's
# prepared-query memo hands each planning call a PreparedQuery that points
# into its entry's bound query, the catalog and the statistics; its tests
# are PlannerMemoTest.* and PlannerArenaTest.* (the memo-hit leg of the
# allocation contract), which the filters below already select.
step "storage/exec/sql/planner/advisor suites under TABBENCH_SANITIZE=address"
ASAN_DIR="${ROOT}/build-asan"
cmake -B "${ASAN_DIR}" -S "${ROOT}" -DTABBENCH_SANITIZE=address
cmake --build "${ASAN_DIR}" -j "${JOBS}" \
  --target tabbench_tests tabbench_golden_tests tabbench_planner_arena_tests
"${ASAN_DIR}/tests/tabbench_tests" --gtest_brief=1 --gtest_filter=\
'TupleCodecTest.*:*CodecFuzz.*:HeapTableTest.*:*BTree*:Exec*:*Equivalence*'\
':EngineTest.OversizedRowsAreRejectedBeforeAnyChange'\
':AbbrevSortTest.*:StatsCollectorTest.*:HistogramTest.*'\
':*FlatInSet*:*EvalEncoded*'\
':LexerTest.*:ParserTest.*:SqlFuzz*'
ASAN_OPTIONS=detect_stack_use_after_return=1 \
  "${ASAN_DIR}/tests/tabbench_tests" --gtest_brief=1 --gtest_filter=\
'OptimizerTest.*:CostModelTest.*:PlannerMemoTest.*'\
':AdvisorTest.*:AdvisorNrefTest.*:AdvisorTpchTest.*:GoalAdvisorTest.*'
ASAN_OPTIONS=detect_stack_use_after_return=1 \
  "${ASAN_DIR}/tests/tabbench_golden_tests" --gtest_brief=1 \
  --gtest_filter='PlanGoldenTest.*'
ASAN_OPTIONS=detect_stack_use_after_return=1 \
  "${ASAN_DIR}/tests/tabbench_planner_arena_tests" --gtest_brief=1 \
  --gtest_filter='PlannerArenaTest.*'

# -------------------------------------------------- thread-safety proof
# The TB_GUARDED_BY/TB_REQUIRES annotations only carry weight under
# Clang's -Wthread-safety analysis; GCC compiles them away. Gate this
# stage on clang++ being available rather than failing on GCC-only boxes.
if command -v clang++ >/dev/null 2>&1; then
  step "clang -Werror=thread-safety build"
  TSA_DIR="${ROOT}/build-tsa"
  cmake -B "${TSA_DIR}" -S "${ROOT}" \
    -DCMAKE_CXX_COMPILER=clang++ \
    -DCMAKE_C_COMPILER=clang
  # The annotated surfaces: the thread pool, fault registry and run journal
  # (util), the B-tree stats cache (storage), the IN-set memo (exec), the
  # morsel scheduler (exec_vec), and the database's planner memos (engine).
  cmake --build "${TSA_DIR}" -j "${JOBS}" \
    --target tb_util tb_storage tb_exec tb_exec_vec tb_engine
else
  step "clang++ not found — skipping -Wthread-safety build"
fi

step "all checks passed"
