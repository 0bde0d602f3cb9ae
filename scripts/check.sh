#!/usr/bin/env bash
# Five-step test gate, run before merging:
#
#   1. Release     — the full tier-1 suite (the seed gate), then
#                     bench_incremental at 50k rows: append-maintained
#                     FD cover, MDs, PLI CSR arrays and fingerprint must be
#                     bit-identical to a cold recompute.
#   2. ASan + UBSan — the relation substrate and the parallel engine
#                     (`-L relation`, `-L engine`), catching index
#                     arithmetic and lifetime bugs in the encoded
#                     columnar layer and the discovery drivers.
#   3. TSan        — the parallel engine differential/property tests
#                     (`-L engine`), catching data races across the
#                     thread-count {1, 2, 8} matrix.
#   4. Chaos smoke — the famtree-serve stress harness at intensified
#                     client/request counts in a fault-injection build
#                     (-DFAMTREE_FAULTS=ON), so the fine-grained
#                     FAMTREE_FAULT_POINT probes are compiled in while
#                     concurrent clients, appends, cancels, and injected
#                     faults race.
#   5. Benchmark self-test — `python3 perfbench/run.py --self-test`: every
#                     benchmark workload at tiny size, traced and untraced,
#                     must pass its correctness checks, report every
#                     declared metric, and fail when its reference is
#                     sabotaged.
#
# The out-of-core ingestion suite (`-L ingest`) runs in all three
# configurations: the spill/pread layer does manual buffer arithmetic
# (ASan) and shard residency moves concurrently with reads (TSan).
# The famtree-serve suite (`-L serve`) also runs in all three: the service
# core is lock-ordering-heavy (admission queue, result store, per-task
# state), so the TSan pass is the load-bearing one.
#
# The sanitizer configs intentionally skip the large-instance tier-1-only
# binaries (e.g. tests/hybrid_scale_test.cc): sanitizers multiply runtime
# and memory, and the same logic is covered at small scale by the
# `engine`-labeled differential suites.
#
# Usage: scripts/check.sh [build-dir-prefix]
#   Build trees are created as <prefix>, <prefix>-asan, <prefix>-tsan
#   (default prefix: build).

set -euo pipefail
cd "$(dirname "$0")/.."

PREFIX="${1:-build}"
JOBS="$(nproc)"

run() {
  echo "== $*" >&2
  "$@"
}

echo "=== [0/5] lint: no raw single-word attribute masks ==="
# Attribute-index bit arithmetic lives in the multi-word AttrSet; a raw
# `1ULL << n` over an attribute count reintroduces the pre-widening UB the
# moment n reaches 64. The allowlist is the AttrSet implementation itself
# plus the evidence kernel, whose shifts pack facet bits into a 64-bit
# word (a per-pair budget checked via EvidenceWordBits, not an attribute
# index). Comment-only lines are ignored.
LINT_ALLOW='^src/(common/attr_set\.(h|cc)|engine/evidence\.(h|cc)):'
LINT_HITS="$(grep -rnE '1ULL? <<|1ull <<|uint64_t[{(]1[})] <<' src \
  | grep -vE "$LINT_ALLOW" \
  | grep -vE ':[0-9]+:[[:space:]]*(//|\*)' || true)"
if [ -n "$LINT_HITS" ]; then
  echo "lint: raw 64-bit mask shift on a potential attribute index;" >&2
  echo "use AttrSet (common/attr_set.h) or extend the allowlist:" >&2
  echo "$LINT_HITS" >&2
  exit 1
fi

echo "=== [0/5] lint: no path-selecting flags in src/ ==="
# Every miner and quality application has one production path (the
# encoded one, with the evidence kernel where the input allows it);
# reference implementations live in tests/ as brute-force oracles. A
# use_encoding / use_evidence knob would bring back a second path that only
# tests reach.
FLAG_HITS="$(grep -rnE 'use_encoding|use_evidence' src || true)"
if [ -n "$FLAG_HITS" ]; then
  echo "lint: path-selecting flag in src/; put the reference in a test" >&2
  echo "oracle instead (tests/miner_oracle_test.cc):" >&2
  echo "$FLAG_HITS" >&2
  exit 1
fi

echo "=== [1/5] Release: ctest -L tier1 ==="
run cmake -B "$PREFIX" >/dev/null
run cmake --build "$PREFIX" -j "$JOBS"
run ctest --test-dir "$PREFIX" -L tier1 -j "$JOBS" --output-on-failure
# Exits nonzero on any maintained-vs-cold difference; its speedup gate
# applies only at >= 1M rows, so this small run checks identity alone.
run env FAMTREE_INCREMENTAL_ROWS=50000 "$PREFIX/bench/bench_incremental"

echo "=== [2/5] ASan+UBSan: ctest -L relation, -L engine, -L ingest, -L serve ==="
run cmake -B "$PREFIX-asan" -DFAMTREE_ASAN=ON >/dev/null
run cmake --build "$PREFIX-asan" -j "$JOBS"
run ctest --test-dir "$PREFIX-asan" -L relation -j "$JOBS" --output-on-failure
run ctest --test-dir "$PREFIX-asan" -L engine -j "$JOBS" --output-on-failure
run ctest --test-dir "$PREFIX-asan" -L ingest -j "$JOBS" --output-on-failure
run ctest --test-dir "$PREFIX-asan" -L serve -j "$JOBS" --output-on-failure

echo "=== [3/5] TSan: ctest -L engine, -L ingest, -L serve ==="
run cmake -B "$PREFIX-tsan" -DFAMTREE_TSAN=ON >/dev/null
run cmake --build "$PREFIX-tsan" -j "$JOBS"
run ctest --test-dir "$PREFIX-tsan" -L engine -j "$JOBS" --output-on-failure
run ctest --test-dir "$PREFIX-tsan" -L ingest -j "$JOBS" --output-on-failure
run ctest --test-dir "$PREFIX-tsan" -L serve -j "$JOBS" --output-on-failure

echo "=== [4/5] chaos smoke: serve stress under -DFAMTREE_FAULTS=ON ==="
# A dedicated Release build with the fine-grained fault points compiled in
# (they default OFF outside Debug), driven harder than the in-suite run:
# more clients and more requests per client, so admission, retry, the
# watchdog, and the result store all see real contention while the
# injected faults fire.
run cmake -B "$PREFIX-faults" -DFAMTREE_FAULTS=ON >/dev/null
run cmake --build "$PREFIX-faults" -j "$JOBS" --target serve_chaos_test
run env FAMTREE_CHAOS_CLIENTS=12 FAMTREE_CHAOS_REQUESTS=20 \
  "$PREFIX-faults/tests/serve_chaos_test"

echo "=== [5/5] benchmark self-test: perfbench/run.py --self-test ==="
# Builds perfbench/ from this checkout's sources into .bench_build/ and
# runs every workload's correctness checks, so a change that breaks an
# answer the benchmark checks fails here rather than at benchmark time.
run python3 perfbench/run.py --self-test

echo "=== all five steps passed ==="
