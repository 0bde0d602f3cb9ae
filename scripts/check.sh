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
# plus the evidence kernel, whose shifts place facet bits within one 64-bit
# lane of the comparison word (a facet never straddles two lanes; the
# shift is a lane offset, not an attribute index). Comment-only lines are
# ignored.
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

echo "=== [0/5] lint: no path-selecting flags or second content address in src/ ==="
# Every miner and quality application has one production path (the
# encoded one, with the evidence kernel behind every pairwise miner);
# reference implementations live in tests/ as brute-force oracles. A
# use_encoding / use_evidence / use_hybrid knob would bring back a second
# path that only tests reach. Every engine store is keyed by the one
# relation content fingerprint; an EncodingFingerprint (codes alone) would
# let relations with equal codes but different values share evidence.
FLAG_HITS="$(grep -rnE 'use_encoding|use_evidence|use_hybrid|EncodingFingerprint' src || true)"
if [ -n "$FLAG_HITS" ]; then
  echo "lint: deleted flag or content address in src/; put a reference" >&2
  echo "in a test oracle (tests/miner_oracle_test.cc) and key stores by" >&2
  echo "RelationFingerprint instead:" >&2
  echo "$FLAG_HITS" >&2
  exit 1
fi

echo "=== [0/5] lint: the comparison word is packed in one place ==="
# PairComparator's strip kernel (src/engine/evidence.cc) is the only code
# that packs facets into the comparison word; Word is its one-partner
# strip. A second packing loop elsewhere (a detector- or dedup-local strip)
# would duplicate the layout and drift from it. Consumers read words
# through the layout's masks (cmp_mask / bucket_mask, EvidenceSet::CmpOf).
# Comment-only lines are ignored.
PACK_HITS="$(grep -rnE '[|]=.*<<.*(cmp_shift|bucket_shift)' src \
  | grep -vE '^src/engine/evidence\.cc:' \
  | grep -vE ':[0-9]+:[[:space:]]*(//|\*)' || true)"
if [ -n "$PACK_HITS" ]; then
  echo "lint: comparison-word packing outside src/engine/evidence.cc;" >&2
  echo "compute words with PairComparator::Strip / Word instead:" >&2
  echo "$PACK_HITS" >&2
  exit 1
fi

echo "=== [0/5] lint: no consumer branches on the comparison word's width ==="
# PairComparator and the evidence builds take a word of any width (as many
# 64-bit lanes as the config needs), so every pairwise miner and quality
# application runs the kernel on every input. A consumer that measures the
# word (EvidenceWordBits, a facet-set packable() check) or tests for a
# width error would bring back the second, pre-kernel path it chose
# between. Comment-only lines are ignored.
WIDTH_HITS="$(grep -rnE 'EvidenceWordBits\(|packable\(|"evidence word exceeds' src \
  | grep -vE '^src/engine/evidence\.(h|cc):' \
  | grep -vE ':[0-9]+:[[:space:]]*(//|\*)' || true)"
if [ -n "$WIDTH_HITS" ]; then
  echo "lint: comparison-word width test outside src/engine/evidence.*;" >&2
  echo "build the evidence (or the PairComparator) for every config:" >&2
  echo "$WIDTH_HITS" >&2
  exit 1
fi

echo "=== [0/5] lint: one partition product recipe ==="
# Every multi-attribute partition is a refinement of a cached or parent
# partition by one attribute's codes (StrippedPartition::Refine); the
# stamped-leaf Product is its byte-identical form for the out-of-core PLI
# cache without a flat encoding. A Product call elsewhere in src/ would be
# a second recipe with its own class order and cost.
PRODUCT_HITS="$(grep -rnE '\bProduct\(' src \
  | grep -vE '^src/(relation/partition\.(h|cc)|engine/pli_cache\.cc):' \
  | grep -vE ':[0-9]+:[[:space:]]*(//|\*)' || true)"
if [ -n "$PRODUCT_HITS" ]; then
  echo "lint: partition Product outside relation/partition.* and" >&2
  echo "engine/pli_cache.cc; refine by the added attribute's codes" >&2
  echo "(StrippedPartition::Refine) or Get the partition from the PliCache:" >&2
  echo "$PRODUCT_HITS" >&2
  exit 1
fi

echo "=== [0/5] lint: one value dictionary ==="
# Every column dictionary (EncodedRelation's constructor and Appended, the
# out-of-core ingester) encodes through ValueDictionary
# (src/relation/encoded_relation.h): one flat table that returns the lowest
# equal code. A per-hash bucket map would be a second dictionary with its
# own growth and tie rules.
DICT_HITS="$(grep -rnE 'unordered_map<[[:space:]]*(std::)?size_t,[[:space:]]*(std::)?vector<[[:space:]]*(std::)?uint32_t[[:space:]]*>[[:space:]]*>' src || true)"
if [ -n "$DICT_HITS" ]; then
  echo "lint: per-hash bucket dictionary in src/; encode through" >&2
  echo "ValueDictionary (src/relation/encoded_relation.h) instead:" >&2
  echo "$DICT_HITS" >&2
  exit 1
fi

echo "=== [0/5] lint: one edit-distance kernel ==="
# Every edit distance in src/ (LevenshteinDistance, EditDistanceMetric,
# EditResemblance, the code-table fills) runs the bit-parallel
# EditDistanceKernel in src/metric/metric.cc, and the table fills bound a
# pair before scanning it. A banded second kernel or a cell-by-cell DP row
# elsewhere would be a second edit-distance path with its own cost and
# its own chance to disagree; the plain DP lives in tests as the oracle.
# Comment-only lines are ignored.
EDIT_HITS="$( { grep -rnE 'LevenshteinDistanceBounded' src || true; \
  grep -rnE 'prev\[j - 1\] \+ cost' src \
    | grep -vE '^src/metric/metric\.cc:' || true; } \
  | grep -vE ':[0-9]+:[[:space:]]*(//|\*)' || true)"
if [ -n "$EDIT_HITS" ]; then
  echo "lint: second edit-distance kernel in src/; compute distances with" >&2
  echo "LevenshteinDistance or EditDistanceKernel (src/metric/metric.h):" >&2
  echo "$EDIT_HITS" >&2
  exit 1
fi

echo "=== [0/5] lint: the pool runs ParallelFor calls only ==="
# ThreadPool (src/common/thread_pool.{h,cc}) keeps one list of posted
# ParallelFor calls: each call waits only for the helpers that joined it,
# and idle workers block until a call is posted. A Submit/Wait task API
# would bring back a pool-wide join (one request waiting on another's
# work, a nested call waiting on itself); a timed wait would bring back
# the idle poll.
POOL_HITS="$(grep -nE 'wait_for\(|void Submit\(|void Wait\(' \
  src/common/thread_pool.h src/common/thread_pool.cc || true)"
if [ -n "$POOL_HITS" ]; then
  echo "lint: task API or timed wait in the thread pool; run parallel work" >&2
  echo "through ParallelFor and block idle workers without a timeout:" >&2
  echo "$POOL_HITS" >&2
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
