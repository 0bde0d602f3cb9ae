#ifndef FAMTREE_DISCOVERY_FASTDC_H_
#define FAMTREE_DISCOVERY_FASTDC_H_

#include <vector>

#include "common/status.h"
#include "deps/dc.h"
#include "relation/relation.h"

namespace famtree {

class EvidenceCache;
class PliCache;
class RunContext;
class ThreadPool;

struct FastDcOptions {
  /// Cap on predicates per DC (search depth).
  int max_predicates = 4;
  /// Cap on emitted DCs.
  int max_results = 10000;
  /// Approximation: a DC may be violated by at most this fraction of
  /// ordered tuple pairs (A-FASTDC [19]); 0 = exact.
  double max_violation_fraction = 0.0;
  /// Also build cross-column predicates between numeric columns of the
  /// same type (joinable columns in FASTDC terms).
  bool cross_column = false;
  /// Evidence sets are built from all ordered pairs when the row count is
  /// at most this; beyond it, a random sample of pairs is used.
  int max_rows_exact = 2000;
  uint64_t seed = 42;
  /// When set, the evidence set — FASTDC's quadratic hotspot — is built in
  /// parallel: tuple pairs are split into contiguous chunks, each chunk
  /// accumulates a private evidence multiset, and the chunks are merged by
  /// commutative addition, so the result is bit-identical to the serial
  /// build for any thread count (tests/engine_determinism_test.cc).
  ThreadPool* pool = nullptr;
  /// Optional run limits (common/run_context.h): the driver check-points
  /// between deterministic units of work and, when a limit fires, returns
  /// the prefix of its results completed so far with RunReport.exhausted
  /// set. Null means unlimited.
  RunContext* context = nullptr;
  /// The evidence set is built on the dictionary-encoded backend through
  /// the shared pairwise kernel (engine/evidence.h): one comparison word
  /// per unordered pair — an equality bit per categorical column, an order
  /// field per numeric column and, with cross_column, per ordered pair of
  /// numeric columns — deduplicated into a multiset, and each of the six
  /// predicate outcomes decoded from the word once per distinct word
  /// instead of once per pair. Ordered-pair evidence is the unordered
  /// multiset plus its mirror. An order field reads "unordered" for a NaN
  /// against a number, which satisfies only !=, exactly as Value's
  /// operators (and DcPredicate::Eval) decide.
  /// Optional shared store for kernel-built evidence multisets, keyed by
  /// relation content + column config; only the exact (all-pairs) build is
  /// cacheable.
  EvidenceCache* evidence = nullptr;
  /// Optional PLI store serving `relation`: lends its encoding and its
  /// fingerprint, so a call encodes and hashes nothing itself.
  PliCache* cache = nullptr;
};

struct DiscoveredDc {
  Dc dc;
  /// Fraction of ordered pairs violating the DC (0 for exact results).
  double violation_fraction = 0.0;
};

/// The predicate space FASTDC builds over a schema: equality/inequality
/// for every column, the full order operator set for numeric columns.
/// Exposed for tests and the complexity bench.
std::vector<DcPredicate> BuildPredicateSpace(const Relation& relation,
                                             bool cross_column);

/// FASTDC [19]: computes the evidence set (satisfied predicates) of every
/// ordered tuple pair, then finds minimal predicate sets that no evidence
/// set contains — equivalently minimal hitting sets of the complemented
/// evidence — each yielding a valid minimal DC. The options select the
/// approximate (A-FASTDC) variant.
Result<std::vector<DiscoveredDc>> DiscoverDcs(const Relation& relation,
                                              const FastDcOptions& options = {});

/// C-FASTDC-style constant DCs: for each categorical value group with
/// sufficient support and each numeric column, emits the range constraints
/// that hold within the group, e.g. not(region = 'Chicago' and
/// price < 200) — the paper's Section 1.6 example.
Result<std::vector<DiscoveredDc>> DiscoverConstantDcs(
    const Relation& relation, int min_support = 3);

}  // namespace famtree

#endif  // FAMTREE_DISCOVERY_FASTDC_H_
