#ifndef FAMTREE_DISCOVERY_NED_DISCOVERY_H_
#define FAMTREE_DISCOVERY_NED_DISCOVERY_H_

#include <vector>

#include "common/status.h"
#include "deps/ned.h"
#include "relation/relation.h"

namespace famtree {

class EvidenceCache;
class PliCache;
class RunContext;
class ThreadPool;

struct NedDiscoveryOptions {
  /// Candidate thresholds per LHS attribute.
  std::vector<double> thresholds = {0, 1, 2, 5};
  /// Minimum number of pairs agreeing on the LHS.
  int min_support = 3;
  /// Minimum fraction of LHS pairs satisfying the target.
  double min_confidence = 0.95;
  /// LHS predicate count cap.
  int max_lhs_attrs = 2;
  /// Optional engine hooks: when `pool` is set the per-candidate pair
  /// scans run in parallel and the support / confidence filters replay the
  /// serial candidate order (bit-identical at any thread count); `cache`
  /// lends its encoding.
  ThreadPool* pool = nullptr;
  PliCache* cache = nullptr;
  /// Optional run limits (common/run_context.h): the driver check-points
  /// between deterministic units of work and, when a limit fires, returns
  /// the prefix of its results completed so far with RunReport.exhausted
  /// set. Null means unlimited.
  RunContext* context = nullptr;
  /// Optional shared store for the kernel-built evidence multiset. The
  /// miner runs on the dictionary-encoded backend (metric distances are
  /// lookups in per-attribute code-pair tables) and evaluates every
  /// candidate against the shared pairwise evidence multiset
  /// (engine/evidence.h): one kernel build packs each attribute's
  /// threshold-bucket index (the target's single threshold included) into
  /// a word per pair, and each candidate's support / confidence counts are
  /// folds over the deduplicated words. NED keeps row-pair scans for a
  /// dictionary holding a non-finite double and for a target metric
  /// outside the built-ins, because the two read a NaN distance
  /// differently: Ned's validator tests `d > threshold`, which is false
  /// for NaN, so a NaN distance agrees; the bucket facet tests
  /// `d <= threshold` and puts it past every threshold, dissimilar. The
  /// guard keeps NaN distances out of the kernel path, which therefore
  /// gives the scans' output.
  EvidenceCache* evidence = nullptr;
};

struct DiscoveredNed {
  Ned ned;
  int64_t support = 0;
  double confidence = 0.0;
};

/// NED discovery [4]: given the target RHS predicate, searches LHS
/// neighborhood predicates with sufficient support and confidence. The
/// full problem is NP-hard in the attribute count (Section 3.2.3); this
/// enumerates LHS sets of bounded size, which is the practical regime.
Result<std::vector<DiscoveredNed>> DiscoverNeds(
    const Relation& relation, const Ned::Predicate& target,
    const NedDiscoveryOptions& options = {});

}  // namespace famtree

#endif  // FAMTREE_DISCOVERY_NED_DISCOVERY_H_
