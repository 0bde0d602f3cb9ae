#ifndef FAMTREE_DISCOVERY_TANE_H_
#define FAMTREE_DISCOVERY_TANE_H_

#include <vector>

#include "common/attr_set.h"
#include "common/status.h"
#include "relation/relation.h"

namespace famtree {

class PliCache;
class RunContext;
class ThreadPool;

/// One discovered (approximate) functional dependency X -> A.
struct DiscoveredFd {
  AttrSet lhs;
  int rhs = 0;
  /// g3 error of the dependency on the input (0 for exact FDs).
  double error = 0.0;
};

struct TaneOptions {
  /// Maximum g3 error: 0 discovers exact FDs, > 0 discovers AFDs
  /// (Section 2.3.3 — the validity test swaps to g3 <= max_error).
  double max_error = 0.0;
  /// Lattice levels to explore (LHS size cap). The minimal cover can be
  /// exponential in the attribute count (Section 1.4.2), so production
  /// profiling runs bound the level.
  int max_lhs_size = 5;
  /// Safety valve on emitted dependencies.
  int max_results = 100000;
  /// Optional engine hooks (see src/engine/; the walk runs on the
  /// dictionary-encoded backend, so level-1 partitions are counting-sorted from
  /// per-column code arrays and the g3 validity tests count plurality RHS
  /// codes): when `pool` is set, each lattice level's validity tests and
  /// partition products are evaluated in parallel; when `cache` is set,
  /// partitions are served from the shared per-relation PLI store instead of
  /// private copies (and the cache's encoded backend is reused instead of
  /// re-encoding). All hooks are independent and the discovered dependency list
  /// is bit-identical in every combination (asserted by
  /// tests/engine_determinism_test.cc).
  ThreadPool* pool = nullptr;
  PliCache* cache = nullptr;
  /// Optional run limits; the driver check-points once per lattice level.
  /// When a limit fires it returns the FDs of the completed levels — a
  /// deterministic prefix of the full output at any thread count — and
  /// records the cutoff in the context's RunReport.
  RunContext* context = nullptr;
};

/// TANE [53], [54]: levelwise lattice search over attribute sets using
/// stripped partitions, with RHS-candidate (C+) and key pruning. Returns
/// minimal non-trivial dependencies X -> A.
Result<std::vector<DiscoveredFd>> DiscoverFdsTane(const Relation& relation,
                                                  const TaneOptions& options);

/// Cache-only entry: runs TANE against whatever backend `cache` serves,
/// including the out-of-core ShardedEncodedRelation backend that has no
/// materialized Relation at all. Exact discovery (max_error == 0) is
/// PLI-only — partitions stream out of spill-merged runs and no flat code
/// arrays are ever materialized. Approximate discovery needs the encoded
/// columns for its g3 tests, so it materializes them first
/// (PliCache::EnsureEncoded, charged against the run's budget with
/// shard-spill fallback). `options.cache` is overwritten with `cache`;
/// in-memory caches produce output bit-identical to the Relation entry.
Result<std::vector<DiscoveredFd>> DiscoverFdsTane(PliCache* cache,
                                                  const TaneOptions& options);

/// Naive pairwise baseline used by the PLI ablation bench: checks every
/// candidate LHS by grouping rows per candidate instead of partition
/// products. Semantics match DiscoverFdsTane on exact FDs.
Result<std::vector<DiscoveredFd>> DiscoverFdsNaive(const Relation& relation,
                                                   const TaneOptions& options);

}  // namespace famtree

#endif  // FAMTREE_DISCOVERY_TANE_H_
