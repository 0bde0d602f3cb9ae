#ifndef FAMTREE_DISCOVERY_FASTFD_H_
#define FAMTREE_DISCOVERY_FASTFD_H_

#include <vector>

#include "common/status.h"
#include "discovery/tane.h"
#include "relation/relation.h"

namespace famtree {

class RunContext;

struct FastFdOptions {
  /// Bound on emitted dependencies.
  int max_results = 100000;
  /// Bound on LHS size (covers larger than this are cut off).
  int max_lhs_size = 8;
  /// When set, the quadratic difference-set construction is chunked over
  /// row ranges and the per-RHS cover searches run concurrently; results
  /// merge in attribute order, bit-identical to the serial search for any
  /// thread count (tests/engine_determinism_test.cc).
  ThreadPool* pool = nullptr;
  /// Optional run limits (common/run_context.h): the driver check-points
  /// between deterministic units of work and, when a limit fires, returns
  /// the prefix of its results completed so far with RunReport.exhausted
  /// set. Null means unlimited.
  RunContext* context = nullptr;
};

/// FastFDs [112]: computes the difference sets of all tuple pairs (the
/// attribute sets on which a pair disagrees), then for each RHS attribute
/// finds all minimal covers of the difference sets that contain it via a
/// depth-first search. Each minimal cover X yields a minimal FD X -> A.
/// Exact FDs only; complements TANE's levelwise strategy (Section 1.4.2).
Result<std::vector<DiscoveredFd>> DiscoverFdsFastFd(
    const Relation& relation, const FastFdOptions& options = {});

}  // namespace famtree

#endif  // FAMTREE_DISCOVERY_FASTFD_H_
