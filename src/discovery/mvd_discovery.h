#ifndef FAMTREE_DISCOVERY_MVD_DISCOVERY_H_
#define FAMTREE_DISCOVERY_MVD_DISCOVERY_H_

#include <vector>

#include "common/attr_set.h"
#include "common/status.h"
#include "relation/relation.h"

namespace famtree {

class PliCache;
class RunContext;
class ThreadPool;

struct MvdDiscoveryOptions {
  /// LHS size cap for the hypothesis-space walk.
  int max_lhs_size = 2;
  /// AMVD tolerance: maximum spurious-tuple ratio (0 = exact MVDs).
  double max_spurious_ratio = 0.0;
  int max_results = 100000;
  /// Optional engine hooks (the spurious-tuple ratios are counted over the
  /// dictionary-encoded backend's dense row keys): when `pool` is set the
  /// candidate (LHS, RHS) ratios are computed in parallel and merged in
  /// candidate order (bit-identical at any thread count); `cache` lends its
  /// encoding. The FHD assembly on top of the discovered MVDs stays serial
  /// (each greedy step depends on the previous acceptance).
  ThreadPool* pool = nullptr;
  PliCache* cache = nullptr;
  /// Optional run limits (common/run_context.h): the driver check-points
  /// between deterministic units of work and, when a limit fires, returns
  /// the prefix of its results completed so far with RunReport.exhausted
  /// set. Null means unlimited.
  RunContext* context = nullptr;
};

struct DiscoveredMvd {
  AttrSet lhs;
  AttrSet rhs;
  /// Measured spurious-tuple ratio (0 for exact).
  double spurious_ratio = 0.0;
};

/// Levelwise MVD discovery in the spirit of [82]: walks LHS sets from most
/// general to more specific; for each LHS enumerates candidate RHS blocks
/// (non-trivial, canonical: RHS contains the lowest non-LHS attribute to
/// avoid reporting both X ->> Y and the complementary X ->> Z). With
/// max_spurious_ratio > 0 this discovers AMVDs [59].
Result<std::vector<DiscoveredMvd>> DiscoverMvds(
    const Relation& relation, const MvdDiscoveryOptions& options = {});

struct DiscoveredFhd {
  AttrSet lhs;
  std::vector<AttrSet> blocks;
};

/// FHD discovery (Section 2.6.5, [27]): assembles hierarchical
/// decompositions X : {Y1; ...; Yk} by growing block partitions from the
/// discovered MVDs sharing a LHS, keeping candidates the full product
/// check (Fhd::Holds) confirms. Reports maximal-k FHDs per LHS.
Result<std::vector<DiscoveredFhd>> DiscoverFhds(
    const Relation& relation, const MvdDiscoveryOptions& options = {});

}  // namespace famtree

#endif  // FAMTREE_DISCOVERY_MVD_DISCOVERY_H_
