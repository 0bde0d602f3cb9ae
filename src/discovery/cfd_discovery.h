#ifndef FAMTREE_DISCOVERY_CFD_DISCOVERY_H_
#define FAMTREE_DISCOVERY_CFD_DISCOVERY_H_

#include <vector>

#include "common/status.h"
#include "deps/cfd.h"
#include "relation/relation.h"

namespace famtree {

class PliCache;
class RunContext;
class ThreadPool;

struct CfdDiscoveryOptions {
  /// Minimum number of tuples a pattern must cover.
  int min_support = 3;
  /// LHS size cap.
  int max_lhs_size = 3;
  /// Constant condition attributes per general CFD (1 = single-condition
  /// CTANE-lite, 2 = pairs of constants).
  int max_condition_attrs = 1;
  int max_results = 100000;
  /// Optional engine hooks (the miners run on the dictionary-encoded backend,
  /// so grouping, uniformity and embedded-FD checks are integer code scans):
  /// when `pool` is set the per-LHS grouping scans (constant mining) /
  /// per-embedded-FD tableaus (general mining) are computed in parallel, with
  /// the minimality and subsumption filters replayed serially in the walk's
  /// order — bit-identical output at any thread count. `cache` lends its
  /// encoding.
  ThreadPool* pool = nullptr;
  PliCache* cache = nullptr;
  /// Optional run limits (common/run_context.h): the driver check-points
  /// between deterministic units of work and, when a limit fires, returns
  /// the prefix of its results completed so far with RunReport.exhausted
  /// set. Null means unlimited.
  RunContext* context = nullptr;
};

/// A discovered CFD plus its measured support.
struct DiscoveredCfd {
  Cfd cfd;
  int support = 0;
};

/// Constant CFD mining in the spirit of CFDMiner [35], [36]: finds
/// minimal constant patterns (X = x-values -> A = a) holding with the
/// given support. A constant CFD is reported only when no subset of its
/// LHS pattern already pins the same RHS constant.
Result<std::vector<DiscoveredCfd>> DiscoverConstantCfds(
    const Relation& relation, const CfdDiscoveryOptions& options = {});

/// General CFD discovery in the spirit of CTANE [35], [36], restricted to
/// patterns with at most `max_condition_attrs` constant conditions: for
/// each embedded FD X -> A that does *not* hold globally, finds the
/// conditions under which it holds with sufficient support. Multi-constant
/// patterns are reported only when no single-constant restriction of them
/// already qualifies (pattern minimality).
Result<std::vector<DiscoveredCfd>> DiscoverGeneralCfds(
    const Relation& relation, const CfdDiscoveryOptions& options = {});

struct TableauOptions {
  /// Stop once this fraction of tuples is covered by the tableau.
  double target_coverage = 0.8;
  /// Patterns considered per condition attribute.
  int max_patterns = 64;
  /// Engine hooks, same convention as CfdDiscoveryOptions: the per-group
  /// violation checks run in parallel, the greedy cover itself stays
  /// serial (each pick depends on the last).
  ThreadPool* pool = nullptr;
  PliCache* cache = nullptr;
  /// Optional run limits (common/run_context.h): the driver check-points
  /// between deterministic units of work and, when a limit fires, returns
  /// the prefix of its results completed so far with RunReport.exhausted
  /// set. Null means unlimited.
  RunContext* context = nullptr;
};

/// Greedy near-optimal tableau construction for a given embedded FD
/// (Golab et al. [49]): repeatedly picks the constant pattern on
/// `condition_attr` with the largest marginal cover among those keeping
/// the embedded FD violation-free, until the coverage target is met or no
/// pattern qualifies. Returns one CFD per tableau row.
Result<std::vector<DiscoveredCfd>> BuildGreedyTableau(
    const Relation& relation, AttrSet lhs, int rhs, int condition_attr,
    const TableauOptions& options = {});

}  // namespace famtree

#endif  // FAMTREE_DISCOVERY_CFD_DISCOVERY_H_
