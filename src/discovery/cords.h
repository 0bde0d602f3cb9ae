#ifndef FAMTREE_DISCOVERY_CORDS_H_
#define FAMTREE_DISCOVERY_CORDS_H_

#include <vector>

#include "common/status.h"
#include "relation/relation.h"

namespace famtree {

class RunContext;
class ThreadPool;

struct CordsOptions {
  /// Sample size; CORDS' key property is that this is essentially
  /// independent of the table size (Section 2.1.3).
  int sample_size = 2000;
  /// Minimum strength |dom(X)| / |dom(X,Y)| for an SFD candidate.
  double min_strength = 0.9;
  /// Cramer's-V cutoff above which a column pair is flagged correlated.
  double min_cramers_v = 0.3;
  /// Contingency-table cap per dimension (infrequent values bucketed).
  int max_categories = 25;
  uint64_t seed = 42;
  /// When set, the ordered column pairs are analysed in parallel. Every
  /// pair's finding is written into its own pre-assigned output slot, so
  /// the result vector is bit-identical to the serial sweep for any thread
  /// count (the sample itself is always drawn once, serially).
  ThreadPool* pool = nullptr;
  /// Optional run limits (common/run_context.h): the driver check-points
  /// between deterministic units of work and, when a limit fires, returns
  /// the prefix of its results completed so far with RunReport.exhausted
  /// set. Null means unlimited.
  RunContext* context = nullptr;
};

/// One CORDS finding for an ordered column pair (lhs -> rhs).
struct DiscoveredSfd {
  int lhs = 0;
  int rhs = 0;
  /// Strength measured on the sample.
  double strength = 0.0;
  /// Chi-square statistic of the contingency table.
  double chi2 = 0.0;
  /// Cramer's V (normalized association in [0, 1]).
  double cramers_v = 0.0;
  /// Flagged as a soft FD (strength above threshold)?
  bool is_soft_fd = false;
  /// Flagged as correlated (V above threshold)?
  bool is_correlated = false;
};

/// CORDS [55]: sample-based discovery of correlations and soft FDs between
/// column pairs, via distinct-count strength and a robust chi-square
/// analysis. Returns one entry per ordered column pair.
Result<std::vector<DiscoveredSfd>> DiscoverSfdsCords(
    const Relation& relation, const CordsOptions& options = {});

}  // namespace famtree

#endif  // FAMTREE_DISCOVERY_CORDS_H_
