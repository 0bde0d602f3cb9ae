#ifndef FAMTREE_DISCOVERY_METRIC_DISCOVERY_H_
#define FAMTREE_DISCOVERY_METRIC_DISCOVERY_H_

#include <vector>

#include "common/status.h"
#include "deps/ffd.h"
#include "deps/mfd.h"
#include "deps/pac.h"
#include "relation/relation.h"

namespace famtree {

class EvidenceCache;
class PliCache;
class RunContext;
class ThreadPool;

// ---------------------------------------------------------------- MFDs

struct MfdDiscoveryOptions {
  /// Report an MFD only when the group diameter is at most this multiple
  /// of the attribute's global pairwise diameter — a loose MFD whose
  /// delta is near the global spread says nothing.
  double max_delta_ratio = 0.25;
  /// LHS size cap.
  int max_lhs_size = 1;
  int max_results = 10000;
  /// Optional engine hooks: when `pool` is set the global diameters and the
  /// per-(LHS, attr) group diameters are measured in parallel and merged in
  /// the serial walk's candidate order (bit-identical at any thread count);
  /// `cache` lends its encoding. FFD and PAC instantiation stay serial.
  ThreadPool* pool = nullptr;
  PliCache* cache = nullptr;
  /// Optional run limits (common/run_context.h): the driver check-points
  /// between deterministic units of work and, when a limit fires, returns
  /// the prefix of its results completed so far with RunReport.exhausted
  /// set. Null means unlimited.
  RunContext* context = nullptr;
  /// Optional shared store for the kernel-built evidence multiset. The
  /// miner runs on the dictionary-encoded backend with every metric
  /// distance memoized per code pair, and measures every candidate from
  /// the shared pairwise evidence multiset (engine/evidence.h): one
  /// PLI-pruned kernel build packs an equality bit per attribute and folds
  /// each attribute's per-word distance maxima, so a candidate's group
  /// diameter is a max over the words whose LHS bits agree. Global
  /// diameters come from code-pair histograms.
  EvidenceCache* evidence = nullptr;
};

struct DiscoveredMfd {
  Mfd mfd;
  /// The measured diameter (the smallest delta for which the MFD holds).
  double delta = 0.0;
};

/// MFD discovery [64]: for each LHS set and each remaining attribute,
/// measures the maximum within-group diameter (verification primitive of
/// S3.1.3) and reports non-vacuous MFDs with delta set to that diameter.
Result<std::vector<DiscoveredMfd>> DiscoverMfds(
    const Relation& relation, const MfdDiscoveryOptions& options = {});

// ---------------------------------------------------------------- FFDs

struct FfdDiscoveryOptions {
  /// LHS attribute count cap (single attribute is [109]'s base case).
  int max_lhs_attrs = 1;
  int max_results = 10000;
};

struct DiscoveredFfd {
  Ffd ffd;
  /// Minimum slack mu_EQ(Y) - mu_EQ(X) over all pairs (>= 0 iff holds).
  double min_slack = 0.0;
};

/// FFD mining in the spirit of Wang et al. [109] (TANE-style, pairwise
/// EQUAL checks): given per-attribute resemblance relations, reports the
/// FFDs X ~> A that hold. `resemblances[a]` supplies mu_EQ for attribute
/// a; null entries default to crisp equality.
Result<std::vector<DiscoveredFfd>> DiscoverFfds(
    const Relation& relation, std::vector<ResemblancePtr> resemblances,
    const FfdDiscoveryOptions& options = {});

// ---------------------------------------------------------------- PACs

struct PacTemplate {
  /// LHS/RHS attributes of the rule template (PAC-Man's user input [63]).
  std::vector<int> lhs_attrs;
  std::vector<int> rhs_attrs;
};

struct PacDiscoveryOptions {
  /// Quantile of pairwise LHS distances used for the tolerances Delta.
  double lhs_quantile = 0.25;
  /// Quantile of RHS distances *among LHS-close pairs* used for eps.
  double rhs_quantile = 0.9;
};

struct InstantiatedPac {
  Pac pac;
  /// The confidence measured on the training data (the PAC's delta).
  double measured_confidence = 0.0;
};

/// PAC-Man-style instantiation [63]: fills in the Delta/eps tolerances of
/// a rule template from the training data's distance distributions and
/// sets the confidence to the measured satisfaction rate, so monitoring
/// alarms only when quality degrades below the training baseline.
Result<InstantiatedPac> InstantiatePac(const Relation& training,
                                       const PacTemplate& rule_template,
                                       const PacDiscoveryOptions& options = {});

}  // namespace famtree

#endif  // FAMTREE_DISCOVERY_METRIC_DISCOVERY_H_
