#ifndef FAMTREE_DISCOVERY_DD_DISCOVERY_H_
#define FAMTREE_DISCOVERY_DD_DISCOVERY_H_

#include <vector>

#include "common/status.h"
#include "deps/dd.h"
#include "relation/relation.h"

namespace famtree {

class EvidenceCache;
class PliCache;
class RunContext;
class ThreadPool;

struct DdDiscoveryOptions {
  /// Candidate distance thresholds per attribute are taken at these
  /// quantiles of the observed pairwise distance distribution — the
  /// parameter-free determination of [88], [89] in spirit.
  std::vector<double> threshold_quantiles = {0.1, 0.25, 0.5};
  /// Minimum number of tuple pairs the LHS pattern must cover.
  int min_support = 3;
  /// Number of LHS attributes (1 or 2).
  int max_lhs_attrs = 2;
  /// Relations larger than this are uniformly row-sampled down before the
  /// pairwise evidence build (0 disables sampling and large inputs are
  /// rejected).
  int sample_rows = 0;
  uint64_t seed = 42;
  int max_results = 10000;
  /// Optional engine hooks: when `pool` is set the distance tables, the
  /// per-attribute threshold scans and the per-LHS-candidate word folds run
  /// in parallel; the min-support / vacuity / subsumption / max_results
  /// filters replay the serial walk's candidate order, so the output is
  /// bit-identical at any thread count. `cache` lends its encoding (ignored
  /// when sampling re-materializes the input).
  ThreadPool* pool = nullptr;
  PliCache* cache = nullptr;
  /// Optional run limits (common/run_context.h): the driver check-points
  /// between deterministic units of work and, when a limit fires, returns
  /// the prefix of its results completed so far with RunReport.exhausted
  /// set. Null means unlimited.
  RunContext* context = nullptr;
  /// Optional shared store for the kernel-built evidence multiset. The
  /// miner runs on the dictionary-encoded backend: every metric distance
  /// is a lookup in a per-attribute code-pair table (CodeDistanceTable),
  /// candidate thresholds and vacuity bounds come from code-pair distance
  /// histograms, and one evidence build (engine/evidence.h) packs every
  /// attribute's threshold bucket into a word per pair, so each LHS
  /// candidate folds over the deduplicated words, however wide the
  /// threshold grid makes the word.
  EvidenceCache* evidence = nullptr;
};

struct DiscoveredDd {
  Dd dd;
  int64_t support = 0;
};

/// DD discovery in the spirit of [86]: for each LHS attribute set with
/// candidate "similar" thresholds drawn from the pairwise distance
/// distribution, finds for each RHS attribute the tightest distance bound
/// satisfied by every LHS-compatible pair. A DD is reported when that
/// bound is strictly tighter than the attribute's global pairwise maximum
/// (otherwise the rule is vacuous), with subsumption-based minimality:
/// a DD is dropped when another reported DD has a looser LHS and a
/// tighter-or-equal RHS on the same attributes.
Result<std::vector<DiscoveredDd>> DiscoverDds(
    const Relation& relation, const DdDiscoveryOptions& options = {});

/// The distance threshold candidates the discovery derives for one
/// attribute (exposed for tests and the threshold-determination bench).
std::vector<double> DetermineThresholds(const Relation& relation, int attr,
                                        const std::vector<double>& quantiles);

}  // namespace famtree

#endif  // FAMTREE_DISCOVERY_DD_DISCOVERY_H_
