#ifndef FAMTREE_QUALITY_HOLISTIC_H_
#define FAMTREE_QUALITY_HOLISTIC_H_

#include <vector>

#include "common/status.h"
#include "deps/dc.h"
#include "quality/repair.h"

namespace famtree {

/// Holistic DC repair (Chu et al. [20], simplified): instead of fixing
/// violations one pair at a time, collect *all* violations of *all* DCs,
/// build the conflict hypergraph over cells (a cell participates in a
/// violation when it feeds a satisfied predicate), and repeatedly repair
/// the cell appearing in the most violations — choosing the new value
/// that falsifies the most of its predicates at once. Compared with the
/// greedy pairwise `RepairWithDcs`, the holistic strategy needs fewer
/// cell changes on overlapping violations (measured in
/// bench/ablation_repair).
Result<RepairResult> RepairWithDcsHolistic(const Relation& relation,
                                           const std::vector<Dc>& dcs,
                                           int max_changes = 1000);

/// Fast-path overload: the violation collection (one read-only Validate
/// per DC, the dominant cost per round) fans out on the pool with the
/// per-DC lists concatenated in DC order; the conflict-hypergraph ranking
/// and the greedy cell repairs stay serial (each pick depends on the
/// last). Identical to the plain overload at any thread count.
Result<RepairResult> RepairWithDcsHolistic(const Relation& relation,
                                           const std::vector<Dc>& dcs,
                                           int max_changes,
                                           const QualityOptions& options);

}  // namespace famtree

#endif  // FAMTREE_QUALITY_HOLISTIC_H_
