#ifndef FAMTREE_QUALITY_REPAIR_H_
#define FAMTREE_QUALITY_REPAIR_H_

#include <vector>

#include "common/status.h"
#include "deps/cfd.h"
#include "deps/dc.h"
#include "deps/fd.h"
#include "quality/quality_options.h"
#include "relation/relation.h"

namespace famtree {

/// One cell change made by a repair.
struct CellChange {
  int row = 0;
  int col = 0;
  Value old_value;
  Value new_value;
};

/// Outcome of a repair run: the repaired relation plus the change log
/// (the repair cost in the Bohannon et al. [12] sense is changes.size()).
struct RepairResult {
  Relation repaired;
  std::vector<CellChange> changes;
  /// Rules still violated after the pass limit (0 for FD/CFD repair).
  int remaining_violations = 0;
};

/// Equivalence-class FD/CFD repair (Cong et al. [25]): within each LHS
/// group, reassign dependent attributes to the group plurality value —
/// the minimum-change repair when the LHS is trusted. Handles multiple
/// FDs by iterating to a fixpoint (bounded passes).
Result<RepairResult> RepairWithFds(const Relation& relation,
                                   const std::vector<Fd>& fds,
                                   int max_passes = 4);

/// Fast-path overload: per pass the LHS groups come from the encoded GroupBy
/// and the per-(group, column) plurality targets are counted over integer codes
/// in parallel; the cell changes are applied serially in the plain overload's
/// group/column/row order, so the repair (changes and repaired relation) is
/// identical to it at any thread count. The working copy is re-encoded only
/// after a pass that changed cells; `options.cache` lends the initial encoding.
Result<RepairResult> RepairWithFds(const Relation& relation,
                                   const std::vector<Fd>& fds, int max_passes,
                                   const QualityOptions& options);

/// CFD repair: like FD repair inside each condition group; constant RHS
/// patterns force the constant.
Result<RepairResult> RepairWithCfds(const Relation& relation,
                                    const std::vector<Cfd>& cfds,
                                    int max_passes = 4);

/// Fast-path overload: the per-rule LHS-pattern matching scan (the
/// dominant cost, O(rows x rules) per pass) fans out on the pool; the
/// constant forcing and plurality reassignment replay serially in the
/// plain overload's order. Patterns may compare with any operator, so matching
/// stays on Values.
Result<RepairResult> RepairWithCfds(const Relation& relation,
                                    const std::vector<Cfd>& cfds,
                                    int max_passes,
                                    const QualityOptions& options);

/// Holistic-style DC repair (Chu et al. [20], simplified): repeatedly
/// finds a violated DC, picks one predicate of the violating pair and
/// falsifies it by a minimal cell change (equality predicates copy the
/// other side; order predicates nudge the numeric value). Terminates at a
/// pass budget; reports remaining violations.
Result<RepairResult> RepairWithDcs(const Relation& relation,
                                   const std::vector<Dc>& dcs,
                                   int max_changes = 1000);

}  // namespace famtree

#endif  // FAMTREE_QUALITY_REPAIR_H_
