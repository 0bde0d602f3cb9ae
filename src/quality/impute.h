#ifndef FAMTREE_QUALITY_IMPUTE_H_
#define FAMTREE_QUALITY_IMPUTE_H_

#include <vector>

#include "common/status.h"
#include "deps/ned.h"
#include "quality/quality_options.h"
#include "relation/relation.h"

namespace famtree {

/// Outcome of missing-value imputation.
struct ImputeResult {
  Relation imputed;
  /// Cells that were null and got a value.
  int filled = 0;
  /// Null cells with no qualifying neighbor.
  int unfilled = 0;
};

/// The P-neighborhood prediction method of NEDs (Section 3.2.4, [4]) /
/// the similarity-rule imputation of DDs ([95], [96]): a tuple's missing
/// target value is predicted from the tuples agreeing with it on the LHS
/// neighborhood predicate — unlike kNN, the neighborhood radius comes from
/// the declared rule, not a tuned k. Prediction is the neighbor plurality
/// (categorical) or mean (numeric).
Result<ImputeResult> ImputeWithNed(const Relation& relation, const Ned& rule);

/// Fast-path overload: each null cell's neighbor scan reads only the
/// original relation, so the per-cell predictions fan out on the pool with
/// distances looked up in per-predicate code tables; the fills apply
/// serially in row order. Identical to the plain overload at any thread
/// count.
Result<ImputeResult> ImputeWithNed(const Relation& relation, const Ned& rule,
                                   const QualityOptions& options);

}  // namespace famtree

#endif  // FAMTREE_QUALITY_IMPUTE_H_
