#ifndef FAMTREE_QUALITY_CQA_H_
#define FAMTREE_QUALITY_CQA_H_

#include "common/status.h"
#include "deps/fd.h"
#include "deps/pattern.h"
#include "quality/quality_options.h"
#include "relation/relation.h"

namespace famtree {

/// A selection-projection query: sigma_{attr op constant}, pi_projection.
struct SelectionQuery {
  int attr = 0;
  CmpOp op = CmpOp::kEq;
  Value constant;
  AttrSet projection;
};

/// Consistent query answering under FD violations with subset repairs
/// (Arenas et al. [3], Table 3): a repair keeps, within each LHS group,
/// exactly the tuples of one RHS subgroup.
///
/// A projected tuple is a *certain* answer when it appears in the query
/// answer over every repair; it is a *possible* answer when it appears in
/// at least one.
Result<Relation> CertainAnswers(const Relation& relation, const Fd& fd,
                                const SelectionQuery& query);

Result<Relation> PossibleAnswers(const Relation& relation, const Fd& fd,
                                 const SelectionQuery& query);

/// Fast-path overloads: LHS groups, RHS subgroup splits and projection
/// comparisons run over dense row keys from the encoded backend, and the
/// per-group certain-answer checks fan out on the pool; the answers append
/// serially in group/row order, so the answer relation is identical to the
/// plain overload at any thread count. `cache` lends its encoding.
Result<Relation> CertainAnswers(const Relation& relation, const Fd& fd,
                                const SelectionQuery& query,
                                const QualityOptions& options);

Result<Relation> PossibleAnswers(const Relation& relation, const Fd& fd,
                                 const SelectionQuery& query,
                                 const QualityOptions& options);

}  // namespace famtree

#endif  // FAMTREE_QUALITY_CQA_H_
