#ifndef FAMTREE_DEPS_DC_H_
#define FAMTREE_DEPS_DC_H_

#include <string>
#include <vector>

#include "deps/dependency.h"
#include "deps/pattern.h"

namespace famtree {

/// One side of a DC predicate: a cell of tuple alpha, a cell of tuple
/// beta, or a constant.
struct DcOperand {
  enum class Kind { kTupleA, kTupleB, kConst };
  Kind kind = Kind::kTupleA;
  int attr = 0;
  Value constant;

  static DcOperand TupleA(int attr) { return {Kind::kTupleA, attr, Value()}; }
  static DcOperand TupleB(int attr) { return {Kind::kTupleB, attr, Value()}; }
  static DcOperand Const(Value v) {
    return {Kind::kConst, 0, std::move(v)};
  }

  const Value& Eval(const Relation& relation, int row_a, int row_b) const;
  std::string ToString(const Schema* schema) const;
};

/// A predicate v1 op v2 inside a denial constraint.
struct DcPredicate {
  DcOperand lhs;
  CmpOp op = CmpOp::kEq;
  DcOperand rhs;

  bool Eval(const Relation& relation, int row_a, int row_b) const {
    return EvalCmp(lhs.Eval(relation, row_a, row_b), op,
                   rhs.Eval(relation, row_a, row_b));
  }
  bool UsesTupleB() const {
    return lhs.kind == DcOperand::Kind::kTupleB ||
           rhs.kind == DcOperand::Kind::kTupleB;
  }
  std::string ToString(const Schema* schema) const;

  /// The negated predicate (the operator set is negation-closed).
  DcPredicate Negated() const { return {lhs, NegateOp(op), rhs}; }
};

/// A denial constraint forall t_a, t_b: NOT(P1 /\ ... /\ Pm)
/// (Section 4.3, [8], [9]): no tuple pair may satisfy all predicates
/// simultaneously. Single-tuple DCs (no reference to t_b) are checked per
/// tuple. DCs subsume ODs (order predicates) and eCFDs (equality plus
/// constant predicates) — the two family-tree edges into DCs.
class Dc : public Dependency {
 public:
  explicit Dc(std::vector<DcPredicate> predicates)
      : predicates_(std::move(predicates)) {}

  const std::vector<DcPredicate>& predicates() const { return predicates_; }

  /// True when no predicate mentions tuple beta.
  bool IsSingleTuple() const;

  /// Descriptions of the violations Validate reports: a single tuple, or an
  /// ordered pair of distinct tuples.
  static constexpr const char* kTupleViolationDescription =
      "tuple satisfies all denied predicates";
  static constexpr const char* kPairViolationDescription =
      "pair satisfies all denied predicates";

  DependencyClass cls() const override { return DependencyClass::kDc; }
  std::string ToString(const Schema* schema = nullptr) const override;
  Result<ValidationReport> Validate(const Relation& relation,
                                    int max_violations) const override;

 private:
  std::vector<DcPredicate> predicates_;
};

}  // namespace famtree

#endif  // FAMTREE_DEPS_DC_H_
