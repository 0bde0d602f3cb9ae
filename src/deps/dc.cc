#include "deps/dc.h"

namespace famtree {

const Value& DcOperand::Eval(const Relation& relation, int row_a,
                             int row_b) const {
  switch (kind) {
    case Kind::kTupleA: return relation.Get(row_a, attr);
    case Kind::kTupleB: return relation.Get(row_b, attr);
    case Kind::kConst: return constant;
  }
  return constant;
}

std::string DcOperand::ToString(const Schema* schema) const {
  switch (kind) {
    case Kind::kTupleA: return "ta." + internal::AttrName(schema, attr);
    case Kind::kTupleB: return "tb." + internal::AttrName(schema, attr);
    case Kind::kConst: return "'" + constant.ToString() + "'";
  }
  return "?";
}

std::string DcPredicate::ToString(const Schema* schema) const {
  return lhs.ToString(schema) + " " + CmpOpSymbol(op) + " " +
         rhs.ToString(schema);
}

bool Dc::IsSingleTuple() const {
  for (const auto& p : predicates_) {
    if (p.UsesTupleB()) return false;
  }
  return true;
}

std::string Dc::ToString(const Schema* schema) const {
  std::string out = "not(";
  for (size_t i = 0; i < predicates_.size(); ++i) {
    if (i) out += " /\\ ";
    out += predicates_[i].ToString(schema);
  }
  out += ")";
  return out;
}

Result<ValidationReport> Dc::Validate(const Relation& relation,
                                      int max_violations) const {
  if (predicates_.empty()) {
    return Status::Invalid("DC needs at least one predicate");
  }
  int nc = relation.num_columns();
  for (const auto& p : predicates_) {
    for (const DcOperand* o : {&p.lhs, &p.rhs}) {
      if (o->kind != DcOperand::Kind::kConst &&
          (o->attr < 0 || o->attr >= nc)) {
        return Status::Invalid("DC refers to attributes outside the schema");
      }
    }
  }
  ValidationReport report;
  int n = relation.num_rows();
  auto all_hold = [&](int a, int b) {
    for (const auto& p : predicates_) {
      if (!p.Eval(relation, a, b)) return false;
    }
    return true;
  };
  if (IsSingleTuple()) {
    for (int i = 0; i < n; ++i) {
      if (all_hold(i, i)) {
        internal::RecordViolation(
            &report, max_violations,
            Violation{{i}, kTupleViolationDescription});
      }
    }
  } else {
    // Ordered pairs of distinct tuples (the standard two-tuple semantics).
    for (int i = 0; i < n; ++i) {
      for (int j = 0; j < n; ++j) {
        if (i == j) continue;
        if (all_hold(i, j)) {
          internal::RecordViolation(
              &report, max_violations,
              Violation{{i, j}, kPairViolationDescription});
        }
      }
    }
  }
  report.holds = report.violation_count == 0;
  return report;
}

}  // namespace famtree
