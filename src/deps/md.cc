#include "deps/md.h"

#include "common/strings.h"

namespace famtree {

bool Md::LhsSimilar(const Relation& relation, int i, int j) const {
  for (const auto& p : lhs_) {
    if (!p.Similar(relation, i, j)) return false;
  }
  return true;
}

Md::Stats Md::ComputeStats(const Relation& relation) const {
  Stats stats;
  int n = relation.num_rows();
  for (int i = 0; i + 1 < n; ++i) {
    for (int j = i + 1; j < n; ++j) {
      ++stats.total_pairs;
      if (!LhsSimilar(relation, i, j)) continue;
      ++stats.similar_pairs;
      if (relation.AgreeOn(i, j, rhs_)) ++stats.identified_pairs;
    }
  }
  return stats;
}

std::string Md::ToString(const Schema* schema) const {
  std::string out;
  for (size_t i = 0; i < lhs_.size(); ++i) {
    if (i) out += ", ";
    out += internal::AttrName(schema, lhs_[i].attr) + "~" +
           FormatDouble(lhs_[i].threshold);
  }
  return out + " -> " + internal::AttrNames(schema, rhs_) + "<=>";
}

Result<ValidationReport> Md::Validate(const Relation& relation,
                                      int max_violations) const {
  int nc = relation.num_columns();
  for (const auto& p : lhs_) {
    if (p.attr < 0 || p.attr >= nc) {
      return Status::Invalid("MD refers to attributes outside the schema");
    }
    if (p.metric == nullptr) return Status::Invalid("MD metric missing");
    if (p.threshold < 0) return Status::Invalid("MD threshold must be >= 0");
  }
  if (!AttrSet::Full(nc).ContainsAll(rhs_)) {
    return Status::Invalid("MD refers to attributes outside the schema");
  }
  if (lhs_.empty() || rhs_.empty()) {
    return Status::Invalid("MD needs non-empty sides");
  }
  ValidationReport report;
  Stats stats;
  int n = relation.num_rows();
  for (int i = 0; i + 1 < n; ++i) {
    for (int j = i + 1; j < n; ++j) {
      ++stats.total_pairs;
      if (!LhsSimilar(relation, i, j)) continue;
      ++stats.similar_pairs;
      if (relation.AgreeOn(i, j, rhs_)) {
        ++stats.identified_pairs;
      } else {
        internal::RecordViolation(
            &report, max_violations,
            Violation{{i, j}, kViolationDescription});
      }
    }
  }
  report.holds = report.violation_count == 0;
  report.measure = stats.confidence();
  return report;
}

}  // namespace famtree
