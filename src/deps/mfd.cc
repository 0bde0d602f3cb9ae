#include "deps/mfd.h"

#include <algorithm>

#include "common/strings.h"

namespace famtree {

double Mfd::MaxGroupDiameter(const Relation& relation, AttrSet lhs, int attr,
                             const Metric& metric) {
  double diameter = 0.0;
  for (const auto& group : relation.GroupBy(lhs)) {
    for (size_t i = 0; i + 1 < group.size(); ++i) {
      for (size_t j = i + 1; j < group.size(); ++j) {
        diameter = std::max(
            diameter, metric.Distance(relation.Get(group[i], attr),
                                      relation.Get(group[j], attr)));
      }
    }
  }
  return diameter;
}

std::string Mfd::ToString(const Schema* schema) const {
  std::string out = internal::AttrNames(schema, lhs_) + " ->^d ";
  for (size_t i = 0; i < rhs_.size(); ++i) {
    if (i) out += ", ";
    out += internal::AttrName(schema, rhs_[i].attr) + "(<=" +
           FormatDouble(rhs_[i].delta) + ")";
  }
  return out;
}

Result<ValidationReport> Mfd::Validate(const Relation& relation,
                                       int max_violations) const {
  int nc = relation.num_columns();
  if (!AttrSet::Full(nc).ContainsAll(lhs_)) {
    return Status::Invalid("MFD refers to attributes outside the schema");
  }
  if (rhs_.empty()) return Status::Invalid("MFD needs dependent constraints");
  for (const auto& mc : rhs_) {
    if (mc.attr < 0 || mc.attr >= nc) {
      return Status::Invalid("MFD refers to attributes outside the schema");
    }
    if (mc.metric == nullptr) return Status::Invalid("MFD metric missing");
    if (mc.delta < 0) return Status::Invalid("MFD delta must be >= 0");
  }
  ValidationReport report;
  double worst = 0.0;
  for (const auto& group : relation.GroupBy(lhs_)) {
    if (group.size() < 2) continue;
    for (size_t i = 0; i + 1 < group.size(); ++i) {
      for (size_t j = i + 1; j < group.size(); ++j) {
        for (const auto& mc : rhs_) {
          double d = mc.metric->Distance(relation.Get(group[i], mc.attr),
                                         relation.Get(group[j], mc.attr));
          worst = std::max(worst, d);
          if (d > mc.delta) {
            internal::RecordViolation(
                &report, max_violations,
                Violation{{group[i], group[j]},
                          "equal on LHS but Y distance " + FormatDouble(d) +
                              " exceeds delta " + FormatDouble(mc.delta)});
            break;  // one violation per pair
          }
        }
      }
    }
  }
  report.holds = report.violation_count == 0;
  report.measure = worst;  // observed diameter
  return report;
}

}  // namespace famtree
