#include "deps/sd.h"

#include <algorithm>
#include <cmath>

#include "common/strings.h"

namespace famtree {

std::string Interval::ToString() const {
  auto fmt = [](double v) {
    if (v == std::numeric_limits<double>::infinity()) return std::string("inf");
    if (v == -std::numeric_limits<double>::infinity()) {
      return std::string("-inf");
    }
    return FormatDouble(v);
  };
  return "[" + fmt(lo) + "," + fmt(hi) + "]";
}

std::vector<int> Sd::SortedOrder(const Relation& relation, int order_attr) {
  std::vector<int> order(relation.num_rows());
  for (int i = 0; i < relation.num_rows(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(), [&](int a, int b) {
    return SortsBefore(relation.Get(a, order_attr),
                       relation.Get(b, order_attr));
  });
  return order;
}

double Sd::Confidence(const Relation& relation, int order_attr,
                      int target_attr, const Interval& gap) {
  int n = relation.num_rows();
  if (n <= 1) return 1.0;
  std::vector<int> order = SortedOrder(relation, order_attr);
  // Longest subsequence (of the X-sorted sequence) whose consecutive Y-gaps
  // all fall into the interval; confidence = |longest| / n. O(n^2) DP.
  std::vector<int> best(n, 1);
  int longest = 1;
  for (int i = 1; i < n; ++i) {
    double yi = relation.Get(order[i], target_attr).AsNumeric();
    for (int j = 0; j < i; ++j) {
      double yj = relation.Get(order[j], target_attr).AsNumeric();
      if (gap.Contains(yi - yj)) {
        best[i] = std::max(best[i], best[j] + 1);
      }
    }
    longest = std::max(longest, best[i]);
  }
  return static_cast<double>(longest) / n;
}

std::string Sd::ToString(const Schema* schema) const {
  return internal::AttrName(schema, order_attr_) + " ->_" + gap_.ToString() +
         " " + internal::AttrName(schema, target_attr_);
}

Result<ValidationReport> Sd::Validate(const Relation& relation,
                                      int max_violations) const {
  int nc = relation.num_columns();
  if (order_attr_ < 0 || order_attr_ >= nc || target_attr_ < 0 ||
      target_attr_ >= nc) {
    return Status::Invalid("SD refers to attributes outside the schema");
  }
  if (gap_.lo > gap_.hi) return Status::Invalid("SD interval is empty");
  ValidationReport report;
  std::vector<int> order = SortedOrder(relation, order_attr_);
  for (size_t i = 0; i + 1 < order.size(); ++i) {
    double y1 = relation.Get(order[i], target_attr_).AsNumeric();
    double y2 = relation.Get(order[i + 1], target_attr_).AsNumeric();
    double delta = y2 - y1;
    if (std::isnan(delta) || !gap_.Contains(delta)) {
      internal::RecordViolation(
          &report, max_violations,
          Violation{{order[i], order[i + 1]},
                    "consecutive gap " + FormatDouble(delta) +
                        " outside " + gap_.ToString()});
    }
  }
  report.holds = report.violation_count == 0;
  report.measure = Confidence(relation, order_attr_, target_attr_, gap_);
  return report;
}

std::string Csd::ToString(const Schema* schema) const {
  std::string out = internal::AttrName(schema, order_attr_) + " ->_tableau " +
                    internal::AttrName(schema, target_attr_) + " {";
  for (size_t i = 0; i < tableau_.size(); ++i) {
    if (i) out += "; ";
    out += "X in [" + FormatDouble(tableau_[i].x_lo) + "," +
           FormatDouble(tableau_[i].x_hi) + "]: gap " +
           tableau_[i].gap.ToString();
  }
  out += "}";
  return out;
}

Result<ValidationReport> Csd::Validate(const Relation& relation,
                                       int max_violations) const {
  int nc = relation.num_columns();
  if (order_attr_ < 0 || order_attr_ >= nc || target_attr_ < 0 ||
      target_attr_ >= nc) {
    return Status::Invalid("CSD refers to attributes outside the schema");
  }
  if (tableau_.empty()) return Status::Invalid("CSD tableau is empty");
  ValidationReport report;
  std::vector<int> order = Sd::SortedOrder(relation, order_attr_);
  for (const auto& row : tableau_) {
    if (row.x_lo > row.x_hi) return Status::Invalid("CSD range is empty");
    // Consecutive pairs *within* the condition range.
    int prev = -1;
    for (int idx : order) {
      double x = relation.Get(idx, order_attr_).AsNumeric();
      if (std::isnan(x) || x < row.x_lo || x > row.x_hi) continue;
      if (prev >= 0) {
        double delta = relation.Get(idx, target_attr_).AsNumeric() -
                       relation.Get(prev, target_attr_).AsNumeric();
        if (std::isnan(delta) || !row.gap.Contains(delta)) {
          internal::RecordViolation(
              &report, max_violations,
              Violation{{prev, idx}, "gap " + FormatDouble(delta) +
                                         " outside " + row.gap.ToString() +
                                         " within condition range"});
        }
      }
      prev = idx;
    }
  }
  report.holds = report.violation_count == 0;
  return report;
}

}  // namespace famtree
