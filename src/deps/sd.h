#ifndef FAMTREE_DEPS_SD_H_
#define FAMTREE_DEPS_SD_H_

#include <string>
#include <vector>

#include "deps/dependency.h"
#include "deps/differential.h"

namespace famtree {

/// A sequential dependency X ->_g Y (Section 4.4, [48]): sort the tuples on
/// X; the (signed) increase of Y between consecutive tuples must lie in the
/// interval g. Gaps use the numeric difference t_{i+1}[Y] - t_i[Y], so
/// g = [0, inf) expresses "Y increases with X" (the OD special case) and
/// g = (-inf, 0] "Y decreases".
struct Interval {
  double lo;
  double hi;

  static Interval Between(double lo, double hi) { return {lo, hi}; }
  static Interval AtLeast(double lo) {
    return {lo, std::numeric_limits<double>::infinity()};
  }
  static Interval AtMost(double hi) {
    return {-std::numeric_limits<double>::infinity(), hi};
  }
  bool Contains(double v) const { return v >= lo && v <= hi; }
  std::string ToString() const;
};

class Sd : public Dependency {
 public:
  /// `order_attr`: X (ties broken by row order); `target_attr`: Y.
  Sd(int order_attr, int target_attr, Interval gap)
      : order_attr_(order_attr), target_attr_(target_attr), gap_(gap) {}

  int order_attr() const { return order_attr_; }
  int target_attr() const { return target_attr_; }
  const Interval& gap() const { return gap_; }

  /// Confidence in the sense of [48] (simplified to deletions): 1 minus the
  /// fraction of rows that must be removed so every consecutive gap falls
  /// in the interval. Computed exactly by longest-valid-subsequence DP.
  static double Confidence(const Relation& relation, int order_attr,
                           int target_attr, const Interval& gap);

  /// Rows sorted by the order attribute under SortsBefore (NaN cells last;
  /// ties by row index) — the sequence the SD speaks about. Exposed for the
  /// discovery module.
  static std::vector<int> SortedOrder(const Relation& relation,
                                      int order_attr);

  DependencyClass cls() const override { return DependencyClass::kSd; }
  std::string ToString(const Schema* schema = nullptr) const override;
  Result<ValidationReport> Validate(const Relation& relation,
                                    int max_violations) const override;

 private:
  int order_attr_;
  int target_attr_;
  Interval gap_;
};

/// A conditional sequential dependency (Section 4.4.5, [48]): a tableau of
/// intervals over the order attribute, each row carrying an embedded SD gap
/// that holds within that X-range. The pattern tableau is what the
/// polynomial-time discovery of Fig. 3 constructs.
class Csd : public Dependency {
 public:
  struct TableauRow {
    /// Condition: tuples whose X value lies in [x_lo, x_hi].
    double x_lo;
    double x_hi;
    /// Embedded gap constraint for consecutive tuples in that range.
    Interval gap;
  };

  Csd(int order_attr, int target_attr, std::vector<TableauRow> tableau)
      : order_attr_(order_attr),
        target_attr_(target_attr),
        tableau_(std::move(tableau)) {}

  int order_attr() const { return order_attr_; }
  int target_attr() const { return target_attr_; }
  const std::vector<TableauRow>& tableau() const { return tableau_; }

  DependencyClass cls() const override { return DependencyClass::kCsd; }
  std::string ToString(const Schema* schema = nullptr) const override;
  Result<ValidationReport> Validate(const Relation& relation,
                                    int max_violations) const override;

 private:
  int order_attr_;
  int target_attr_;
  std::vector<TableauRow> tableau_;
};

}  // namespace famtree

#endif  // FAMTREE_DEPS_SD_H_
