#ifndef FAMTREE_DEPS_MFD_H_
#define FAMTREE_DEPS_MFD_H_

#include <string>
#include <vector>

#include "deps/dependency.h"
#include "deps/differential.h"

namespace famtree {

/// One dependent-side constraint of an MFD: attribute + metric + delta.
struct MetricConstraint {
  int attr = 0;
  MetricPtr metric;
  double delta = 0.0;
};

/// A metric functional dependency X ->^delta Y (Section 3.1, [64]): tuples
/// equal on X must be within metric distance delta on each Y attribute.
/// An FD is exactly an MFD with delta = 0 (under any metric satisfying
/// identity of indiscernibles).
class Mfd : public Dependency {
 public:
  Mfd(AttrSet lhs, std::vector<MetricConstraint> rhs)
      : lhs_(lhs), rhs_(std::move(rhs)) {}

  AttrSet lhs() const { return lhs_; }
  const std::vector<MetricConstraint>& rhs() const { return rhs_; }

  /// Largest within-group diameter on `attr` under `metric` — the smallest
  /// delta for which the MFD holds (the verification primitive of [64]).
  static double MaxGroupDiameter(const Relation& relation, AttrSet lhs,
                                 int attr, const Metric& metric);

  DependencyClass cls() const override { return DependencyClass::kMfd; }
  std::string ToString(const Schema* schema = nullptr) const override;
  Result<ValidationReport> Validate(const Relation& relation,
                                    int max_violations) const override;

 private:
  AttrSet lhs_;
  std::vector<MetricConstraint> rhs_;
};

}  // namespace famtree

#endif  // FAMTREE_DEPS_MFD_H_
