#ifndef FAMTREE_DEPS_MD_H_
#define FAMTREE_DEPS_MD_H_

#include <string>
#include <vector>

#include "deps/dependency.h"
#include "metric/metric.h"

namespace famtree {

/// One similarity predicate of a matching dependency: values of `attr`
/// within `threshold` under `metric` count as similar (~~).
struct SimilarityPredicate {
  int attr = 0;
  MetricPtr metric;
  double threshold = 0.0;

  bool Similar(const Relation& relation, int i, int j) const {
    return metric->Distance(relation.Get(i, attr), relation.Get(j, attr)) <=
           threshold;
  }
};

/// A matching dependency X~ -> Y<=> (Section 3.7, [33], [37]): tuples
/// similar on every X predicate must be *identified* (made equal) on Y.
/// On a given instance a violation is a pair similar on X but unequal on Y;
/// the record-matching application instead *applies* the rule to merge Y.
/// An FD is exactly an MD whose predicates demand identity (threshold 0).
class Md : public Dependency {
 public:
  Md(std::vector<SimilarityPredicate> lhs, AttrSet rhs)
      : lhs_(std::move(lhs)), rhs_(rhs) {}

  const std::vector<SimilarityPredicate>& lhs() const { return lhs_; }
  AttrSet rhs() const { return rhs_; }

  /// True iff the pair is similar under every LHS predicate.
  bool LhsSimilar(const Relation& relation, int i, int j) const;

  /// Support = fraction of tuple pairs similar on the LHS; confidence =
  /// fraction of those already identified on the RHS (the discovery
  /// objectives of [85], [87]).
  struct Stats {
    int64_t total_pairs = 0;
    int64_t similar_pairs = 0;
    int64_t identified_pairs = 0;
    double support() const {
      return total_pairs == 0
                 ? 0.0
                 : static_cast<double>(similar_pairs) / total_pairs;
    }
    double confidence() const {
      return similar_pairs == 0
                 ? 1.0
                 : static_cast<double>(identified_pairs) / similar_pairs;
    }
  };
  Stats ComputeStats(const Relation& relation) const;

  /// Description of every violating pair Validate reports.
  static constexpr const char* kViolationDescription =
      "similar on LHS but not identified on RHS";

  DependencyClass cls() const override { return DependencyClass::kMd; }
  std::string ToString(const Schema* schema = nullptr) const override;
  Result<ValidationReport> Validate(const Relation& relation,
                                    int max_violations) const override;

 private:
  std::vector<SimilarityPredicate> lhs_;
  AttrSet rhs_;
};

}  // namespace famtree

#endif  // FAMTREE_DEPS_MD_H_
