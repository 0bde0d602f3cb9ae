#ifndef FAMTREE_METRIC_METRIC_H_
#define FAMTREE_METRIC_METRIC_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "relation/value.h"

namespace famtree {

/// A distance metric on attribute values, as required by the heterogeneous
/// data dependencies of Section 3 (MFDs, NEDs, DDs, CDs, PACs, MDs). A
/// metric must satisfy non-negativity, identity of indiscernibles and
/// symmetry (the paper does not require the triangle inequality, and
/// e.g. the discrete metric composed with value normalization may not
/// satisfy it); the property tests in tests/metric_test.cc check the axioms.
class Metric {
 public:
  virtual ~Metric() = default;

  /// Distance between two values. Nulls are at infinite distance from
  /// everything except another null (distance 0), mirroring SQL-style
  /// missing data semantics used by the imputation application.
  virtual double Distance(const Value& a, const Value& b) const = 0;

  virtual std::string name() const = 0;
};

using MetricPtr = std::shared_ptr<const Metric>;

/// Levenshtein edit distance on the string forms of the values.
/// The paper's running examples on heterogeneous data (Section 3) all use
/// edit distance [74].
class EditDistanceMetric : public Metric {
 public:
  double Distance(const Value& a, const Value& b) const override;
  std::string name() const override { return "edit"; }
};

/// |a - b| on numeric values; strings are at distance 0 when equal and
/// +inf otherwise (so the metric is total on mixed columns).
class AbsDiffMetric : public Metric {
 public:
  double Distance(const Value& a, const Value& b) const override;
  std::string name() const override { return "absdiff"; }
};

/// Discrete (identity) metric: 0 when equal, 1 otherwise. Embeds equality
/// dependencies into the metric framework — this is exactly how FDs become
/// special MFDs/DDs in the family tree.
class DiscreteMetric : public Metric {
 public:
  double Distance(const Value& a, const Value& b) const override;
  std::string name() const override { return "discrete"; }
};

/// Jaccard distance (1 - Jaccard similarity) over the q-gram multisets of
/// the string forms. Useful for token-level heterogeneity where edit
/// distance over-penalizes reordering.
class JaccardQGramMetric : public Metric {
 public:
  explicit JaccardQGramMetric(int q = 2) : q_(q) {}
  double Distance(const Value& a, const Value& b) const override;
  std::string name() const override {
    return "jaccard" + std::to_string(q_) + "gram";
  }

 private:
  int q_;
};

/// Levenshtein distance between two byte strings: the shorter one becomes
/// an EditDistanceKernel pattern (per-thread scratch) and the longer one
/// is scanned against it.
int LevenshteinDistance(std::string_view a, std::string_view b);

/// The one edit-distance kernel: Myers' bit-parallel Levenshtein (1999) in
/// Hyyro's global-distance form (2003). SetPattern builds the pattern's
/// byte-keyed match masks once, ceil(m/64) words per byte value; Distance
/// then scans a text one byte at a time, advancing a whole column of the
/// DP as vertical-delta bit vectors in O(ceil(m/64)) word operations, so
/// a pair costs O(n * ceil(m/64)) instead of the O(n * m) cell DP. Every
/// pattern length takes the same scan (past 64 bytes the words form a
/// carry chain), and the result is always the exact distance.
/// The code-table fills set the anchor code's pattern once per triangle
/// row; scratch is O(256 * ceil(m/64)) words per kernel.
class EditDistanceKernel {
 public:
  void SetPattern(std::string_view pattern);

  /// Exact Levenshtein distance between the pattern and `text`.
  int Distance(std::string_view text);

 private:
  int m_ = 0;
  size_t words_ = 0;
  std::vector<uint64_t> peq_;  // 256 rows of words_: bit i of row c is
                               // set when pattern[i] == c
  std::vector<uint64_t> pv_, mv_;  // per-word vertical deltas
};

/// Shared default instances (metrics are stateless).
MetricPtr GetEditDistanceMetric();
MetricPtr GetAbsDiffMetric();
MetricPtr GetDiscreteMetric();
MetricPtr GetJaccardQGramMetric(int q = 2);

/// Picks a sensible default metric for a column type: absolute difference
/// for numerics, edit distance for strings, discrete otherwise.
MetricPtr DefaultMetricFor(ValueType type);

}  // namespace famtree

#endif  // FAMTREE_METRIC_METRIC_H_
