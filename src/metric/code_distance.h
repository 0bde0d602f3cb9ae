#ifndef FAMTREE_METRIC_CODE_DISTANCE_H_
#define FAMTREE_METRIC_CODE_DISTANCE_H_

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/status.h"
#include "common/thread_pool.h"
#include "metric/metric.h"
#include "relation/encoded_relation.h"

namespace famtree {

/// Memoized metric distances over one column's dictionary codes.
///
/// The pairwise miners (DD, MD, NED, MFD) evaluate the same metric on the
/// same value pairs over and over — once per candidate dependency per row
/// pair. Because the encoded backend guarantees code equality ⇔ value
/// equality, every distance is a pure function of the (code, code) pair, so
/// a k×k table (k = dictionary size) computed once replaces millions of
/// Levenshtein calls with array lookups. The edit-distance fill sets each
/// triangle row's anchor code as an EditDistanceKernel pattern once and
/// scans the row's other codes against it. Distances are stored as the exact
/// doubles the metric returned, so encoded results stay bit-identical to
/// calling the metric on the Values.
///
/// The table is eagerly filled (optionally in parallel — entries are pure,
/// so the fill order cannot affect the result). When the triangular size
/// k*(k+1)/2 exceeds `max_entries` the table is skipped and Distance()
/// falls back to calling the metric directly on the decoded values.
///
/// A fill costs k*(k+1)/2 metric calls, so only paths that read the table
/// build one: the DD and MFD miners, the MD and NED pair-scan fallbacks, and
/// the evidence kernel for track_max columns, which caps `max_entries` at a
/// delta or pair-list walk's pair count.
class CodeDistanceTable {
 public:
  static constexpr int64_t kDefaultMaxEntries = int64_t{1} << 23;

  /// The encoding (and the metric) must outlive the table.
  CodeDistanceTable(const EncodedRelation& encoded, int attr, MetricPtr metric,
                    ThreadPool* pool = nullptr,
                    int64_t max_entries = kDefaultMaxEntries);

  /// Distance between the values behind two codes of this column; equal to
  /// metric->Distance(Decode(attr, a), Decode(attr, b)) bit for bit.
  /// A memoized table indexes its triangle with a branch-free min/max.
  double Distance(uint32_t a, uint32_t b) const {
    if (memoized_) return table_[TriIndex(std::min(a, b), std::max(a, b))];
    return metric_->Distance(encoded_->Decode(attr_, a),
                             encoded_->Decode(attr_, b));
  }

  /// Distance(a, b[k]) for k in [0, count), into out — the strip form the
  /// evidence kernel reads.
  void Distances(uint32_t a, const uint32_t* b, int count, double* out) const {
    for (int k = 0; k < count; ++k) out[k] = Distance(a, b[k]);
  }

  /// Row-level convenience: distance between two rows' values in this
  /// column.
  double RowDistance(int row_a, int row_b) const {
    return Distance(encoded_->code(row_a, attr_),
                    encoded_->code(row_b, attr_));
  }

  bool memoized() const { return memoized_; }
  int attr() const { return attr_; }
  const Metric& metric() const { return *metric_; }

 private:
  // Upper-triangle index for a <= b (symmetry halves the storage).
  static size_t TriIndex(uint32_t a, uint32_t b) {
    return static_cast<size_t>(b) * (b + 1) / 2 + a;
  }

  const EncodedRelation* encoded_;
  int attr_;
  MetricPtr metric_;
  bool memoized_ = false;
  std::vector<double> table_;
};

/// Memoized threshold-bucket indices over one column's dictionary codes.
///
/// Consumers that only test `distance <= threshold` (MD/NED similarity
/// predicates, dedup rules, the evidence kernel's distance-bucket facets)
/// never need the distance itself — only which band of a sorted threshold
/// list it falls in. Storing one byte per code pair instead of a double
/// quarters the footprint. For edit distance the fill first bounds each
/// code pair from below by its length gap and by its byte-presence
/// signatures (64 bits per code; an edit adds and removes at most one
/// byte value, so the bound is at least ceil(popcount(sig_a ^ sig_b) / 2));
/// a pair whose bound exceeds the largest finite threshold falls past every
/// finite threshold without a scan. Every other pair gets its exact
/// distance from the bit-parallel EditDistanceKernel (metric.h), whose
/// pattern masks are built once per triangle row, so no threshold limits
/// the fill and no pair ever reads an approximate distance.
///
/// Bucket(a, b) returns the smallest index j with distance <= thresholds[j],
/// or thresholds.size() when the distance (finite or not) exceeds every
/// threshold. The comparisons use the exact doubles the metric would
/// return, so buckets are bit-identical to "d <= threshold" tests on the
/// Values, memoized or not.
///
/// The evidence kernel builds these for bucketed columns that borrow no
/// exact table (MD, NED), under the same cap as its CodeDistanceTables.
class CodeBucketTable {
 public:
  /// `thresholds` must be sorted ascending. The byte-wide memo holds at
  /// most 254 thresholds; a longer list computes each pair's bucket on the
  /// decoded values. The encoding (and the metric) must outlive the table.
  CodeBucketTable(const EncodedRelation& encoded, int attr, MetricPtr metric,
                  std::vector<double> thresholds, ThreadPool* pool = nullptr,
                  int64_t max_entries = CodeDistanceTable::kDefaultMaxEntries);

  uint32_t Bucket(uint32_t a, uint32_t b) const {
    if (memoized_) return table_[TriIndex(std::min(a, b), std::max(a, b))];
    return BucketOf(metric_->Distance(encoded_->Decode(attr_, a),
                                      encoded_->Decode(attr_, b)));
  }

  /// Bucket(a, b[k]) for k in [0, count), into out (see Distances).
  void Buckets(uint32_t a, const uint32_t* b, int count, uint32_t* out) const {
    for (int k = 0; k < count; ++k) out[k] = Bucket(a, b[k]);
  }

  uint32_t RowBucket(int row_a, int row_b) const {
    return Bucket(encoded_->code(row_a, attr_), encoded_->code(row_b, attr_));
  }

  /// Band of one raw distance under this table's thresholds.
  uint32_t BucketOf(double d) const {
    uint32_t j = 0;
    for (double t : thresholds_) {
      if (d <= t) return j;
      ++j;
    }
    return j;
  }

  int num_thresholds() const { return static_cast<int>(thresholds_.size()); }
  bool memoized() const { return memoized_; }
  size_t footprint_bytes() const { return table_.capacity(); }

 private:
  static size_t TriIndex(uint32_t a, uint32_t b) {
    return static_cast<size_t>(b) * (b + 1) / 2 + a;
  }

  const EncodedRelation* encoded_;
  int attr_;
  MetricPtr metric_;
  std::vector<double> thresholds_;
  bool memoized_ = false;
  std::vector<uint8_t> table_;
};

}  // namespace famtree

#endif  // FAMTREE_METRIC_CODE_DISTANCE_H_
