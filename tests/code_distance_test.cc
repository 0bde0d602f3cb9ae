// Code-distance tables: the memoized fill and the non-memoized path
// (max_entries = 0, each Distance/Bucket computed on the decoded values)
// must agree bit for bit on every code pair, for every built-in metric. The
// evidence kernel takes the non-memoized path whenever a delta or pair-list
// walk compares fewer pairs than a column's code-pair triangle, so the two
// paths are interchangeable only if this holds — including on null, NaN
// and ±inf cells, on strings longer than the banded edit-distance limit,
// and on threshold lists with duplicates, +inf and limits beyond the band.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "common/thread_pool.h"
#include "metric/code_distance.h"
#include "metric/metric.h"
#include "relation/encoded_relation.h"
#include "relation/relation.h"

namespace famtree {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

/// Column 0 is numeric-leaning, column 1 string-leaning; both mix in the
/// other kind, nulls and non-finite doubles so every metric sees its edge
/// cases. The long strings differ from each other by more and by less
/// than 64 edits.
Relation Cells() {
  std::string long_a(100, 'x');
  std::string long_b = long_a;
  long_b[50] = 'y';
  std::string long_c(90, 'y');
  std::string long_d;
  for (int i = 0; i < 45; ++i) long_d += "ab";
  std::vector<std::vector<Value>> rows = {
      {Value(int64_t{0}), Value("hotel")},
      {Value(int64_t{1}), Value("hotels")},
      {Value(2.5), Value("motel")},
      {Value(-3.0), Value("")},
      {Value(), Value()},
      {Value(kNaN), Value(long_a)},
      {Value(kInf), Value(long_b)},
      {Value(-kInf), Value(long_c)},
      {Value(1e300), Value(long_d)},
      {Value("7"), Value(int64_t{7})},
      {Value("seven"), Value(7.5)},
      {Value(int64_t{1000}), Value(kNaN)},
      {Value(0.25), Value(kInf)},
      {Value(int64_t{0}), Value("hotel")},  // repeated codes
  };
  RelationBuilder b({"num", "str"});
  for (auto& row : rows) b.AddRow(std::move(row));
  return std::move(b.Build()).value();
}

std::vector<MetricPtr> Metrics() {
  return {GetEditDistanceMetric(), GetAbsDiffMetric(), GetDiscreteMetric(),
          GetJaccardQGramMetric(2), GetJaccardQGramMetric(3)};
}

std::string Where(const Metric& m, int attr, uint32_t a, uint32_t b) {
  return m.name() + " attr " + std::to_string(attr) + " codes (" +
         std::to_string(a) + "," + std::to_string(b) + ")";
}

TEST(CodeDistanceTest, MemoizedDistancesMatchDirectBitForBit) {
  Relation r = Cells();
  EncodedRelation enc(r);
  ThreadPool pool(2);
  for (const MetricPtr& m : Metrics()) {
    for (int attr = 0; attr < r.num_columns(); ++attr) {
      CodeDistanceTable serial(enc, attr, m);
      CodeDistanceTable pooled(enc, attr, m, &pool);
      CodeDistanceTable direct(enc, attr, m, nullptr, 0);
      ASSERT_TRUE(serial.memoized());
      ASSERT_TRUE(pooled.memoized());
      ASSERT_FALSE(direct.memoized());
      uint32_t k = static_cast<uint32_t>(enc.dict_size(attr));
      for (uint32_t a = 0; a < k; ++a) {
        for (uint32_t b = 0; b < k; ++b) {
          // Compare bit patterns: NaN distances must match too.
          uint64_t want = std::bit_cast<uint64_t>(direct.Distance(a, b));
          EXPECT_EQ(std::bit_cast<uint64_t>(serial.Distance(a, b)), want)
              << Where(*m, attr, a, b);
          EXPECT_EQ(std::bit_cast<uint64_t>(pooled.Distance(a, b)), want)
              << Where(*m, attr, a, b);
        }
      }
    }
  }
}

TEST(CodeDistanceTest, MemoizedBucketsMatchDirect) {
  Relation r = Cells();
  EncodedRelation enc(r);
  ThreadPool pool(2);
  // Sorted ascending, as CodeBucketTable requires. Duplicates, +inf (alone,
  // repeated, after finite ones), a negative threshold, an empty list and
  // edit limits inside and beyond the 64-edit band.
  std::vector<std::vector<double>> lists = {
      {},
      {0.0},
      {0.0, 0.0, 2.0},
      {0.5, 1.0, 1.0, kInf},
      {3.0, kInf, kInf},
      {kInf},
      {-1.0, 0.0, 5.0},
      {1.0, 40.0, 64.0},
      {1.0, 64.0, 70.0},
      {2.0, 100.0, kInf},
  };
  for (const MetricPtr& m : Metrics()) {
    for (int attr = 0; attr < r.num_columns(); ++attr) {
      for (const std::vector<double>& th : lists) {
        CodeBucketTable serial(enc, attr, m, th);
        CodeBucketTable pooled(enc, attr, m, th, &pool);
        CodeBucketTable direct(enc, attr, m, th, nullptr, 0);
        ASSERT_TRUE(serial.memoized());
        ASSERT_TRUE(pooled.memoized());
        ASSERT_FALSE(direct.memoized());
        uint32_t k = static_cast<uint32_t>(enc.dict_size(attr));
        for (uint32_t a = 0; a < k; ++a) {
          for (uint32_t b = 0; b < k; ++b) {
            uint8_t want = direct.Bucket(a, b);
            // The direct path is "d <= threshold" on the metric's double.
            EXPECT_EQ(want, direct.BucketOf(m->Distance(enc.Decode(attr, a),
                                                         enc.Decode(attr, b))))
                << Where(*m, attr, a, b);
            EXPECT_EQ(serial.Bucket(a, b), want)
                << Where(*m, attr, a, b) << " thresholds " << th.size();
            EXPECT_EQ(pooled.Bucket(a, b), want)
                << Where(*m, attr, a, b) << " thresholds " << th.size();
          }
        }
      }
    }
  }
}

}  // namespace
}  // namespace famtree
