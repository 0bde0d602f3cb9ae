// Code-distance tables: the memoized fill and the non-memoized path
// (max_entries = 0, each Distance/Bucket computed on the decoded values)
// must agree bit for bit on every code pair, for every built-in metric. The
// evidence kernel takes the non-memoized path whenever a delta or pair-list
// walk compares fewer pairs than a column's code-pair triangle, so the two
// paths are interchangeable only if this holds — including on null, NaN
// and ±inf cells, on strings longer than one 64-byte kernel word, and on
// threshold lists with duplicates, +inf and limits beyond 64 edits.
//
// Both paths run the same bit-parallel edit-distance kernel, so the edit
// property test below checks them (and LevenshteinDistance) against a
// plain O(nm) dynamic program kept here as an independent oracle.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <algorithm>
#include <limits>
#include <random>
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

/// The textbook Levenshtein DP, one row at a time: the oracle for the
/// bit-parallel kernel.
int PlainLevenshtein(const std::string& a, const std::string& b) {
  std::vector<int> prev(b.size() + 1), cur(b.size() + 1);
  for (size_t j = 0; j <= b.size(); ++j) prev[j] = static_cast<int>(j);
  for (size_t i = 1; i <= a.size(); ++i) {
    cur[0] = static_cast<int>(i);
    for (size_t j = 1; j <= b.size(); ++j) {
      int cost = a[i - 1] == b[j - 1] ? 0 : 1;
      cur[j] = std::min({prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + cost});
    }
    std::swap(prev, cur);
  }
  return prev[b.size()];
}

/// EditDistanceMetric's contract, computed by the oracle.
double PlainEditDistance(const Value& a, const Value& b) {
  if (a.is_null() || b.is_null()) {
    return a.is_null() && b.is_null() ? 0.0 : kInf;
  }
  return PlainLevenshtein(a.ToString(), b.ToString());
}

uint8_t PlainBucket(double d, const std::vector<double>& thresholds) {
  uint8_t j = 0;
  while (j < thresholds.size() && !(d <= thresholds[j])) ++j;
  return j;
}

/// Random byte strings over `alphabet`: about half fresh, with lengths
/// clustered at the kernel's 64- and 128-byte word boundaries, and half a
/// few random edits away from an earlier string, so that long pairs also
/// fall within small thresholds.
std::vector<std::string> RandomStrings(const std::string& alphabet, int count,
                                       std::mt19937_64* rng) {
  static const int kBoundaries[] = {0, 1, 2, 63, 64, 65, 127, 128, 129, 150};
  auto pick = [rng](size_t n) {
    return static_cast<size_t>((*rng)() % n);
  };
  auto symbol = [&] { return alphabet[pick(alphabet.size())]; };
  std::vector<std::string> out;
  while (static_cast<int>(out.size()) < count) {
    std::string s;
    if (out.empty() || pick(2) == 0) {
      size_t len = pick(3) == 0 ? kBoundaries[pick(std::size(kBoundaries))]
                                : pick(151);
      for (size_t i = 0; i < len; ++i) s += symbol();
    } else {
      s = out[pick(out.size())];
      for (size_t e = pick(9); e > 0; --e) {
        size_t at = pick(s.size() + 1);
        switch (pick(3)) {
          case 0:
            s.insert(s.begin() + at, symbol());
            break;
          case 1:
            if (at < s.size()) s.erase(s.begin() + at);
            break;
          default:
            if (at < s.size()) s[at] = symbol();
        }
      }
    }
    out.push_back(std::move(s));
  }
  return out;
}

/// Sorted threshold lists with limits in [0, 70], duplicates, +inf and
/// fractional limits.
std::vector<double> RandomThresholds(std::mt19937_64* rng) {
  std::vector<double> th;
  for (size_t n = (*rng)() % 5; n > 0; --n) {
    double t = static_cast<double>((*rng)() % 71);
    if ((*rng)() % 4 == 0) t += 0.5;
    th.push_back(t);
    if ((*rng)() % 5 == 0) th.push_back(t);
  }
  if ((*rng)() % 3 == 0) th.push_back(kInf);
  std::sort(th.begin(), th.end());
  return th;
}

TEST(CodeDistanceTest, EditKernelMatchesPlainDp) {
  std::mt19937_64 rng(20261019);
  std::string binary = "ab", letters, bytes;
  for (char c = 'a'; c <= 'z'; ++c) letters += c;
  for (int c = 1; c <= 255; ++c) bytes += static_cast<char>(c);
  ThreadPool pool(3);
  MetricPtr edit = GetEditDistanceMetric();
  const std::vector<std::vector<double>> fixed = {
      {}, {0.0}, {kInf}, {64.0}, {70.0, kInf}, {1.0, 1.0, 3.0, kInf}};
  for (const std::string* alphabet : {&binary, &letters, &bytes}) {
    for (int round = 0; round < 4; ++round) {
      std::vector<std::string> strings = RandomStrings(*alphabet, 36, &rng);
      RelationBuilder builder({"s"});
      for (const std::string& s : strings) builder.AddRow({Value(s)});
      builder.AddRow({Value()});
      builder.AddRow({Value()});
      Relation r = std::move(builder.Build()).value();
      EncodedRelation enc(r);
      const uint32_t k = static_cast<uint32_t>(enc.dict_size(0));
      std::string where = "alphabet " + std::to_string(alphabet->size()) +
                          " round " + std::to_string(round);

      std::vector<double> want(static_cast<size_t>(k) * k);
      for (uint32_t a = 0; a < k; ++a) {
        for (uint32_t b = 0; b < k; ++b) {
          const Value& va = enc.Decode(0, a);
          const Value& vb = enc.Decode(0, b);
          want[a * k + b] = PlainEditDistance(va, vb);
          if (!va.is_null() && !vb.is_null()) {
            ASSERT_EQ(LevenshteinDistance(va.as_string(), vb.as_string()),
                      want[a * k + b])
                << where << " lengths " << va.as_string().size() << ","
                << vb.as_string().size();
          }
        }
      }

      CodeDistanceTable dist_serial(enc, 0, edit);
      CodeDistanceTable dist_pooled(enc, 0, edit, &pool);
      CodeDistanceTable dist_direct(enc, 0, edit, nullptr, 0);
      ASSERT_TRUE(dist_serial.memoized());
      ASSERT_FALSE(dist_direct.memoized());
      for (uint32_t a = 0; a < k; ++a) {
        for (uint32_t b = 0; b < k; ++b) {
          double w = want[a * k + b];
          ASSERT_EQ(dist_serial.Distance(a, b), w) << where;
          ASSERT_EQ(dist_pooled.Distance(a, b), w) << where;
          ASSERT_EQ(dist_direct.Distance(a, b), w) << where;
        }
      }

      std::vector<std::vector<double>> lists = fixed;
      for (int i = 0; i < 6; ++i) lists.push_back(RandomThresholds(&rng));
      for (const std::vector<double>& th : lists) {
        CodeBucketTable serial(enc, 0, edit, th);
        CodeBucketTable pooled(enc, 0, edit, th, &pool);
        CodeBucketTable direct(enc, 0, edit, th, nullptr, 0);
        ASSERT_TRUE(serial.memoized());
        ASSERT_FALSE(direct.memoized());
        for (uint32_t a = 0; a < k; ++a) {
          for (uint32_t b = 0; b < k; ++b) {
            uint8_t w = PlainBucket(want[a * k + b], th);
            ASSERT_EQ(serial.Bucket(a, b), w)
                << where << " codes " << a << "," << b << " distance "
                << want[a * k + b] << " thresholds " << th.size();
            ASSERT_EQ(pooled.Bucket(a, b), w) << where;
            ASSERT_EQ(direct.Bucket(a, b), w) << where;
          }
        }
      }
    }
  }
}

}  // namespace
}  // namespace famtree
