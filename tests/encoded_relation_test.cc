#include "relation/encoded_relation.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>

#include "deps/sd.h"
#include "discovery/discovery_util.h"
#include "relation/relation.h"

namespace famtree {
namespace {

Relation MixedRelation() {
  RelationBuilder b({"a", "b", "c"});
  b.AddRow({Value("x"), Value(1), Value()});
  b.AddRow({Value("y"), Value(1.0), Value(7)});
  b.AddRow({Value("x"), Value(2), Value()});
  b.AddRow({Value("y"), Value(2.5), Value(7.0)});
  b.AddRow({Value("x"), Value(1), Value("7")});
  return std::move(b.Build()).value();
}

TEST(EncodedRelationTest, CodesAreDenseInFirstOccurrenceOrder) {
  EncodedRelation enc(MixedRelation());
  ASSERT_EQ(enc.num_rows(), 5);
  ASSERT_EQ(enc.num_columns(), 3);
  // Column a: "x" first, then "y".
  EXPECT_EQ(enc.codes(0), (std::vector<uint32_t>{0, 1, 0, 1, 0}));
  EXPECT_EQ(enc.dict_size(0), 2);
  EXPECT_EQ(enc.Decode(0, 0), Value("x"));
  EXPECT_EQ(enc.Decode(0, 1), Value("y"));
}

TEST(EncodedRelationTest, CrossRepresentationNumericsShareACode) {
  EncodedRelation enc(MixedRelation());
  // Column b: 1 == 1.0 (one code), 2, 2.5.
  EXPECT_EQ(enc.codes(1), (std::vector<uint32_t>{0, 0, 1, 2, 0}));
  EXPECT_EQ(enc.dict_size(1), 3);
  // The representative is the first occurrence's Value.
  EXPECT_EQ(enc.Decode(1, 0).type(), ValueType::kInt);
}

TEST(EncodedRelationTest, NullsShareACodeAndStringsStayDistinct) {
  EncodedRelation enc(MixedRelation());
  // Column c: null, 7 == 7.0, "7" is its own value.
  EXPECT_EQ(enc.codes(2), (std::vector<uint32_t>{0, 1, 0, 1, 2}));
  EXPECT_TRUE(enc.Decode(2, 0).is_null());
  EXPECT_EQ(enc.Decode(2, 2), Value("7"));
}

TEST(EncodedRelationTest, GroupByMatchesRelationGroupBy) {
  Relation r = MixedRelation();
  EncodedRelation enc(r);
  for (AttrSet attrs :
       {AttrSet::Of({0}), AttrSet::Of({1}), AttrSet::Of({0, 1}),
        AttrSet::Of({0, 1, 2}), AttrSet()}) {
    EXPECT_EQ(enc.GroupBy(attrs), r.GroupBy(attrs)) << attrs.mask();
  }
}

TEST(EncodedRelationTest, CountDistinctMatchesRelation) {
  Relation r = MixedRelation();
  EncodedRelation enc(r);
  for (AttrSet attrs :
       {AttrSet::Of({0}), AttrSet::Of({2}), AttrSet::Of({0, 2}),
        AttrSet::Of({0, 1, 2})}) {
    EXPECT_EQ(enc.CountDistinct(attrs), r.CountDistinct(attrs))
        << attrs.mask();
  }
}

TEST(EncodedRelationTest, EmptyAttrSetIsOneGroup) {
  EncodedRelation enc(MixedRelation());
  std::vector<uint32_t> keys;
  EXPECT_EQ(enc.RowKeys(AttrSet(), &keys), 1);
  EXPECT_EQ(keys, (std::vector<uint32_t>{0, 0, 0, 0, 0}));
}

TEST(EncodedRelationTest, EmptyRelation) {
  RelationBuilder b({"a"});
  Relation r = std::move(b.Build()).value();
  EncodedRelation enc(r);
  EXPECT_EQ(enc.num_rows(), 0);
  EXPECT_EQ(enc.dict_size(0), 0);
  std::vector<uint32_t> keys;
  EXPECT_EQ(enc.RowKeys(AttrSet::Of({0}), &keys), 0);
  EXPECT_EQ(enc.CountDistinct(AttrSet::Of({0})), 0);
}

TEST(EncodedRelationTest, GiantIntSharesCodeWithItsDoubleImage) {
  // Regression for the Value::Hash fix: 2^53 + 1 compares equal to the
  // double 9007199254740992.0 (its rounded image), so the encoder must give
  // both one code — a hash inconsistent with operator== would split them
  // into separate dictionary buckets.
  int64_t giant = (int64_t{1} << 53) + 1;
  RelationBuilder b({"n"});
  b.AddRow({Value(giant)});
  b.AddRow({Value(9007199254740992.0)});
  b.AddRow({Value(giant)});
  Relation r = std::move(b.Build()).value();
  EncodedRelation enc(r);
  EXPECT_EQ(enc.codes(0), (std::vector<uint32_t>{0, 0, 0}));
  EXPECT_EQ(enc.CountDistinct(AttrSet::Of({0})), 1);
  // And grouping through the Value-based path agrees.
  EXPECT_EQ(enc.GroupBy(AttrSet::Of({0})), r.GroupBy(AttrSet::Of({0})));
}

/// Rows sorted the way Sd::SortedOrder did before NaN-safe sorting, which
/// is well defined on a NaN-free column: std::stable_sort by operator<.
std::vector<int> StableSortByValue(const Relation& r, int col) {
  std::vector<int> order(r.num_rows());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](int a, int b) {
    return r.Get(a, col) < r.Get(b, col);
  });
  return order;
}

bool IsNan(const Value& v) {
  return v.type() == ValueType::kDouble && std::isnan(v.as_double());
}

TEST(CodeRanksTest, NanFreeColumnsRankAndSortAsOperatorLess) {
  RelationBuilder b({"v"});
  const Value cells[] = {Value(3),   Value(1.5),  Value(),     Value("b"),
                         Value(1),   Value(3.0),  Value("a"),  Value(-2.5),
                         Value(),    Value(1),    Value(7),    Value("b")};
  for (const Value& v : cells) b.AddRow({v});
  Relation r = std::move(b.Build()).value();
  EncodedRelation enc(r);
  std::vector<uint32_t> rank = CodeRanks(enc, 0);
  for (int x = 0; x < enc.dict_size(0); ++x) {
    for (int y = 0; y < enc.dict_size(0); ++y) {
      EXPECT_EQ(rank[x] < rank[y], enc.Decode(0, x) < enc.Decode(0, y))
          << x << " " << y;
      if (x != y) EXPECT_NE(rank[x], rank[y]);
    }
  }
  std::vector<int> expected = StableSortByValue(r, 0);
  EXPECT_EQ(Sd::SortedOrder(r, 0), expected);
  EXPECT_EQ(SortedRowOrder(enc, 0, rank), expected);
}

TEST(CodeRanksTest, NanHeavyColumnsSortTheSameWayEveryTime) {
  const double nan = std::nan("");
  RelationBuilder b({"v"});
  const Value cells[] = {Value(nan), Value(2.0), Value(nan), Value(),
                         Value(nan), Value(-1),  Value(nan), Value(2),
                         Value("s"), Value(nan), Value(0.5), Value(nan)};
  for (const Value& v : cells) b.AddRow({v});
  Relation r = std::move(b.Build()).value();
  // Expected: the non-NaN rows in operator< order (stable), then the NaN
  // rows in row order.
  std::vector<int> expected, nans;
  for (int row = 0; row < r.num_rows(); ++row) {
    (IsNan(r.Get(row, 0)) ? nans : expected).push_back(row);
  }
  std::stable_sort(expected.begin(), expected.end(), [&](int a, int b) {
    return r.Get(a, 0) < r.Get(b, 0);
  });
  expected.insert(expected.end(), nans.begin(), nans.end());
  for (int round = 0; round < 3; ++round) {
    EncodedRelation enc(r);
    std::vector<uint32_t> rank = CodeRanks(enc, 0);
    std::vector<uint32_t> sorted_ranks = rank;
    std::sort(sorted_ranks.begin(), sorted_ranks.end());
    for (size_t k = 0; k < sorted_ranks.size(); ++k) {
      EXPECT_EQ(sorted_ranks[k], k);  // a permutation
    }
    EXPECT_EQ(Sd::SortedOrder(r, 0), expected) << round;
    EXPECT_EQ(SortedRowOrder(enc, 0, rank), expected) << round;
  }
  EXPECT_FALSE(SortsBefore(Value(nan), Value(nan)));
  EXPECT_TRUE(SortsBefore(Value("z"), Value(nan)));
  EXPECT_FALSE(SortsBefore(Value(nan), Value()));
}

}  // namespace
}  // namespace famtree
