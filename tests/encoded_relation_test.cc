#include "relation/encoded_relation.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <numeric>
#include <random>
#include <unordered_map>

#include "deps/sd.h"
#include "discovery/discovery_util.h"
#include "relation/csv.h"
#include "relation/ooc/sharded_relation.h"
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

/// The per-hash bucket encoder that EncodedRelation's constructor,
/// Appended and the out-of-core ingester each carried before
/// ValueDictionary: bucket by Value::Hash, scan a bucket in code order, and
/// the first equal value's code wins.
struct OracleColumn {
  std::vector<uint32_t> codes;
  std::vector<Value> dict;
};

OracleColumn OracleEncode(const std::vector<Value>& cells) {
  OracleColumn out;
  std::unordered_map<size_t, std::vector<uint32_t>> buckets;
  for (const Value& v : cells) {
    std::vector<uint32_t>& candidates = buckets[v.Hash()];
    auto hit = std::find_if(candidates.begin(), candidates.end(),
                            [&](uint32_t code) { return out.dict[code] == v; });
    if (hit != candidates.end()) {
      out.codes.push_back(*hit);
      continue;
    }
    uint32_t code = static_cast<uint32_t>(out.dict.size());
    out.dict.push_back(v);
    candidates.push_back(code);
    out.codes.push_back(code);
  }
  return out;
}

/// Same type and the same bits (a NaN matches a NaN, -0.0 only -0.0).
bool Identical(const Value& a, const Value& b) {
  if (a.type() != b.type()) return false;
  if (a.type() != ValueType::kDouble) return a == b;
  double x = a.as_double(), y = b.as_double();
  if (std::isnan(x)) return std::isnan(y);
  return std::memcmp(&x, &y, sizeof x) == 0;
}

void ExpectMatchesOracle(const std::vector<uint32_t>& codes,
                         const std::vector<Value>& dict,
                         const std::vector<Value>& cells,
                         const std::string& where) {
  OracleColumn oracle = OracleEncode(cells);
  ASSERT_EQ(codes, oracle.codes) << where;
  ASSERT_EQ(dict.size(), oracle.dict.size()) << where;
  for (size_t k = 0; k < dict.size(); ++k) {
    ASSERT_TRUE(Identical(dict[k], oracle.dict[k])) << where << " code " << k;
  }
}

void ExpectEncodingMatchesOracle(const EncodedRelation& enc,
                                 const Relation& r, const std::string& where) {
  for (int c = 0; c < r.num_columns(); ++c) {
    std::vector<Value> dict;
    for (int k = 0; k < enc.dict_size(c); ++k) dict.push_back(enc.Decode(c, k));
    ExpectMatchesOracle(enc.codes(c), dict, r.column(c),
                        where + " col " + std::to_string(c));
  }
}

/// Cells that stress the equality contract: ints beside equal doubles,
/// NaN, +/-0.0, +/-inf, 2^53 and 2^53+1 beside 2^53.0, strings, nulls.
/// Column 0 stays int-only (wide, so the table grows); column 1 turns
/// mixed part-way through, after an int-only prefix.
Value RandomCell(std::mt19937_64& rng, int col, int row) {
  const int64_t p53 = int64_t{1} << 53;
  const double inf = std::numeric_limits<double>::infinity();
  if (col == 0 || (col == 1 && row < 40)) {
    return Value(static_cast<int64_t>(rng() % 300) - 100);
  }
  switch (rng() % 13) {
    case 0: return Value(static_cast<int64_t>(rng() % 8));
    case 1: return Value(static_cast<double>(rng() % 8));
    case 2: return Value(static_cast<double>(rng() % 16) / 4);
    case 3: return Value(std::nan(""));
    case 4: return Value(0.0);
    case 5: return Value(-0.0);
    case 6: return Value(inf);
    case 7: return Value(-inf);
    case 8: return Value(p53);
    case 9: return Value(p53 + 1);
    case 10: return Value(static_cast<double>(p53));
    case 11: return Value("s" + std::to_string(rng() % 6));
    default: return Value::Null();
  }
}

std::vector<std::vector<Value>> RandomRows(std::mt19937_64& rng, int rows,
                                           int first_row) {
  std::vector<std::vector<Value>> out(rows);
  for (int i = 0; i < rows; ++i) {
    for (int c = 0; c < 3; ++c) {
      out[i].push_back(RandomCell(rng, c, first_row + i));
    }
  }
  return out;
}

TEST(ValueDictionaryTest, ConstructorMatchesBucketOracle) {
  std::mt19937_64 rng(11);
  for (int round = 0; round < 40; ++round) {
    RelationBuilder b({"a", "b", "c"});
    for (auto& row : RandomRows(rng, static_cast<int>(rng() % 300), 0)) {
      b.AddRow(std::move(row));
    }
    Relation r = std::move(b.Build()).value();
    ExpectEncodingMatchesOracle(EncodedRelation(r), r,
                                "round " + std::to_string(round));
  }
}

TEST(ValueDictionaryTest, AppendedMatchesBucketOracle) {
  std::mt19937_64 rng(12);
  for (int round = 0; round < 10; ++round) {
    RelationBuilder b({"a", "b", "c"});
    int rows = static_cast<int>(rng() % 30);
    for (auto& row : RandomRows(rng, rows, 0)) b.AddRow(std::move(row));
    Relation r = std::move(b.Build()).value();
    EncodedRelation enc(r);
    for (int batch = 0; batch < 8; ++batch) {
      int n = static_cast<int>(rng() % 25);
      ASSERT_TRUE(r.AppendRows(RandomRows(rng, n, rows)).ok());
      rows += n;
      auto appended = EncodedRelation::Appended(enc, r);
      ASSERT_TRUE(appended.ok());
      enc = std::move(appended).value();
      ExpectEncodingMatchesOracle(
          enc, r, "round " + std::to_string(round) + " batch " +
                      std::to_string(batch));
    }
  }
}

/// CSV text over number forms whose cells are equal across types.
std::string RandomCsv(std::mt19937_64& rng, int rows, bool header) {
  static const char* kTokens[] = {
      "1",   "1.0",  "nan", "-0.0", "0",  "0.0", "inf", "-inf",
      "9007199254740992", "9007199254740993", "9007199254740992.0",
      "abc", "", "NULL", "\"1\"", "7", "2.5", "-3"};
  const int num_tokens = sizeof(kTokens) / sizeof(kTokens[0]);
  std::string text = header ? "a,b,c\n" : "";
  for (int i = 0; i < rows; ++i) {
    text += std::to_string(rng() % 500) + ",";  // an int-only column
    text += kTokens[rng() % num_tokens];
    text += ",";
    text += kTokens[rng() % num_tokens];
    text += "\n";
  }
  return text;
}

void ExpectShardsMatchOracle(const ShardedEncodedRelation& sharded,
                             const Relation& r, const std::string& where) {
  auto enc = sharded.MaterializeEncoded(nullptr);
  ASSERT_TRUE(enc.ok());
  ASSERT_EQ(sharded.num_rows(), r.num_rows()) << where;
  for (int c = 0; c < r.num_columns(); ++c) {
    std::vector<Value> dict;
    for (int k = 0; k < sharded.dict_size(c); ++k) {
      dict.push_back(sharded.Decode(c, k));
    }
    ExpectMatchesOracle((*enc)->codes(c), dict, r.column(c),
                        where + " col " + std::to_string(c));
  }
}

TEST(ValueDictionaryTest, IngesterShardsMatchBucketOracle) {
  std::mt19937_64 rng(13);
  for (int round = 0; round < 20; ++round) {
    std::string base = RandomCsv(rng, static_cast<int>(rng() % 200), true);
    IngestOptions options;
    options.shard_rows = 16;
    options.io_chunk_bytes = 1 + rng() % 64;
    auto sharded = ShardedEncodedRelation::IngestCsvString(base, options);
    ASSERT_TRUE(sharded.ok());
    auto r = ReadCsvString(base);
    ASSERT_TRUE(r.ok());
    std::string where = "round " + std::to_string(round);
    ExpectShardsMatchOracle(**sharded, *r, where);
    // Appends resume the dictionaries where the ingest left them.
    std::string all = base;
    for (int batch = 0; batch < 3; ++batch) {
      std::string delta = RandomCsv(rng, static_cast<int>(rng() % 40), true);
      ASSERT_TRUE((*sharded)->AppendCsv(delta, options).ok());
      all += delta.substr(delta.find('\n') + 1);
      auto grown = ReadCsvString(all);
      ASSERT_TRUE(grown.ok());
      ExpectShardsMatchOracle(**sharded, *grown,
                              where + " batch " + std::to_string(batch));
    }
  }
}

TEST(ValueDictionaryTest, PinnedEqualityCases) {
  const double nan = std::nan("");
  const int64_t p53 = int64_t{1} << 53;
  RelationBuilder b({"nan", "zero", "one", "giant"});
  b.AddRow({Value(nan), Value(0.0), Value(1), Value(p53)});
  b.AddRow({Value(nan), Value(-0.0), Value(1.0), Value(p53 + 1)});
  b.AddRow({Value(nan), Value(0), Value(1), Value(static_cast<double>(p53))});
  Relation r = std::move(b.Build()).value();
  EncodedRelation enc(r);
  // Every NaN cell is its own value.
  EXPECT_EQ(enc.codes(0), (std::vector<uint32_t>{0, 1, 2}));
  // +0.0, -0.0 and 0 are one value, represented by the first.
  EXPECT_EQ(enc.codes(1), (std::vector<uint32_t>{0, 0, 0}));
  EXPECT_FALSE(std::signbit(enc.Decode(1, 0).as_double()));
  // 1 and 1.0 are one value.
  EXPECT_EQ(enc.codes(2), (std::vector<uint32_t>{0, 0, 0}));
  // 2^53 != 2^53+1 as ints, but 2^53.0 equals both: it takes the lowest
  // equal code.
  EXPECT_EQ(enc.codes(3), (std::vector<uint32_t>{0, 1, 0}));
  ExpectEncodingMatchesOracle(enc, r, "pinned");
}

}  // namespace
}  // namespace famtree
