// Property tests for the dictionary-encoded columnar backend: on random
// relations mixing ints, doubles (including exact integer doubles that
// compare equal cross-representation), strings and nulls, every encoded
// primitive must agree exactly — content, order and bit-identical doubles —
// with the Value-based oracle on the Relation. Plus the algebraic laws of
// the flat-CSR Product and the 63-attribute boundary.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "common/rng.h"
#include "relation/encoded_relation.h"
#include "relation/partition.h"
#include "relation/relation.h"

namespace famtree {
namespace {

/// A random cell mixing all four value kinds, with integer doubles thrown
/// in so cross-representation equality (Value(k) == Value(k.0)) is hit.
Value RandomCell(Rng* rng, int domain) {
  int64_t v = rng->Uniform(0, domain - 1);
  switch (rng->Uniform(0, 7)) {
    case 0: return Value();                                   // null
    case 1: return Value(static_cast<double>(v));             // k.0 == k
    case 2: return Value(static_cast<double>(v) + 0.5);       // true double
    case 3: return Value("s" + std::to_string(v));            // string
    default: return Value(v);                                 // int
  }
}

Relation MakeMixedRandomRelation(uint64_t seed, int rows, int cols,
                                 int domain) {
  Rng rng(seed);
  std::vector<std::string> names;
  for (int c = 0; c < cols; ++c) names.push_back("c" + std::to_string(c));
  RelationBuilder b(names);
  for (int r = 0; r < rows; ++r) {
    std::vector<Value> row;
    for (int c = 0; c < cols; ++c) row.push_back(RandomCell(&rng, domain));
    b.AddRow(std::move(row));
  }
  return std::move(b.Build()).value();
}

AttrSet RandomAttrSet(Rng* rng, int cols) {
  AttrSet attrs;
  for (int c = 0; c < cols; ++c) {
    if (rng->Uniform(0, 2) == 0) attrs.Add(c);
  }
  return attrs;
}

/// Order-free view for the Product laws (class order after a product is an
/// implementation detail; everything else is compared order-sensitively).
std::vector<std::vector<int>> Canonical(const StrippedPartition& p) {
  std::vector<std::vector<int>> classes = p.classes();
  for (auto& c : classes) std::sort(c.begin(), c.end());
  std::sort(classes.begin(), classes.end());
  return classes;
}

TEST(EncodedPropertyTest, GroupByAndCountDistinctMatchOracle) {
  for (uint64_t seed = 0; seed < 100; ++seed) {
    int rows = 10 + static_cast<int>(seed % 9) * 11;
    int cols = 2 + static_cast<int>(seed % 5);
    int domain = 2 + static_cast<int>(seed % 6);
    Relation r = MakeMixedRandomRelation(seed, rows, cols, domain);
    EncodedRelation enc(r);
    Rng rng(seed ^ 0x9e3779b97f4a7c15ULL);
    for (int trial = 0; trial < 4; ++trial) {
      AttrSet attrs = RandomAttrSet(&rng, cols);
      EXPECT_EQ(enc.GroupBy(attrs), r.GroupBy(attrs))
          << "seed " << seed << " attrs " << attrs.mask();
      EXPECT_EQ(enc.CountDistinct(attrs), r.CountDistinct(attrs))
          << "seed " << seed << " attrs " << attrs.mask();
    }
  }
}

TEST(EncodedPropertyTest, PartitionBuildersMatchOracleExactly) {
  for (uint64_t seed = 0; seed < 100; ++seed) {
    int rows = 10 + static_cast<int>(seed % 9) * 11;
    int cols = 2 + static_cast<int>(seed % 5);
    int domain = 2 + static_cast<int>(seed % 6);
    Relation r = MakeMixedRandomRelation(seed, rows, cols, domain);
    EncodedRelation enc(r);
    for (int a = 0; a < cols; ++a) {
      // Class-for-class, row-for-row identical — not just canonically.
      EXPECT_EQ(StrippedPartition::ForAttribute(enc, a).classes(),
                StrippedPartition::ForAttribute(r, a).classes())
          << "seed " << seed << " attr " << a;
    }
    Rng rng(seed ^ 0xdeadbeefULL);
    for (int trial = 0; trial < 3; ++trial) {
      AttrSet attrs = RandomAttrSet(&rng, cols);
      if (attrs.empty()) continue;
      EXPECT_EQ(StrippedPartition::ForAttributeSet(enc, attrs).classes(),
                StrippedPartition::ForAttributeSet(r, attrs).classes())
          << "seed " << seed << " attrs " << attrs.mask();
    }
  }
}

TEST(EncodedPropertyTest, FdErrorBitIdenticalToOracle) {
  for (uint64_t seed = 0; seed < 60; ++seed) {
    int rows = 10 + static_cast<int>(seed % 9) * 11;
    int cols = 2 + static_cast<int>(seed % 5);
    int domain = 2 + static_cast<int>(seed % 4);
    Relation r = MakeMixedRandomRelation(seed, rows, cols, domain);
    EncodedRelation enc(r);
    Rng rng(seed ^ 0x5ca1ab1eULL);
    for (int trial = 0; trial < 3; ++trial) {
      AttrSet lhs = RandomAttrSet(&rng, cols);
      if (lhs.empty()) continue;
      int rhs = static_cast<int>(rng.Uniform(0, cols - 1));
      StrippedPartition pli = StrippedPartition::ForAttributeSet(enc, lhs);
      EXPECT_EQ(pli.FdError(enc.codes(rhs), enc.dict_size(rhs)),
                pli.FdError(r, AttrSet::Single(rhs)))
          << "seed " << seed << " lhs " << lhs.mask() << " rhs " << rhs;
    }
  }
}

TEST(EncodedPropertyTest, FlatCsrProductCommutativeAssociative) {
  for (uint64_t seed = 0; seed < 100; ++seed) {
    int rows = 15 + static_cast<int>(seed % 8) * 9;
    int cols = 3;
    int domain = 2 + static_cast<int>(seed % 5);
    Relation r = MakeMixedRandomRelation(seed, rows, cols, domain);
    EncodedRelation enc(r);
    int n = r.num_rows();
    auto pa = StrippedPartition::ForAttribute(enc, 0);
    auto pb = StrippedPartition::ForAttribute(enc, 1);
    auto pc = StrippedPartition::ForAttribute(enc, 2);
    EXPECT_EQ(Canonical(pa.Product(pb, n)), Canonical(pb.Product(pa, n)))
        << "commutativity, seed " << seed;
    auto ab_c = pa.Product(pb, n).Product(pc, n);
    auto a_bc = pa.Product(pb.Product(pc, n), n);
    EXPECT_EQ(Canonical(ab_c), Canonical(a_bc))
        << "associativity, seed " << seed;
    EXPECT_EQ(Canonical(ab_c),
              Canonical(StrippedPartition::ForAttributeSet(
                  enc, AttrSet::Of({0, 1, 2}))))
        << "ground truth, seed " << seed;
  }
}

TEST(EncodedPropertyTest, WordBoundaryAttributeCounts) {
  // Straddle the 64-bit mask-word boundary from both sides: 63 (the old
  // single-word cap), 64/65 (first attributes in the second word) and a
  // few randomized widths beyond.
  for (int cols : {63, 64, 65, 70, 64 + static_cast<int>(Rng(11).Uniform(0, 5))}) {
    Rng rng(7 + cols);
    std::vector<std::string> names;
    for (int c = 0; c < cols; ++c) names.push_back("c" + std::to_string(c));
    RelationBuilder b(names);
    for (int r = 0; r < 40; ++r) {
      std::vector<Value> row;
      for (int c = 0; c < cols; ++c) row.push_back(RandomCell(&rng, 3));
      b.AddRow(std::move(row));
    }
    Relation r = std::move(b.Build()).value();
    EncodedRelation enc(r);
    AttrSet all = AttrSet::Full(cols);
    EXPECT_EQ(enc.GroupBy(all), r.GroupBy(all)) << "cols " << cols;
    EXPECT_EQ(enc.CountDistinct(all), r.CountDistinct(all)) << "cols " << cols;
    EXPECT_EQ(StrippedPartition::ForAttributeSet(enc, all).classes(),
              StrippedPartition::ForAttributeSet(r, all).classes())
        << "cols " << cols;
    EXPECT_EQ(StrippedPartition::ForAttribute(enc, cols - 1).classes(),
              StrippedPartition::ForAttribute(r, cols - 1).classes())
        << "cols " << cols;
  }
}

}  // namespace
}  // namespace famtree
