#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "engine/engine.h"
#include "gen/paper_tables.h"
#include "relation/csv.h"
#include "relation/relation.h"

namespace famtree {
namespace {

Relation SmallRelation() {
  RelationBuilder b({"a", "b", "c"});
  b.AddRow({Value("x"), Value(1), Value("p")});
  b.AddRow({Value("x"), Value(1), Value("q")});
  b.AddRow({Value("y"), Value(2), Value("p")});
  b.AddRow({Value("x"), Value(3), Value("q")});
  return std::move(b.Build()).value();
}

TEST(SchemaTest, IndexLookup) {
  Schema s = Schema::FromNames({"a", "b"});
  EXPECT_EQ(*s.IndexOf("b"), 1);
  EXPECT_FALSE(s.IndexOf("z").ok());
  EXPECT_EQ(*s.SetOf({"a", "b"}), AttrSet::Of({0, 1}));
  EXPECT_FALSE(s.SetOf({"a", "zz"}).ok());
}

TEST(SchemaTest, NamesOf) {
  Schema s = Schema::FromNames({"a", "b", "c"});
  EXPECT_EQ(s.NamesOf(AttrSet::Of({0, 2})), "a, c");
}

TEST(RelationTest, BuilderRejectsWrongArity) {
  RelationBuilder b({"a", "b"});
  b.AddRow({Value(1)});
  EXPECT_FALSE(b.Build().ok());
}

TEST(RelationTest, GetSetRoundTrip) {
  Relation r = SmallRelation();
  EXPECT_EQ(r.num_rows(), 4);
  EXPECT_EQ(r.num_columns(), 3);
  EXPECT_EQ(r.Get(0, 0), Value("x"));
  r.Set(0, 0, Value("z"));
  EXPECT_EQ(r.Get(0, 0), Value("z"));
}

TEST(RelationTest, RowAndProject) {
  Relation r = SmallRelation();
  EXPECT_EQ(r.Row(2),
            (std::vector<Value>{Value("y"), Value(2), Value("p")}));
  EXPECT_EQ(r.Project(1, AttrSet::Of({0, 2})),
            (std::vector<Value>{Value("x"), Value("q")}));
}

TEST(RelationTest, AgreeOn) {
  Relation r = SmallRelation();
  EXPECT_TRUE(r.AgreeOn(0, 1, AttrSet::Of({0, 1})));
  EXPECT_FALSE(r.AgreeOn(0, 1, AttrSet::Of({2})));
  EXPECT_TRUE(r.AgreeOn(0, 3, AttrSet::Of({0})));
}

TEST(RelationTest, CountDistinct) {
  Relation r = SmallRelation();
  EXPECT_EQ(r.CountDistinct(AttrSet::Of({0})), 2);   // x, y
  EXPECT_EQ(r.CountDistinct(AttrSet::Of({1})), 3);   // 1, 2, 3
  EXPECT_EQ(r.CountDistinct(AttrSet::Of({0, 1})), 3);
}

TEST(RelationTest, GroupByPartitionsAllRows) {
  Relation r = SmallRelation();
  auto groups = r.GroupBy(AttrSet::Of({0}));
  ASSERT_EQ(groups.size(), 2u);
  size_t total = 0;
  for (const auto& g : groups) total += g.size();
  EXPECT_EQ(total, 4u);
  // First-occurrence order: group of "x" first.
  EXPECT_EQ(groups[0], (std::vector<int>{0, 1, 3}));
  EXPECT_EQ(groups[1], (std::vector<int>{2}));
}

TEST(RelationTest, GroupByWholeSchemaSeparatesDistinctRows) {
  Relation r = SmallRelation();
  EXPECT_EQ(r.GroupBy(AttrSet::Full(3)).size(), 4u);
}

TEST(RelationTest, SelectPreservesOrder) {
  Relation r = SmallRelation();
  Relation s = r.Select({3, 0});
  EXPECT_EQ(s.num_rows(), 2);
  EXPECT_EQ(s.Get(0, 1), Value(3));
  EXPECT_EQ(s.Get(1, 1), Value(1));
}

TEST(RelationTest, ProjectColumns) {
  Relation r = SmallRelation();
  Relation p = r.ProjectColumns(AttrSet::Of({1, 2}));
  EXPECT_EQ(p.num_columns(), 2);
  EXPECT_EQ(p.schema().name(0), "b");
  EXPECT_EQ(p.Get(0, 0), Value(1));
  EXPECT_EQ(p.Get(0, 1), Value("p"));
}

TEST(RelationTest, InferTypes) {
  RelationBuilder b({"i", "d", "s", "mixed", "with_null"});
  b.AddRow({Value(1), Value(1.5), Value("x"), Value(1), Value(2)});
  b.AddRow({Value(2), Value(2), Value("y"), Value("one"), Value::Null()});
  Relation r = std::move(b.Build()).value();
  EXPECT_EQ(r.schema().column(0).type, ValueType::kInt);
  EXPECT_EQ(r.schema().column(1).type, ValueType::kDouble);  // int+double
  EXPECT_EQ(r.schema().column(2).type, ValueType::kString);
  EXPECT_EQ(r.schema().column(3).type, ValueType::kNull);  // mixed
  EXPECT_EQ(r.schema().column(4).type, ValueType::kInt);  // nulls ignored
}

TEST(RelationTest, PrettyStringContainsHeaderAndValues) {
  Relation r = SmallRelation();
  std::string s = r.ToPrettyString();
  EXPECT_NE(s.find("a"), std::string::npos);
  EXPECT_NE(s.find("x"), std::string::npos);
}

TEST(RelationTest, PrettyStringTruncates) {
  Relation r = SmallRelation();
  std::string s = r.ToPrettyString(2);
  EXPECT_NE(s.find("more rows"), std::string::npos);
}

TEST(PaperTablesTest, ShapesMatchThePaper) {
  EXPECT_EQ(paper::R1().num_rows(), 8);
  EXPECT_EQ(paper::R1().num_columns(), 5);
  EXPECT_EQ(paper::R5().num_rows(), 4);
  EXPECT_EQ(paper::R5().num_columns(), 4);
  EXPECT_EQ(paper::R6().num_rows(), 6);
  EXPECT_EQ(paper::R6().num_columns(), 8);
  EXPECT_EQ(paper::R7().num_rows(), 4);
  EXPECT_EQ(paper::R7().num_columns(), 4);
  EXPECT_EQ(paper::DataspaceExample().num_rows(), 3);
}

TEST(PaperTablesTest, R1KnownCells) {
  Relation r1 = paper::R1();
  EXPECT_EQ(r1.Get(0, paper::R1Attrs::kRegion), Value("New York"));
  EXPECT_EQ(r1.Get(3, paper::R1Attrs::kRegion), Value("Chicago, MA"));
  EXPECT_EQ(r1.Get(7, paper::R1Attrs::kPrice), Value(0));
}

TEST(PaperTablesTest, TypesInferred) {
  Relation r7 = paper::R7();
  for (int c = 0; c < 4; ++c) {
    EXPECT_EQ(r7.schema().column(c).type, ValueType::kInt);
  }
  Relation r1 = paper::R1();
  EXPECT_EQ(r1.schema().column(paper::R1Attrs::kName).type,
            ValueType::kString);
}

/// The fingerprint a full pass over every cell gives.
uint64_t FullPassFingerprint(const Relation& r) {
  return FinalizeRelationFingerprint(
      RelationRowChain(r, 0, r.num_rows(), kRelationChainSeed), r.schema(),
      r.num_rows());
}

std::vector<Value> RandomRow(Rng* rng, int cols) {
  std::vector<Value> row;
  for (int c = 0; c < cols; ++c) {
    int64_t v = rng->Uniform(0, 5);
    switch (rng->Uniform(0, 3)) {
      case 0: row.push_back(Value()); break;
      case 1: row.push_back(Value(static_cast<double>(v) + 0.5)); break;
      case 2: row.push_back(Value("s" + std::to_string(v))); break;
      default: row.push_back(Value(v)); break;
    }
  }
  return row;
}

// The fingerprint chain a Relation keeps is an acceleration only: after
// any sequence of mutations, copies and moves, RelationFingerprint equals
// a full pass over every cell.
TEST(RelationFingerprintTest, ChainedFingerprintEqualsFullPass) {
  for (uint64_t seed = 0; seed < 40; ++seed) {
    Rng rng(seed);
    int cols = 1 + static_cast<int>(seed % 4);
    std::vector<std::string> names;
    for (int c = 0; c < cols; ++c) names.push_back("c" + std::to_string(c));
    RelationBuilder b(names);
    int base = static_cast<int>(rng.Uniform(0, 6));
    for (int i = 0; i < base; ++i) b.AddRow(RandomRow(&rng, cols));
    Relation r = std::move(b.Build()).value();
    ASSERT_EQ(RelationFingerprint(r), FullPassFingerprint(r));
    for (int step = 0; step < 60; ++step) {
      int op = static_cast<int>(rng.Uniform(0, 8));
      switch (op) {
        case 0:
          ASSERT_TRUE(r.AppendRow(RandomRow(&rng, cols)).ok());
          break;
        case 1: {
          std::vector<std::vector<Value>> rows;
          int n = static_cast<int>(rng.Uniform(0, 3));
          for (int i = 0; i < n; ++i) rows.push_back(RandomRow(&rng, cols));
          ASSERT_TRUE(r.AppendRows(std::move(rows)).ok());
          break;
        }
        case 2:
          if (r.num_rows() > 0) {
            r.Set(static_cast<int>(rng.Uniform(0, r.num_rows() - 1)),
                  static_cast<int>(rng.Uniform(0, cols - 1)),
                  RandomRow(&rng, 1)[0]);
          }
          break;
        case 3:
          r.InferTypes();
          break;
        case 4: {
          Relation copy = r;
          EXPECT_EQ(RelationFingerprint(copy), RelationFingerprint(r));
          // Growing the copy leaves the original's chain alone.
          ASSERT_TRUE(copy.AppendRows({RandomRow(&rng, cols)}).ok());
          EXPECT_EQ(RelationFingerprint(copy), FullPassFingerprint(copy));
          if (rng.Uniform(0, 1) == 0) r = copy;
          break;
        }
        case 5: {
          Relation moved = std::move(r);
          EXPECT_EQ(r.num_rows(), 0);  // NOLINT(bugprone-use-after-move)
          EXPECT_EQ(RelationFingerprint(r), FullPassFingerprint(r));
          r = std::move(moved);
          break;
        }
        case 6: {
          std::vector<int> rows;
          for (int i = 0; i < r.num_rows(); ++i) {
            if (rng.Uniform(0, 1) == 0) rows.push_back(i);
          }
          Relation selected = r.Select(rows);
          EXPECT_EQ(RelationFingerprint(selected),
                    FullPassFingerprint(selected));
          if (rng.Uniform(0, 2) == 0) r = std::move(selected);
          break;
        }
        default:
          r.AdvanceFingerprintChain();
          break;
      }
      ASSERT_EQ(RelationFingerprint(r), FullPassFingerprint(r))
          << "seed " << seed << " step " << step << " op " << op;
    }
  }
}

// A built relation (RelationBuilder, ReadCsvString) starts with every row
// folded into its chain, so each engine lookup costs O(schema); the chain
// still equals a from-scratch hash, and Set still resets it.
TEST(RelationFingerprintTest, BuiltRelationHasCurrentChain) {
  Relation built = SmallRelation();
  EXPECT_EQ(built.fingerprint_chain_rows(), built.num_rows());
  EXPECT_EQ(RelationFingerprint(built), FullPassFingerprint(built));
  auto parsed = ReadCsvString("a,b\nx,1\ny,2\nx,3\n");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->num_rows(), 3);
  EXPECT_EQ(parsed->fingerprint_chain_rows(), parsed->num_rows());
  EXPECT_EQ(RelationFingerprint(*parsed), FullPassFingerprint(*parsed));

  const uint64_t before = RelationFingerprint(built);
  built.Set(1, 1, Value(int64_t{99}));
  EXPECT_EQ(built.fingerprint_chain_rows(), 0);
  EXPECT_EQ(RelationFingerprint(built), FullPassFingerprint(built));
  EXPECT_NE(RelationFingerprint(built), before);
}

// A relation mutated in place after the engine registered it (and after
// appends advanced its chain past every row) is still refused.
TEST(RelationFingerprintTest, SetOnRegisteredRelationIsRefused) {
  Relation r = SmallRelation();
  DiscoveryEngine engine;
  ASSERT_TRUE(engine.CacheFor(r).ok());
  ASSERT_TRUE(
      engine.AppendRows(r, {{Value("z"), Value(4), Value("p")}}).ok());
  ASSERT_TRUE(engine.CacheFor(r).ok());
  r.Set(0, 2, Value("changed"));
  Result<PliCache*> cache = engine.CacheFor(r);
  ASSERT_FALSE(cache.ok());
  EXPECT_EQ(cache.status().code(), StatusCode::kInvalidArgument);
  EXPECT_FALSE(
      engine.AppendRows(r, {{Value("w"), Value(5), Value("q")}}).ok());
}

}  // namespace
}  // namespace famtree
