// Differential tests for the quality applications on the unified fast
// path (encoded substrate + shared PLI cache + engine thread pool): for
// thread counts {1, 2, 8}, every QualityOptions overload must produce
// output bit-identical to its plain overload — the Value-based reference
// kept for exactly this comparison — with and without a PliCache. The
// miners are checked against brute-force oracles in miner_oracle_test.cc.
//
// Seeding convention: every generator seed in this file derives from
// CaseSeed("<TestCaseName>") — a stable FNV-1a hash of the case name —
// instead of a hand-picked literal. That keeps seeds unique per case and
// stable under test reordering, insertion and renumbering (a renamed case
// deliberately gets new data), and makes the seed for any case
// reconstructible from its name alone. A case needing several independent
// streams appends a suffix: CaseSeed("Name/aux").

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "engine/engine.h"
#include "gen/generators.h"
#include "metric/metric.h"
#include "relation/csv.h"

namespace famtree {
namespace {

const int kThreadCounts[] = {1, 2, 8};

/// Stable seed for a named test case: 64-bit FNV-1a over the name. Pure
/// arithmetic on the bytes, so the value never depends on compiler,
/// platform or test order — see the seeding convention in the file header.
constexpr uint64_t CaseSeed(const char* name) {
  uint64_t h = 14695981039346656037ULL;
  for (const char* p = name; *p != '\0'; ++p) {
    h ^= static_cast<uint64_t>(static_cast<unsigned char>(*p));
    h *= 1099511628211ULL;
  }
  return h;
}

/// Configurations every application is checked under against its plain
/// overload: serial, on the pool, and the full fast path (pool + cache).
std::vector<std::pair<std::string, QualityOptions>> FastConfigs(
    ThreadPool* pool, PliCache* cache) {
  std::vector<std::pair<std::string, QualityOptions>> configs;
  configs.push_back({"serial", QualityOptions{}});
  QualityOptions pooled;
  pooled.pool = pool;
  configs.push_back({"pool", pooled});
  QualityOptions full = pooled;
  full.cache = cache;
  configs.push_back({"pool+cache", full});
  return configs;
}

Relation SensorSeries(uint64_t seed, int rows) {
  Rng rng(seed);
  RelationBuilder b({"t", "v", "grp"});
  double v = 100.0;
  for (int i = 0; i < rows; ++i) {
    v += rng.Uniform(0, 6) - 3.0;
    if (i % 17 == 0) v += 40.0;  // occasional spikes
    // Duplicate timestamps now and then to exercise sort ties.
    b.AddRow({Value(i - (i % 11 == 0 ? 1 : 0)), Value(v),
              Value(static_cast<int64_t>(rng.Uniform(0, 2)))});
  }
  return std::move(b.Build()).value();
}

Relation ConflictRelation(uint64_t seed, int rows) {
  Rng rng(seed);
  RelationBuilder b({"name", "addr", "region"});
  for (int i = 0; i < rows; ++i) {
    b.AddRow({Value("h" + std::to_string(rng.Uniform(0, 7))),
              Value("a" + std::to_string(rng.Uniform(0, 5))),
              Value(rng.Bernoulli(0.5) ? "Boston" : "Chicago")});
  }
  return std::move(b.Build()).value();
}

void ExpectSameRepair(const RepairResult& oracle, const RepairResult& fast,
                      const std::string& what) {
  EXPECT_EQ(WriteCsvString(oracle.repaired), WriteCsvString(fast.repaired))
      << what;
  ASSERT_EQ(oracle.changes.size(), fast.changes.size()) << what;
  for (size_t i = 0; i < oracle.changes.size(); ++i) {
    EXPECT_EQ(oracle.changes[i].row, fast.changes[i].row) << what << " " << i;
    EXPECT_EQ(oracle.changes[i].col, fast.changes[i].col) << what << " " << i;
    EXPECT_EQ(oracle.changes[i].old_value, fast.changes[i].old_value)
        << what << " " << i;
    EXPECT_EQ(oracle.changes[i].new_value, fast.changes[i].new_value)
        << what << " " << i;
  }
  EXPECT_EQ(oracle.remaining_violations, fast.remaining_violations) << what;
}

class PortedDeterminismTest : public testing::TestWithParam<int> {};

// -------------------------------------------------- quality applications

TEST_P(PortedDeterminismTest, FdRepairMatchesOracle) {
  ThreadPool pool(GetParam());
  HotelConfig config;
  config.num_hotels = 60;
  config.rows_per_hotel = 4;
  config.variation_rate = 0.0;
  config.error_rate = 0.08;
  GeneratedData data = GenerateHotels(config);
  PliCache cache(data.relation);
  std::vector<Fd> fds = {Fd(AttrSet::Single(1), AttrSet::Single(2)),
                         Fd(AttrSet::Single(0), AttrSet::Single(4))};
  auto oracle = RepairWithFds(data.relation, fds);
  ASSERT_TRUE(oracle.ok());
  for (const auto& [name, options] :
       FastConfigs(&pool, &cache)) {
    auto fast = RepairWithFds(data.relation, fds, 4, options);
    ASSERT_TRUE(fast.ok()) << name;
    ExpectSameRepair(*oracle, *fast, "fd repair " + name);
  }
}

TEST_P(PortedDeterminismTest, CfdRepairMatchesOracle) {
  ThreadPool pool(GetParam());
  HotelConfig config;
  config.num_hotels = 50;
  config.variation_rate = 0.0;
  config.error_rate = 0.1;
  GeneratedData data = GenerateHotels(config);
  PliCache cache(data.relation);
  std::vector<Cfd> cfds = {
      Cfd(AttrSet::Single(1), AttrSet::Single(2),
          PatternTuple({PatternItem::Wildcard(1), PatternItem::Wildcard(2)})),
      Cfd(AttrSet::Single(3), AttrSet::Single(4),
          PatternTuple({PatternItem::Const(3, Value(2)),
                        PatternItem::Wildcard(4)}))};
  auto oracle = RepairWithCfds(data.relation, cfds);
  ASSERT_TRUE(oracle.ok());
  for (const auto& [name, options] :
       FastConfigs(&pool, &cache)) {
    auto fast = RepairWithCfds(data.relation, cfds, 4, options);
    ASSERT_TRUE(fast.ok()) << name;
    ExpectSameRepair(*oracle, *fast, "cfd repair " + name);
  }
}

TEST_P(PortedDeterminismTest, HolisticRepairMatchesOracle) {
  ThreadPool pool(GetParam());
  Rng rng(CaseSeed("HolisticRepairMatchesOracle"));
  RelationBuilder b({"addr", "region", "price"});
  for (int i = 0; i < 40; ++i) {
    int grp = static_cast<int>(rng.Uniform(0, 6));
    b.AddRow({Value("a" + std::to_string(grp)),
              Value(rng.Bernoulli(0.15) ? "Odd" : "r" + std::to_string(grp)),
              Value(100 + grp)});
  }
  Relation r = std::move(b.Build()).value();
  PliCache cache(r);
  Dc dc({DcPredicate{DcOperand::TupleA(0), CmpOp::kEq, DcOperand::TupleB(0)},
         DcPredicate{DcOperand::TupleA(1), CmpOp::kNeq,
                     DcOperand::TupleB(1)}});
  auto oracle = RepairWithDcsHolistic(r, {dc});
  ASSERT_TRUE(oracle.ok());
  for (const auto& [name, options] :
       FastConfigs(&pool, &cache)) {
    auto fast = RepairWithDcsHolistic(r, {dc}, 1000, options);
    ASSERT_TRUE(fast.ok()) << name;
    ExpectSameRepair(*oracle, *fast, "holistic " + name);
  }
}

TEST_P(PortedDeterminismTest, DedupMatchMatchesOracle) {
  // The matcher runs the evidence kernel unless its facets — one per
  // distinct (attr, metric), so "wide"'s 61 extra rules still fit in 10
  // bits — need more than 64 bits, which sends it to per-facet
  // distance-table scans ("wide_metrics": every extra rule on its own
  // metric object); both must read a NaN cell's distances as dissimilar, as
  // the plain overload does. "nan_threshold" adds a rule whose NaN
  // threshold matches no pair.
  for (const char* variant :
       {"kernel", "nan", "nan_threshold", "wide", "wide_metrics"}) {
    ThreadPool pool(GetParam());
    HeterogeneousConfig config;
    config.num_entities = 30;
    config.max_duplicates = 3;
    config.variation_rate = 0.4;
    config.seed = CaseSeed("DedupMatchMatchesOracle");
    GeneratedData data = GenerateHeterogeneous(config);
    if (std::string(variant) != "kernel") {
      data.relation.Set(3, 4, Value(std::nan("")));
    }
    PliCache cache(data.relation);
    std::vector<Md> rules = {
        Md({SimilarityPredicate{1, GetEditDistanceMetric(), 6},
            SimilarityPredicate{2, GetEditDistanceMetric(), 4}},
           AttrSet::Single(4)),
        Md({SimilarityPredicate{3, GetEditDistanceMetric(), 4},
            SimilarityPredicate{4, GetAbsDiffMetric(), 0}},
           AttrSet::Single(5))};
    if (std::string(variant) == "nan_threshold") {
      rules.push_back(Md({SimilarityPredicate{1, GetEditDistanceMetric(), 6},
                          SimilarityPredicate{2, GetEditDistanceMetric(),
                                              std::nan("")}},
                         AttrSet::Single(5)));
    }
    if (std::string(variant).starts_with("wide")) {
      bool own_metric = std::string(variant) == "wide_metrics";
      for (int k = 0; k < 61; ++k) {
        MetricPtr metric = own_metric ? std::make_shared<EditDistanceMetric>()
                                      : GetEditDistanceMetric();
        rules.push_back(
            Md({SimilarityPredicate{1 + k % 3, metric,
                                    static_cast<double>(k % 5)}},
               AttrSet::Single(5)));
      }
    }
    MdMatcher matcher(rules);
    auto oracle = matcher.Match(data.relation);
    ASSERT_TRUE(oracle.ok());
    for (const auto& [name, options] : FastConfigs(&pool, &cache)) {
      auto fast = matcher.Match(data.relation, options);
      ASSERT_TRUE(fast.ok()) << variant << " " << name;
      EXPECT_EQ(oracle->cluster_ids, fast->cluster_ids)
          << variant << " " << name;
      EXPECT_EQ(oracle->num_clusters, fast->num_clusters)
          << variant << " " << name;
      EXPECT_EQ(oracle->matched_pairs, fast->matched_pairs)
          << variant << " " << name;
    }
  }
}

TEST_P(PortedDeterminismTest, ImputeMatchesOracle) {
  ThreadPool pool(GetParam());
  Rng rng(CaseSeed("ImputeMatchesOracle"));
  RelationBuilder b({"street", "price"});
  for (int i = 0; i < 60; ++i) {
    int grp = static_cast<int>(rng.Uniform(0, 8));
    Value price = rng.Bernoulli(0.2)
                      ? Value::Null()
                      : Value(100.0 * grp + rng.Uniform(0, 9));
    b.AddRow({Value("street " + std::to_string(grp)), price});
  }
  Relation r = std::move(b.Build()).value();
  PliCache cache(r);
  Ned rule({Ned::Predicate{0, GetEditDistanceMetric(), 1.0}},
           {Ned::Predicate{1, GetAbsDiffMetric(), 50.0}});
  auto oracle = ImputeWithNed(r, rule);
  ASSERT_TRUE(oracle.ok());
  for (const auto& [name, options] :
       FastConfigs(&pool, &cache)) {
    auto fast = ImputeWithNed(r, rule, options);
    ASSERT_TRUE(fast.ok()) << name;
    EXPECT_EQ(WriteCsvString(oracle->imputed), WriteCsvString(fast->imputed))
        << name;
    EXPECT_EQ(oracle->filled, fast->filled) << name;
    EXPECT_EQ(oracle->unfilled, fast->unfilled) << name;
  }
}

TEST_P(PortedDeterminismTest, CqaMatchesOracle) {
  ThreadPool pool(GetParam());
  Relation r = ConflictRelation(CaseSeed("CqaMatchesOracle"), 50);
  PliCache cache(r);
  Fd fd(AttrSet::Single(1), AttrSet::Single(2));
  SelectionQuery q;
  q.attr = 2;
  q.op = CmpOp::kEq;
  q.constant = Value("Boston");
  q.projection = AttrSet::Of({0, 2});
  auto certain_oracle = CertainAnswers(r, fd, q);
  ASSERT_TRUE(certain_oracle.ok());
  auto possible_oracle = PossibleAnswers(r, fd, q);
  ASSERT_TRUE(possible_oracle.ok());
  for (const auto& [name, options] :
       FastConfigs(&pool, &cache)) {
    auto certain = CertainAnswers(r, fd, q, options);
    ASSERT_TRUE(certain.ok()) << name;
    EXPECT_EQ(WriteCsvString(*certain_oracle), WriteCsvString(*certain))
        << name;
    auto possible = PossibleAnswers(r, fd, q, options);
    ASSERT_TRUE(possible.ok()) << name;
    EXPECT_EQ(WriteCsvString(*possible_oracle), WriteCsvString(*possible))
        << name;
  }
}

TEST_P(PortedDeterminismTest, SpeedCleanMatchesOracle) {
  ThreadPool pool(GetParam());
  Relation r = SensorSeries(CaseSeed("SpeedCleanMatchesOracle"), 150);
  PliCache cache(r);
  SpeedConstraint sc{-5.0, 5.0};
  auto detect_oracle = DetectSpeedViolations(r, 0, 1, sc);
  ASSERT_TRUE(detect_oracle.ok());
  EXPECT_FALSE(detect_oracle->empty());  // the spikes must register
  auto repair_oracle = RepairWithSpeedConstraint(r, 0, 1, sc);
  ASSERT_TRUE(repair_oracle.ok());
  for (const auto& [name, options] :
       FastConfigs(&pool, &cache)) {
    auto detect = DetectSpeedViolations(r, 0, 1, sc, options);
    ASSERT_TRUE(detect.ok()) << name;
    EXPECT_EQ(*detect_oracle, *detect) << name;
    auto repair = RepairWithSpeedConstraint(r, 0, 1, sc, options);
    ASSERT_TRUE(repair.ok()) << name;
    ExpectSameRepair(*repair_oracle, *repair, "speed " + name);
  }
}

INSTANTIATE_TEST_SUITE_P(Threads, PortedDeterminismTest,
                         testing::ValuesIn(kThreadCounts));

// The engine façade must route the algorithms through the pool + cache
// fast path and stay identical to their serial free functions.
TEST(PortedEngineFacadeTest, FacadeMatchesSerialCalls) {
  EngineOptions engine_options;
  engine_options.num_threads = 4;
  DiscoveryEngine engine(engine_options);

  HotelConfig config;
  config.num_hotels = 40;
  config.error_rate = 0.05;
  GeneratedData data = GenerateHotels(config);
  const Relation& r = data.relation;

  auto cfds_serial = DiscoverConstantCfds(r);
  auto cfds = engine.ConstantCfds(r);
  ASSERT_TRUE(cfds_serial.ok());
  ASSERT_TRUE(cfds.ok());
  ASSERT_EQ(cfds_serial->size(), cfds->size());
  for (size_t i = 0; i < cfds_serial->size(); ++i) {
    EXPECT_EQ((*cfds_serial)[i].cfd.ToString(), (*cfds)[i].cfd.ToString());
  }

  auto ods_serial = DiscoverUnaryOds(r);
  auto ods = engine.UnaryOds(r);
  ASSERT_TRUE(ods_serial.ok());
  ASSERT_TRUE(ods.ok());
  ASSERT_EQ(ods_serial->size(), ods->size());
  for (size_t i = 0; i < ods_serial->size(); ++i) {
    EXPECT_EQ((*ods_serial)[i].od.ToString(), (*ods)[i].od.ToString());
  }

  std::vector<Fd> fds = {Fd(AttrSet::Single(1), AttrSet::Single(2))};
  auto repair_serial = RepairWithFds(r, fds);
  auto repair = engine.RepairFds(r, fds);
  ASSERT_TRUE(repair_serial.ok());
  ASSERT_TRUE(repair.ok());
  EXPECT_EQ(WriteCsvString(repair_serial->repaired),
            WriteCsvString(repair->repaired));
  EXPECT_EQ(repair_serial->changes.size(), repair->changes.size());

  DdDiscoveryOptions dd_options;
  dd_options.max_lhs_attrs = 1;
  auto dds_serial = DiscoverDds(r, dd_options);
  auto dds = engine.Dds(r, dd_options);
  ASSERT_TRUE(dds_serial.ok());
  ASSERT_TRUE(dds.ok());
  ASSERT_EQ(dds_serial->size(), dds->size());
  for (size_t i = 0; i < dds_serial->size(); ++i) {
    EXPECT_EQ((*dds_serial)[i].dd.ToString(), (*dds)[i].dd.ToString());
  }
}

}  // namespace
}  // namespace famtree
