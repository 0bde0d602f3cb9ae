// Differential tests for ViolationDetector::Detect against the per-rule
// `deps/` validators it must reproduce: on random mixed-type relations
// (nulls, NaN, +/-inf, giant ints, strings longer than the edit band), every
// report — holds, violation_count, witness rows and descriptions in order,
// and measure bit for bit — equals rule->Validate(relation, cap), for rule
// lists that interleave FDs, MDs, compiled DCs and every fallback shape, at
// every cap, thread count and cache arrangement. Plus the anytime prefix
// under an injected cutoff and a call count proving that MD predicates on
// one (attr, metric) share one bucket table.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/run_context.h"
#include "common/thread_pool.h"
#include "deps/dc.h"
#include "deps/fd.h"
#include "deps/md.h"
#include "engine/pli_cache.h"
#include "metric/metric.h"
#include "quality/detector.h"

namespace famtree {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr int64_t kGiant = int64_t{1} << 53;
const int kCaps[] = {0, 1, 3, 1 << 30};

std::string RandomWord(Rng* rng, int min_len, int max_len) {
  int len = static_cast<int>(rng->Uniform(min_len, max_len));
  std::string s;
  for (int k = 0; k < len; ++k) {
    s += static_cast<char>('a' + rng->Uniform(0, 3));
  }
  return s;
}

/// Columns: 0 short strings (some far longer than any edit band), 1 small
/// ints (some giant, never beside a double), 2 doubles with NaN and +/-inf,
/// 3 categories, 4 numerics whose cells may differ from their dictionary
/// representative (1 beside 1.0, 0.0 beside -0.0, 2^53 + 1 beside the double
/// 2^53 it equals, which in turn equals the int 2^53), 5 small ints. Nulls
/// everywhere.
Relation MakeOracleRelation(uint64_t seed, int rows) {
  Rng rng(seed);
  RelationBuilder b({"name", "qty", "score", "cat", "mixed", "grp"});
  for (int r = 0; r < rows; ++r) {
    std::vector<Value> row;
    auto null_or = [&](Value v) {
      return rng.Uniform(0, 9) == 0 ? Value::Null() : std::move(v);
    };
    row.push_back(null_or(Value(rng.Uniform(0, 7) == 0
                                    ? RandomWord(&rng, 70, 90)
                                    : RandomWord(&rng, 2, 5))));
    int64_t q = rng.Uniform(0, 6);
    if (rng.Uniform(0, 5) == 0) q = kGiant + rng.Uniform(0, 2);
    row.push_back(null_or(Value(q)));
    double s = static_cast<double>(rng.Uniform(0, 8)) / 2;
    switch (rng.Uniform(0, 7)) {
      case 0: s = std::nan(""); break;
      case 1: s = kInf; break;
      case 2: s = -kInf; break;
      default: break;
    }
    row.push_back(null_or(Value(s)));
    row.push_back(null_or(Value("k" + std::to_string(rng.Uniform(0, 2)))));
    int64_t m = rng.Uniform(0, 3);
    Value mixed[] = {Value(m),          Value(static_cast<double>(m)),
                     Value(kGiant + 1), Value(static_cast<double>(kGiant)),
                     Value(kGiant),     Value(-0.0),
                     Value(0.0)};
    row.push_back(null_or(mixed[rng.Uniform(0, 6)]));
    row.push_back(null_or(Value(rng.Uniform(0, 3))));
    b.AddRow(std::move(row));
  }
  return std::move(b.Build()).value();
}

DcPredicate Same(int attr, CmpOp op) {
  return DcPredicate{DcOperand::TupleA(attr), op, DcOperand::TupleB(attr)};
}

/// Rule list interleaving every class and shape the detector treats
/// differently: FDs, MDs on shared and on distinct metric objects, DCs the
/// comparison word compiles, and each DC / MD shape that stays on Validate.
std::vector<DependencyPtr> MixedRules(uint64_t seed) {
  Rng rng(seed);
  MetricPtr edit = GetEditDistanceMetric();
  MetricPtr own_edit = std::make_shared<EditDistanceMetric>();
  MetricPtr absdiff = GetAbsDiffMetric();
  std::vector<DependencyPtr> rules;
  auto threshold = [&](int hi) {
    return static_cast<double>(rng.Uniform(0, hi));
  };
  rules.push_back(
      std::make_shared<Fd>(AttrSet::Single(3), AttrSet::Single(5)));
  rules.push_back(std::make_shared<Md>(
      std::vector<SimilarityPredicate>{{0, edit, threshold(3)}},
      AttrSet::Single(3)));
  rules.push_back(std::make_shared<Dc>(std::vector<DcPredicate>{
      Same(3, CmpOp::kEq), Same(1, CmpOp::kLt), Same(5, CmpOp::kGe)}));
  rules.push_back(std::make_shared<Md>(
      std::vector<SimilarityPredicate>{{0, own_edit, threshold(3)},
                                       {2, absdiff, threshold(2)}},
      AttrSet::Single(5).Union(AttrSet::Single(3))));
  // Single-tuple DC (fallback).
  rules.push_back(std::make_shared<Dc>(std::vector<DcPredicate>{
      DcPredicate{DcOperand::TupleA(1), CmpOp::kGt, DcOperand::TupleA(5)}}));
  rules.push_back(std::make_shared<Md>(
      std::vector<SimilarityPredicate>{{1, absdiff, threshold(2)}},
      AttrSet::Single(0)));
  // DC with a constant (fallback).
  rules.push_back(std::make_shared<Dc>(std::vector<DcPredicate>{
      Same(3, CmpOp::kEq),
      DcPredicate{DcOperand::TupleA(5), CmpOp::kEq,
                  DcOperand::Const(Value(1))}}));
  // Equality and inequality on the NaN column compile; order there falls
  // back.
  rules.push_back(std::make_shared<Dc>(std::vector<DcPredicate>{
      Same(2, CmpOp::kEq), Same(0, CmpOp::kNeq)}));
  rules.push_back(std::make_shared<Dc>(std::vector<DcPredicate>{
      Same(2, CmpOp::kLe), Same(5, CmpOp::kEq)}));
  rules.push_back(
      std::make_shared<Fd>(AttrSet::Single(0), AttrSet::Single(3)));
  // Cross-column and tb-vs-ta predicates (fallback).
  rules.push_back(std::make_shared<Dc>(std::vector<DcPredicate>{
      DcPredicate{DcOperand::TupleA(1), CmpOp::kLt, DcOperand::TupleB(5)}}));
  rules.push_back(std::make_shared<Dc>(std::vector<DcPredicate>{
      DcPredicate{DcOperand::TupleB(5), CmpOp::kLt, DcOperand::TupleA(5)},
      Same(3, CmpOp::kEq)}));
  // Strings ordered, a contradictory DC that never holds, and a DC whose
  // predicates on one attribute intersect to a single order outcome.
  rules.push_back(std::make_shared<Dc>(std::vector<DcPredicate>{
      Same(0, CmpOp::kGt), Same(3, CmpOp::kEq)}));
  rules.push_back(std::make_shared<Dc>(std::vector<DcPredicate>{
      Same(5, CmpOp::kLt), Same(5, CmpOp::kGt)}));
  rules.push_back(std::make_shared<Dc>(std::vector<DcPredicate>{
      Same(1, CmpOp::kNeq), Same(1, CmpOp::kLe), Same(5, CmpOp::kNeq)}));
  // Cells differing from their dictionary representative (fallback).
  rules.push_back(std::make_shared<Dc>(std::vector<DcPredicate>{
      Same(4, CmpOp::kEq), Same(5, CmpOp::kNeq)}));
  rules.push_back(std::make_shared<Md>(
      std::vector<SimilarityPredicate>{{4, edit, 0.0}}, AttrSet::Single(5)));
  // NaN and +inf thresholds; an MD on the giant ints.
  rules.push_back(std::make_shared<Md>(
      std::vector<SimilarityPredicate>{{2, absdiff, std::nan("")}},
      AttrSet::Single(3)));
  rules.push_back(std::make_shared<Md>(
      std::vector<SimilarityPredicate>{{0, edit, kInf}, {3, edit, 0.0}},
      AttrSet::Single(1)));
  rules.push_back(std::make_shared<Md>(
      std::vector<SimilarityPredicate>{{1, absdiff, 1.0}},
      AttrSet::Single(5)));
  return rules;
}

/// Enough MDs on distinct metric objects to push the word past 64 bits:
/// it takes more lanes, and every rule still runs on the compiled pair
/// walk, checked against Validate like any other.
std::vector<DependencyPtr> WideRules() {
  std::vector<DependencyPtr> rules;
  for (int k = 0; k < 70; ++k) {
    rules.push_back(std::make_shared<Md>(
        std::vector<SimilarityPredicate>{
            {k % 2 == 0 ? 0 : 3, std::make_shared<EditDistanceMetric>(),
             static_cast<double>(k % 3)}},
        AttrSet::Single(5)));
    if (k % 10 == 0) {
      rules.push_back(std::make_shared<Dc>(std::vector<DcPredicate>{
          Same(5, CmpOp::kEq), Same(1, CmpOp::kGt)}));
    }
  }
  return rules;
}

bool SameBits(double a, double b) {
  return std::bit_cast<uint64_t>(a) == std::bit_cast<uint64_t>(b);
}

void ExpectMatchesValidate(const Relation& relation,
                           const std::vector<DependencyPtr>& rules, int cap,
                           const DetectionSummary& summary,
                           const std::string& what) {
  ASSERT_EQ(summary.results.size(), rules.size()) << what;
  std::vector<int> flagged;
  for (size_t i = 0; i < rules.size(); ++i) {
    auto oracle = rules[i]->Validate(relation, cap);
    ASSERT_TRUE(oracle.ok()) << what << " rule " << i;
    const ValidationReport& got = summary.results[i].report;
    std::string where = what + " rule " + std::to_string(i) + " " +
                        rules[i]->ToString(&relation.schema());
    EXPECT_EQ(summary.results[i].dependency, rules[i]) << where;
    EXPECT_EQ(got.holds, oracle->holds) << where;
    EXPECT_EQ(got.violation_count, oracle->violation_count) << where;
    EXPECT_EQ(got.violations, oracle->violations) << where;
    EXPECT_TRUE(SameBits(got.measure, oracle->measure))
        << where << ": " << got.measure << " vs " << oracle->measure;
    for (const Violation& v : oracle->violations) {
      flagged.insert(flagged.end(), v.rows.begin(), v.rows.end());
    }
  }
  std::sort(flagged.begin(), flagged.end());
  flagged.erase(std::unique(flagged.begin(), flagged.end()), flagged.end());
  EXPECT_EQ(summary.flagged_rows, flagged) << what;
}

/// Runs Detect serially and at 1/2/8 threads, with no cache, a cache for
/// the relation and a cache for another relation.
void CheckEveryArrangement(const Relation& relation,
                           const std::vector<DependencyPtr>& rules,
                           const std::string& what) {
  Relation other = MakeOracleRelation(7, 5);
  PliCache own(relation);
  PliCache foreign(other);
  ViolationDetector detector(rules);
  for (int cap : kCaps) {
    for (int threads : {0, 1, 2, 8}) {
      std::optional<ThreadPool> pool;
      if (threads > 0) pool.emplace(threads);
      ThreadPool* p = threads > 0 ? &*pool : nullptr;
      for (PliCache* cache : {static_cast<PliCache*>(nullptr), &own,
                              &foreign}) {
        auto summary = detector.Detect(relation, cap, p, cache);
        std::string where = what + " cap " + std::to_string(cap) +
                            " threads " + std::to_string(threads) +
                            (cache == nullptr ? " no cache"
                             : cache == &own  ? " own cache"
                                              : " foreign cache");
        ASSERT_TRUE(summary.ok()) << where << ": "
                                  << summary.status().message();
        ExpectMatchesValidate(relation, rules, cap, *summary, where);
      }
    }
  }
}

TEST(DetectorOracleTest, MixedRulesMatchValidate) {
  for (uint64_t seed : {1u, 2u, 3u}) {
    Relation r = MakeOracleRelation(seed, 36);
    CheckEveryArrangement(r, MixedRules(seed),
                          "mixed seed " + std::to_string(seed));
  }
}

TEST(DetectorOracleTest, RulesPastSixtyFourBitsMatchValidate) {
  Relation r = MakeOracleRelation(11, 24);
  CheckEveryArrangement(r, WideRules(), "wide");
}

TEST(DetectorOracleTest, DegenerateRelationsMatchValidate) {
  for (int rows : {0, 1, 2}) {
    Relation r = MakeOracleRelation(5, rows);
    CheckEveryArrangement(r, MixedRules(5), "rows " + std::to_string(rows));
  }
}

TEST(DetectorOracleTest, InvalidRulesKeepTheirStatus) {
  Relation r = MakeOracleRelation(4, 12);
  std::vector<DependencyPtr> invalid = {
      std::make_shared<Md>(
          std::vector<SimilarityPredicate>{{0, GetEditDistanceMetric(), -1}},
          AttrSet::Single(3)),
      std::make_shared<Md>(
          std::vector<SimilarityPredicate>{{9, GetEditDistanceMetric(), 1}},
          AttrSet::Single(3)),
      std::make_shared<Md>(std::vector<SimilarityPredicate>{},
                           AttrSet::Single(3)),
      std::make_shared<Dc>(std::vector<DcPredicate>{}),
      std::make_shared<Dc>(std::vector<DcPredicate>{Same(9, CmpOp::kEq)}),
  };
  for (const DependencyPtr& bad : invalid) {
    Status expected = bad->Validate(r, 10).status();
    ASSERT_FALSE(expected.ok());
    std::vector<DependencyPtr> rules = MixedRules(4);
    rules.insert(rules.begin() + 3, bad);
    ThreadPool pool(2);
    auto summary = ViolationDetector(rules).Detect(r, 10, &pool);
    ASSERT_FALSE(summary.ok()) << bad->ToString();
    EXPECT_EQ(summary.status().code(), expected.code());
    EXPECT_EQ(summary.status().message(), expected.message());
  }
}

TEST(DetectorOracleTest, CutoffKeepsTheSameRulePrefixAtEveryThreadCount) {
  Relation r = MakeOracleRelation(21, 40);
  std::vector<DependencyPtr> rules = MixedRules(21);
  ViolationDetector detector(rules);
  auto full = detector.Detect(r, 1 << 30);
  ASSERT_TRUE(full.ok());
  // Unit batch 8: the walk over 40 anchors passes 5 check-points, then the
  // fallback rules pass one per batch of 8. Cut at each in turn until a run
  // completes.
  std::vector<size_t> sizes;
  for (int64_t cut = 1;; ++cut) {
    ASSERT_LT(cut, 20);
    std::optional<size_t> first_size;
    bool exhausted = false;
    for (int threads : {1, 2, 8}) {
      ThreadPool pool(threads);
      FaultInjector::Options fopts;
      fopts.fail_at_checkpoint = cut;
      FaultInjector faults(fopts);
      RunContext ctx;
      ctx.set_unit_batch(8);
      ctx.set_fault_injector(&faults);
      auto partial = detector.Detect(r, 1 << 30, &pool, nullptr, &ctx);
      ASSERT_TRUE(partial.ok());
      RunReport report = ctx.report();
      exhausted = report.exhausted;
      EXPECT_EQ(report.completed_units,
                static_cast<int64_t>(partial->results.size()));
      for (size_t i = 0; i < partial->results.size(); ++i) {
        EXPECT_EQ(partial->results[i].report.violations,
                  full->results[i].report.violations)
            << "cut " << cut << " rule " << i;
        EXPECT_EQ(partial->results[i].report.violation_count,
                  full->results[i].report.violation_count);
      }
      if (!first_size.has_value()) {
        first_size = partial->results.size();
      } else {
        EXPECT_EQ(*first_size, partial->results.size())
            << "cut " << cut << " threads " << threads;
      }
    }
    if (!exhausted) {
      EXPECT_EQ(*first_size, rules.size());
      break;
    }
    sizes.push_back(*first_size);
  }
  // A cut inside the walk finishes no rule before the first fallback batch
  // either; a cut among the fallback batches keeps the compiled rules up to
  // the first unfinished fallback rule.
  ASSERT_GE(sizes.size(), 6u);
  for (size_t k = 0; k < 5; ++k) EXPECT_EQ(sizes[k], 0u) << k;
  EXPECT_TRUE(std::is_sorted(sizes.begin(), sizes.end()));
  EXPECT_GT(sizes.back(), 1u);
  EXPECT_LT(sizes.back(), rules.size());
}

TEST(DetectorOracleTest, WitnessBufferStaysWithinTheCapPerAnchorBlock) {
  // Mostly violated rules: every zip is shared by a third of the rows and
  // every city is distinct, so ta.zip = tb.zip AND ta.city != tb.city fails
  // on a third of the ordered pairs, NOT(ta.zip != tb.zip) on two thirds,
  // and zip ~ 0 -> city on a third of the pairs. Keeping `cap` witnesses per
  // rule for every anchor row would buffer rows * cap * rules pairs (72 KB
  // here); the walk buffers one block of 64 anchors at a time (at most
  // 4.6 KB), and charges it to the run's budget while it lives.
  const int rows = 1000, cap = 3;
  RelationBuilder b({"zip", "city"});
  for (int r = 0; r < rows; ++r) {
    b.AddRow({Value(r % 3), Value("c" + std::to_string(r))});
  }
  Relation relation = std::move(b.Build()).value();
  std::vector<DependencyPtr> rules = {
      std::make_shared<Dc>(std::vector<DcPredicate>{Same(0, CmpOp::kEq),
                                                    Same(1, CmpOp::kNeq)}),
      std::make_shared<Dc>(std::vector<DcPredicate>{Same(0, CmpOp::kNeq)}),
      std::make_shared<Md>(
          std::vector<SimilarityPredicate>{{0, GetAbsDiffMetric(), 0}},
          AttrSet::Single(1))};
  ViolationDetector detector(rules);
  for (int threads : {1, 2}) {
    ThreadPool pool(threads);
    MemoryBudget budget(16 << 10);
    RunContext ctx;
    ctx.set_memory_budget(&budget);
    auto summary = detector.Detect(relation, cap, &pool, nullptr, &ctx);
    ASSERT_TRUE(summary.ok());
    EXPECT_FALSE(ctx.report().exhausted) << ctx.report().stop_detail;
    EXPECT_EQ(budget.used(), 0u);
    ExpectMatchesValidate(relation, rules, cap, *summary,
                          "threads " + std::to_string(threads));
  }
}

/// Edit distance that counts its calls; a name other than "edit" keeps the
/// bucket tables on the generic path, which calls it once per code pair.
class CountingEditMetric : public Metric {
 public:
  double Distance(const Value& a, const Value& b) const override {
    calls_.fetch_add(1, std::memory_order_relaxed);
    return edit_.Distance(a, b);
  }
  std::string name() const override { return "counting_edit"; }
  int64_t calls() const { return calls_.load(std::memory_order_relaxed); }
  void Reset() { calls_.store(0, std::memory_order_relaxed); }

 private:
  EditDistanceMetric edit_;
  mutable std::atomic<int64_t> calls_{0};
};

TEST(DetectorOracleTest, PredicatesOnOneAttrAndMetricShareOneTable) {
  Relation r = MakeOracleRelation(31, 60);
  auto counting = std::make_shared<CountingEditMetric>();
  std::vector<DependencyPtr> rules;
  for (int k = 0; k < 12; ++k) {
    std::vector<SimilarityPredicate> lhs = {
        {0, counting, static_cast<double>(k % 4)}};
    if (k % 3 == 0) lhs.push_back({3, counting, static_cast<double>(k % 2)});
    rules.push_back(std::make_shared<Md>(lhs, AttrSet::Single(5)));
  }
  EncodedRelation encoded(r);
  auto triangle = [&](int attr) {
    int64_t d = encoded.dict_size(attr);
    return d * (d + 1) / 2;
  };
  for (int threads : {0, 1, 2, 8}) {
    std::optional<ThreadPool> pool;
    if (threads > 0) pool.emplace(threads);
    counting->Reset();
    auto summary = ViolationDetector(rules).Detect(
        r, 1 << 30, threads > 0 ? &*pool : nullptr);
    ASSERT_TRUE(summary.ok());
    int64_t calls = counting->calls();
    EXPECT_LE(calls, triangle(0) + triangle(3)) << threads;
    // One call per rule per predicate per pair is what Validate pays.
    int64_t pairs = int64_t{60} * 59 / 2;
    EXPECT_LT(calls * 10, pairs * static_cast<int64_t>(rules.size()));
    ExpectMatchesValidate(r, rules, 1 << 30, *summary,
                          "threads " + std::to_string(threads));
  }
}

}  // namespace
}  // namespace famtree
