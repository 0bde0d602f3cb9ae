// Property tests for the shared pairwise evidence kernel: on random
// mixed-type relations (nulls, cross-representation numerics, strings, up
// to the 63-attribute boundary) and on numeric relations with NaN and
// infinite cells, the tiled, pruned, parallel, pair-list and delta (append)
// builds must all produce the evidence multiset a naive Value-based double
// loop produces — same words, same counts, same per-word distance
// aggregates, bit for bit — and every strip of the PairComparator kernel
// must equal its one-partner Word. Plus EvidenceCache hit/eviction
// behavior, and engine-served evidence matching a fresh engine's on
// relations that share a code matrix but not their values.
//
// Integers beyond 2^53 beside doubles are left out of every generator:
// there `==` is not transitive (2^53 + 1 == 2^53.0 == 2^53, yet the two
// ints differ), so such a column has no strict weak order for the oracle
// to follow until SortsBefore compares int/double exactly.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "discovery/fastdc.h"
#include "discovery/md_discovery.h"
#include "engine/engine.h"
#include "engine/evidence.h"
#include "engine/evidence_cache.h"
#include "engine/pli_cache.h"
#include "metric/metric.h"
#include "relation/encoded_relation.h"
#include "relation/relation.h"

namespace famtree {
namespace {

Value RandomCell(Rng* rng, int domain) {
  int64_t v = rng->Uniform(0, domain - 1);
  switch (rng->Uniform(0, 7)) {
    case 0: return Value();                              // null
    case 1: return Value(static_cast<double>(v));        // k.0 == k
    case 2: return Value(static_cast<double>(v) + 0.5);  // true double
    case 3: return Value("s" + std::to_string(v));       // string
    default: return Value(v);                            // int
  }
}

/// Numeric cells with NaN and infinities: order facets must follow the
/// documented rank (SortsBefore, NaN last) and distances run through
/// NaN / inf (|inf - inf| is NaN, |x - inf| is inf).
Value NonFiniteCell(Rng* rng, int domain) {
  int64_t v = rng->Uniform(0, domain - 1);
  switch (rng->Uniform(0, 9)) {
    case 0: return Value(std::nan(""));
    case 1: return Value(std::numeric_limits<double>::infinity());
    case 2: return Value(-std::numeric_limits<double>::infinity());
    case 3: return Value();                              // null
    case 4: return Value(static_cast<double>(v) + 0.5);  // true double
    case 5: return Value(static_cast<double>(v));        // k.0 == k
    default: return Value(v);                            // int
  }
}

Relation MakeNonFiniteRelation(uint64_t seed, int rows, int cols,
                               int domain) {
  Rng rng(seed);
  std::vector<std::string> names;
  for (int c = 0; c < cols; ++c) names.push_back("c" + std::to_string(c));
  RelationBuilder b(names);
  for (int r = 0; r < rows; ++r) {
    std::vector<Value> row;
    for (int c = 0; c < cols; ++c) row.push_back(NonFiniteCell(&rng, domain));
    b.AddRow(std::move(row));
  }
  return std::move(b.Build()).value();
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

MetricPtr RandomMetric(Rng* rng) {
  switch (rng->Uniform(0, 2)) {
    case 0: return GetEditDistanceMetric();
    case 1: return GetAbsDiffMetric();
    default: return GetDiscreteMetric();
  }
}

std::vector<EvidenceColumn> RandomConfig(Rng* rng, int cols) {
  std::vector<EvidenceColumn> config;
  for (int c = 0; c < cols; ++c) {
    if (rng->Uniform(0, 3) == 0) continue;  // leave some columns out
    EvidenceColumn col;
    col.attr = c;
    switch (rng->Uniform(0, 2)) {
      case 0: col.cmp = EvidenceColumn::Cmp::kNone; break;
      case 1: col.cmp = EvidenceColumn::Cmp::kEquality; break;
      default: col.cmp = EvidenceColumn::Cmp::kOrder; break;
    }
    if (rng->Uniform(0, 1) == 0) {
      col.metric = RandomMetric(rng);
      int nth = static_cast<int>(rng->Uniform(0, 3));
      for (int t = 0; t < nth; ++t) {
        col.thresholds.push_back(static_cast<double>(t) +
                                 (rng->Uniform(0, 1) ? 0.5 : 0.0));
      }
      col.track_max = rng->Uniform(0, 1) == 0;
      if (!col.track_max && col.thresholds.empty()) col.metric = nullptr;
    }
    // A column with no facet at all contributes nothing; keep it anyway
    // sometimes to exercise the degenerate case.
    config.push_back(std::move(col));
  }
  if (config.empty()) {
    EvidenceColumn col;
    col.attr = 0;
    config.push_back(col);
  }
  return config;
}

/// The independently computed word layout (the documented packing rule:
/// config order, comparison bits then bucket bits).
struct OracleLayout {
  int cmp_shift = 0;
  int bucket_shift = 0;
  int bucket_bits = 0;
};

std::vector<OracleLayout> LayoutOf(const std::vector<EvidenceColumn>& config) {
  std::vector<OracleLayout> lay(config.size());
  int shift = 0;
  for (size_t c = 0; c < config.size(); ++c) {
    lay[c].cmp_shift = shift;
    if (config[c].cmp == EvidenceColumn::Cmp::kEquality) shift += 1;
    if (config[c].cmp == EvidenceColumn::Cmp::kOrder) shift += 2;
    if (config[c].metric != nullptr && !config[c].thresholds.empty()) {
      lay[c].bucket_shift = shift;
      int states = static_cast<int>(config[c].thresholds.size()) + 1;
      while ((1 << lay[c].bucket_bits) < states) ++lay[c].bucket_bits;
      shift += lay[c].bucket_bits;
    }
  }
  return lay;
}

struct OracleAgg {
  double max_all = 0.0;
  double max_finite = 0.0;
  bool saw_nonfinite = false;
};

struct OracleEntry {
  int64_t count = 0;
  std::vector<OracleAgg> aggs;
};

/// The documented order facet: SortsBefore, with NaN last. Two NaN cells
/// never compare equal and tie under SortsBefore; the kernel's rank puts
/// the earlier row's NaN first (NaN codes rank in code order, and each
/// NaN cell gets the next code in row order).
int OracleOrder(const Value& a, const Value& b, int i, int j) {
  if (SortsBefore(a, b)) return 1;
  if (SortsBefore(b, a)) return 2;
  return i < j ? 1 : 2;
}

/// Naive double-loop oracle straight off the Value interface.
uint64_t OracleWord(const Relation& r,
                    const std::vector<EvidenceColumn>& config,
                    const std::vector<OracleLayout>& lay, int i, int j,
                    std::vector<double>* dists) {
  uint64_t w = 0;
  dists->clear();
  for (size_t c = 0; c < config.size(); ++c) {
    const Value& a = r.Get(i, config[c].attr);
    const Value& b = r.Get(j, config[c].attr);
    if (config[c].cmp == EvidenceColumn::Cmp::kEquality) {
      w |= static_cast<uint64_t>(!(a == b)) << lay[c].cmp_shift;
    } else if (config[c].cmp == EvidenceColumn::Cmp::kOrder) {
      if (!(a == b)) {
        w |= static_cast<uint64_t>(OracleOrder(a, b, i, j))
             << lay[c].cmp_shift;
      }
    }
    if (config[c].metric != nullptr) {
      double d = config[c].metric->Distance(a, b);
      if (!config[c].thresholds.empty()) {
        uint64_t bucket = config[c].thresholds.size();
        for (size_t t = 0; t < config[c].thresholds.size(); ++t) {
          if (d <= config[c].thresholds[t]) {
            bucket = t;
            break;
          }
        }
        w |= bucket << lay[c].bucket_shift;
      }
      if (config[c].track_max) dists->push_back(d);
    }
  }
  return w;
}

std::map<uint64_t, OracleEntry> OracleEvidenceForPairs(
    const Relation& r, const std::vector<EvidenceColumn>& config,
    const std::vector<std::pair<int, int>>& pairs) {
  std::vector<OracleLayout> lay = LayoutOf(config);
  std::map<uint64_t, OracleEntry> out;
  int tracked = 0;
  for (const EvidenceColumn& c : config) {
    if (c.track_max) ++tracked;
  }
  std::vector<double> dists;
  for (const auto& [i, j] : pairs) {
    uint64_t w = OracleWord(r, config, lay, i, j, &dists);
    OracleEntry& e = out[w];
    if (e.aggs.empty()) e.aggs.resize(tracked);
    ++e.count;
    for (int t = 0; t < tracked; ++t) {
      double d = dists[t];
      e.aggs[t].max_all = std::max(e.aggs[t].max_all, d);
      if (std::isfinite(d)) {
        e.aggs[t].max_finite = std::max(e.aggs[t].max_finite, d);
      } else {
        e.aggs[t].saw_nonfinite = true;
      }
    }
  }
  return out;
}

std::map<uint64_t, OracleEntry> OracleEvidence(
    const Relation& r, const std::vector<EvidenceColumn>& config) {
  std::vector<std::pair<int, int>> pairs;
  for (int i = 0; i + 1 < r.num_rows(); ++i) {
    for (int j = i + 1; j < r.num_rows(); ++j) pairs.push_back({i, j});
  }
  return OracleEvidenceForPairs(r, config, pairs);
}

/// A built set in oracle form, to compare two builds with
/// ExpectMatchesOracle.
std::map<uint64_t, OracleEntry> EntriesOf(const EvidenceSet& set) {
  std::map<uint64_t, OracleEntry> out;
  for (size_t w = 0; w < set.words().size(); ++w) {
    OracleEntry& e = out[set.words()[w].bits];
    e.count = set.words()[w].count;
    for (int t = 0; t < set.num_tracked(); ++t) {
      const EvidenceSet::Aggregate& a = set.agg(w, t);
      e.aggs.push_back(OracleAgg{a.max_all, a.max_finite, a.saw_nonfinite});
    }
  }
  return out;
}

/// Blanks the aggregates of the all-unequal word: the pruned build
/// synthesizes it with zero aggregates by contract.
void BlankAllUnequal(std::map<uint64_t, OracleEntry>* oracle, int cols) {
  auto it = oracle->find((uint64_t{1} << cols) - 1);
  if (it != oracle->end()) {
    for (OracleAgg& a : it->second.aggs) a = OracleAgg{};
  }
}

/// Equality-facet config over every column (pruning-eligible), with a
/// tracked metric on some.
std::vector<EvidenceColumn> PrunableConfig(Rng* rng, int cols) {
  std::vector<EvidenceColumn> config;
  for (int c = 0; c < cols; ++c) {
    EvidenceColumn col;
    col.attr = c;
    col.cmp = EvidenceColumn::Cmp::kEquality;
    if (rng->Uniform(0, 2) == 0) {
      col.metric = RandomMetric(rng);
      col.track_max = true;
    }
    config.push_back(std::move(col));
  }
  return config;
}

void ExpectMatchesOracle(const EvidenceSet& set,
                         const std::map<uint64_t, OracleEntry>& oracle,
                         const std::string& label) {
  ASSERT_EQ(set.words().size(), oracle.size()) << label;
  size_t idx = 0;
  for (const auto& [w, entry] : oracle) {
    const EvidenceSet::Word& word = set.words()[idx];
    EXPECT_EQ(word.bits, w) << label << " word " << idx;
    EXPECT_EQ(word.count, entry.count) << label << " word " << idx;
    for (int t = 0; t < set.num_tracked(); ++t) {
      const EvidenceSet::Aggregate& a = set.agg(idx, t);
      EXPECT_EQ(a.max_all, entry.aggs[t].max_all)
          << label << " word " << idx << " slot " << t;
      EXPECT_EQ(a.max_finite, entry.aggs[t].max_finite)
          << label << " word " << idx << " slot " << t;
      EXPECT_EQ(a.saw_nonfinite, entry.aggs[t].saw_nonfinite)
          << label << " word " << idx << " slot " << t;
    }
    ++idx;
  }
}

TEST(EvidencePropertyTest, TiledAndParallelBuildsMatchNaiveOracle) {
  ThreadPool pool2(2), pool8(8);
  for (uint64_t seed = 0; seed < 40; ++seed) {
    int rows = 8 + static_cast<int>(seed % 7) * 9;
    int cols = 2 + static_cast<int>(seed % 5);
    int domain = 2 + static_cast<int>(seed % 6);
    Relation r = MakeMixedRandomRelation(seed, rows, cols, domain);
    EncodedRelation enc(r);
    Rng rng(seed ^ 0xfeedfaceULL);
    std::vector<EvidenceColumn> config = RandomConfig(&rng, cols);
    std::map<uint64_t, OracleEntry> oracle = OracleEvidence(r, config);

    EvidenceOptions serial;
    serial.tile_rows = 1 + static_cast<int>(seed % 16);  // odd tile shapes
    auto s = BuildEvidence(enc, config, serial);
    ASSERT_TRUE(s.ok()) << s.status().ToString();
    ExpectMatchesOracle(**s, oracle, "serial seed " + std::to_string(seed));
    EXPECT_EQ((*s)->total_pairs(),
              static_cast<int64_t>(rows) * (rows - 1) / 2);

    for (ThreadPool* pool : {&pool2, &pool8}) {
      EvidenceOptions popt;
      popt.pool = pool;
      auto p = BuildEvidence(enc, config, popt);
      ASSERT_TRUE(p.ok()) << p.status().ToString();
      ExpectMatchesOracle(**p, oracle,
                          "pooled seed " + std::to_string(seed));
    }
  }
}

TEST(EvidencePropertyTest, PrunedBuildMatchesDenseAndOracle) {
  ThreadPool pool8(8);
  for (uint64_t seed = 0; seed < 30; ++seed) {
    int rows = 10 + static_cast<int>(seed % 6) * 13;
    int cols = 2 + static_cast<int>(seed % 4);
    int domain = 2 + static_cast<int>(seed % 7);
    Relation r = MakeMixedRandomRelation(seed * 31 + 7, rows, cols, domain);
    EncodedRelation enc(r);
    Rng rng(seed ^ 0x0ddba11ULL);
    std::vector<EvidenceColumn> config = PrunableConfig(&rng, cols);
    std::map<uint64_t, OracleEntry> oracle = OracleEvidence(r, config);
    BlankAllUnequal(&oracle, cols);

    PliCache pli(r);
    for (bool use_pli : {false, true}) {
      for (ThreadPool* pool : {static_cast<ThreadPool*>(nullptr), &pool8}) {
        EvidenceOptions opt;
        opt.prune_all_unequal = true;
        opt.pool = pool;
        opt.pli = use_pli ? &pli : nullptr;
        auto p = BuildEvidence(enc, config, opt);
        ASSERT_TRUE(p.ok()) << p.status().ToString();
        ExpectMatchesOracle(
            **p, oracle,
            "pruned seed " + std::to_string(seed) +
                (use_pli ? " pli" : " local") + (pool ? " pooled" : ""));
      }
    }
  }
}

TEST(EvidencePropertyTest, PairListMatchesUnorderedPlusMirror) {
  for (uint64_t seed = 0; seed < 20; ++seed) {
    int rows = 6 + static_cast<int>(seed % 5) * 7;
    int cols = 2 + static_cast<int>(seed % 4);
    Relation r = MakeMixedRandomRelation(seed * 17 + 3, rows, cols, 4);
    EncodedRelation enc(r);
    std::vector<EvidenceColumn> config;
    for (int c = 0; c < cols; ++c) {
      EvidenceColumn col;
      col.attr = c;
      col.cmp = c % 2 == 0 ? EvidenceColumn::Cmp::kOrder
                           : EvidenceColumn::Cmp::kEquality;
      config.push_back(col);
    }
    // All ordered pairs i != j ...
    std::vector<std::pair<int, int>> pairs;
    for (int i = 0; i < rows; ++i) {
      for (int j = 0; j < rows; ++j) {
        if (i != j) pairs.push_back({i, j});
      }
    }
    auto listed = BuildEvidenceForPairs(enc, config, pairs, {});
    ASSERT_TRUE(listed.ok());
    // ... must equal the unordered multiset plus its mirror.
    auto unordered = BuildEvidence(enc, config, {});
    ASSERT_TRUE(unordered.ok());
    std::map<uint64_t, int64_t> expected;
    for (const EvidenceSet::Word& w : (*unordered)->words()) {
      expected[w.bits] += w.count;
      expected[(*unordered)->MirrorOf(w.bits)] += w.count;
    }
    ASSERT_EQ((*listed)->words().size(), expected.size()) << "seed " << seed;
    size_t idx = 0;
    for (const auto& [bits, count] : expected) {
      EXPECT_EQ((*listed)->words()[idx].bits, bits) << "seed " << seed;
      EXPECT_EQ((*listed)->words()[idx].count, count) << "seed " << seed;
      ++idx;
    }
    EXPECT_EQ((*listed)->total_pairs(),
              static_cast<int64_t>(pairs.size()));
  }
}

TEST(EvidencePropertyTest, WideRelationUsesSparsePathCorrectly) {
  // 63 equality facets push the word to 63 bits — far past the dense
  // accumulator — and still must match the oracle.
  const int kCols = 63, kRows = 24;
  Rng rng(4242);
  std::vector<std::string> names;
  for (int c = 0; c < kCols; ++c) names.push_back("c" + std::to_string(c));
  RelationBuilder b(names);
  for (int r = 0; r < kRows; ++r) {
    std::vector<Value> row;
    for (int c = 0; c < kCols; ++c) {
      row.push_back(Value(rng.Uniform(0, 2)));
    }
    b.AddRow(std::move(row));
  }
  Relation r = std::move(b.Build()).value();
  EncodedRelation enc(r);
  std::vector<EvidenceColumn> config;
  for (int c = 0; c < kCols; ++c) {
    EvidenceColumn col;
    col.attr = c;
    config.push_back(col);
  }
  EXPECT_EQ(EvidenceWordBits(config), 63);
  std::map<uint64_t, OracleEntry> oracle = OracleEvidence(r, config);
  ThreadPool pool8(8);
  EvidenceOptions opt;
  opt.pool = &pool8;
  auto s = BuildEvidence(enc, config, opt);
  ASSERT_TRUE(s.ok());
  ExpectMatchesOracle(**s, oracle, "wide");
  // One more facet would overflow the word; the kernel must refuse.
  config.push_back(config.back());
  config.back().cmp = EvidenceColumn::Cmp::kOrder;
  EXPECT_FALSE(BuildEvidence(enc, config, {}).ok());
}

TEST(EvidencePropertyTest, NonFiniteColumnsMatchNaiveOracle) {
  // NaN-bearing numeric columns under kOrder, and NaN / infinite distances
  // in bucketed and track_max columns, through every walk.
  ThreadPool pool8(8);
  for (uint64_t seed = 0; seed < 40; ++seed) {
    int rows = 8 + static_cast<int>(seed % 7) * 9;
    int cols = 2 + static_cast<int>(seed % 4);
    int domain = 2 + static_cast<int>(seed % 5);
    Relation r = MakeNonFiniteRelation(seed * 13 + 5, rows, cols, domain);
    EncodedRelation enc(r);
    Rng rng(seed ^ 0xabad1deaULL);
    std::vector<EvidenceColumn> config = RandomConfig(&rng, cols);
    std::map<uint64_t, OracleEntry> oracle = OracleEvidence(r, config);
    for (ThreadPool* pool : {static_cast<ThreadPool*>(nullptr), &pool8}) {
      EvidenceOptions opt;
      opt.pool = pool;
      opt.tile_rows = 1 + static_cast<int>(seed % 11);
      auto s = BuildEvidence(enc, config, opt);
      ASSERT_TRUE(s.ok()) << s.status().ToString();
      ExpectMatchesOracle(**s, oracle,
                          "non-finite seed " + std::to_string(seed) +
                              (pool ? " pooled" : ""));
    }

    std::vector<EvidenceColumn> prunable = PrunableConfig(&rng, cols);
    std::map<uint64_t, OracleEntry> pruned_oracle = OracleEvidence(r, prunable);
    BlankAllUnequal(&pruned_oracle, cols);
    EvidenceOptions popt;
    popt.prune_all_unequal = true;
    popt.tile_rows = 1 + static_cast<int>(seed % 5);
    auto p = BuildEvidence(enc, prunable, popt);
    ASSERT_TRUE(p.ok()) << p.status().ToString();
    ExpectMatchesOracle(**p, pruned_oracle,
                        "non-finite pruned seed " + std::to_string(seed));
  }
}

TEST(EvidencePropertyTest, PairListWithMetricsMatchesOracle) {
  // Random ordered pairs (either orientation, repeats, runs sharing an
  // anchor) over random configs. Lists shorter than a column's code-pair
  // triangle fill no table, so this also covers the unmemoized lookups.
  for (uint64_t seed = 0; seed < 30; ++seed) {
    int rows = 6 + static_cast<int>(seed % 6) * 8;
    int cols = 2 + static_cast<int>(seed % 4);
    Relation r = seed % 2 == 0
                     ? MakeNonFiniteRelation(seed * 7 + 1, rows, cols, 5)
                     : MakeMixedRandomRelation(seed * 7 + 1, rows, cols, 5);
    EncodedRelation enc(r);
    Rng rng(seed ^ 0x5eedULL);
    std::vector<EvidenceColumn> config = RandomConfig(&rng, cols);
    std::vector<std::pair<int, int>> pairs;
    int num_pairs = static_cast<int>(rng.Uniform(1, 4 * rows));
    while (static_cast<int>(pairs.size()) < num_pairs) {
      int i = static_cast<int>(rng.Uniform(0, rows - 1));
      int run = static_cast<int>(rng.Uniform(1, 5));
      for (int k = 0; k < run; ++k) {
        int j = static_cast<int>(rng.Uniform(0, rows - 1));
        if (j != i) pairs.push_back({i, j});
      }
    }
    std::map<uint64_t, OracleEntry> oracle =
        OracleEvidenceForPairs(r, config, pairs);
    EvidenceOptions opt;
    opt.tile_rows = 1 + static_cast<int>(seed % 3);
    auto listed = BuildEvidenceForPairs(enc, config, pairs, opt);
    ASSERT_TRUE(listed.ok()) << listed.status().ToString();
    ExpectMatchesOracle(**listed, oracle, "pair list seed " +
                                              std::to_string(seed));
    EXPECT_EQ((*listed)->total_pairs(), static_cast<int64_t>(pairs.size()));
  }
}

TEST(EvidencePropertyTest, DeltaPlusMergeEqualsColdBuild) {
  // BuildEvidenceDelta over the pairs an append created, merged into the
  // prefix's multiset, must equal the cold build over all rows — for the
  // dense walk at odd tile shapes and for the pruned walk's cluster tails.
  ThreadPool pool2(2);
  for (uint64_t seed = 0; seed < 30; ++seed) {
    int rows = 9 + static_cast<int>(seed % 6) * 11;
    int cols = 2 + static_cast<int>(seed % 4);
    Relation r = seed % 2 == 0
                     ? MakeMixedRandomRelation(seed * 5 + 2, rows, cols, 4)
                     : MakeNonFiniteRelation(seed * 5 + 2, rows, cols, 4);
    int old_rows = 1 + static_cast<int>(seed % (rows - 1));
    std::vector<int> prefix_rows(old_rows);
    for (int k = 0; k < old_rows; ++k) prefix_rows[k] = k;
    Relation prefix = r.Select(prefix_rows);
    EncodedRelation enc(r), prefix_enc(prefix);
    Rng rng(seed ^ 0xde17aULL);
    for (bool pruned : {false, true}) {
      std::vector<EvidenceColumn> config =
          pruned ? PrunableConfig(&rng, cols) : RandomConfig(&rng, cols);
      EvidenceOptions opt;
      opt.prune_all_unequal = pruned;
      opt.tile_rows = 1 + 2 * static_cast<int>(seed % 7);  // odd tiles
      opt.pool = seed % 3 == 0 ? &pool2 : nullptr;
      auto base = BuildEvidence(prefix_enc, config, opt);
      auto delta = BuildEvidenceDelta(enc, config, old_rows, opt);
      ASSERT_TRUE(base.ok()) << base.status().ToString();
      ASSERT_TRUE(delta.ok()) << delta.status().ToString();
      auto merged = MergeEvidenceSets(**base, **delta, opt);
      ASSERT_TRUE(merged.ok()) << merged.status().ToString();
      auto cold = BuildEvidence(enc, config, opt);
      ASSERT_TRUE(cold.ok()) << cold.status().ToString();
      std::string label = "delta seed " + std::to_string(seed) +
                          (pruned ? " pruned" : " dense");
      ExpectMatchesOracle(**merged, EntriesOf(**cold), label);
      EXPECT_EQ((*merged)->total_pairs(),
                static_cast<int64_t>(rows) * (rows - 1) / 2);
      if (!pruned) {
        ExpectMatchesOracle(**merged, OracleEvidence(r, config), label);
      }
    }
  }
}

TEST(EvidencePropertyTest, RunsLongerThanOneStripMatchOracle) {
  // The pruned and pair-list walks cut a cluster's or an anchor's partners
  // into strips of PairComparator::kStripRows: a one-value domain makes
  // clusters (and, in delta mode, cluster tails) and pair-list runs
  // longer than that.
  for (uint64_t seed = 0; seed < 2; ++seed) {
    const int rows = 2 * PairComparator::kStripRows + 90 +
                     static_cast<int>(seed) * 101;
    const int cols = 2 + static_cast<int>(seed);
    Relation r = MakeMixedRandomRelation(seed + 70, rows, cols, 1);
    EncodedRelation enc(r);
    Rng rng(seed ^ 0x10a9ULL);
    const std::string label = "long runs seed " + std::to_string(seed);

    std::vector<EvidenceColumn> prunable = PrunableConfig(&rng, cols);
    std::map<uint64_t, OracleEntry> pruned_oracle = OracleEvidence(r, prunable);
    BlankAllUnequal(&pruned_oracle, cols);
    EvidenceOptions popt;
    popt.prune_all_unequal = true;
    auto pruned = BuildEvidence(enc, prunable, popt);
    ASSERT_TRUE(pruned.ok()) << pruned.status().ToString();
    ExpectMatchesOracle(**pruned, pruned_oracle, label + " pruned");
    const int old_rows = rows / 8;
    std::vector<int> prefix_rows(old_rows);
    for (int k = 0; k < old_rows; ++k) prefix_rows[k] = k;
    Relation prefix = r.Select(prefix_rows);
    EncodedRelation prefix_enc(prefix);
    auto base = BuildEvidence(prefix_enc, prunable, popt);
    auto delta = BuildEvidenceDelta(enc, prunable, old_rows, popt);
    ASSERT_TRUE(base.ok() && delta.ok());
    auto merged = MergeEvidenceSets(**base, **delta, popt);
    ASSERT_TRUE(merged.ok()) << merged.status().ToString();
    ExpectMatchesOracle(**merged, EntriesOf(**pruned), label + " delta");

    std::vector<EvidenceColumn> config = RandomConfig(&rng, cols);
    std::vector<std::pair<int, int>> pairs;
    for (int i : {0, rows / 3, rows - 1}) {
      for (int j = 0; j < rows; ++j) {
        if (j != i) pairs.push_back({i, j});
      }
    }
    auto listed = BuildEvidenceForPairs(enc, config, pairs, {});
    ASSERT_TRUE(listed.ok()) << listed.status().ToString();
    ExpectMatchesOracle(**listed, OracleEvidenceForPairs(r, config, pairs),
                        label + " pair list");
  }
}

/// Bit-exact comparison of a strip's words and tracked distances with the
/// one-partner Word of each pair.
void ExpectStripMatchesWords(const PairComparator& pc, int i,
                             const std::vector<int>& partners,
                             const std::vector<uint64_t>& words,
                             const std::vector<double>& dists,
                             const std::string& label) {
  const int count = static_cast<int>(partners.size());
  std::vector<double> one(std::max(1, pc.num_tracked()));
  for (int k = 0; k < count; ++k) {
    ASSERT_EQ(words[k], pc.Word(i, partners[k], one.data()))
        << label << " anchor " << i << " partner " << partners[k];
    for (int t = 0; t < pc.num_tracked(); ++t) {
      EXPECT_EQ(std::bit_cast<uint64_t>(dists[t * count + k]),
                std::bit_cast<uint64_t>(one[t]))
          << label << " anchor " << i << " partner " << partners[k]
          << " slot " << t;
    }
  }
}

TEST(EvidencePropertyTest, StripWordsEqualOnePartnerWord) {
  // Strips longer than the kernel's block, cluster partners and pair-list
  // partners (either side of the anchor, the anchor itself, repeats) must
  // give the words and distances the one-partner Word gives.
  for (uint64_t seed = 0; seed < 8; ++seed) {
    const int rows = 300 + static_cast<int>(seed) * 37;
    const int cols = 2 + static_cast<int>(seed % 4);
    Relation r = seed % 2 == 0
                     ? MakeNonFiniteRelation(seed + 40, rows, cols, 6)
                     : MakeMixedRandomRelation(seed + 40, rows, cols, 6);
    EncodedRelation enc(r);
    Rng rng(seed ^ 0x57819ULL);
    std::vector<EvidenceColumn> config = RandomConfig(&rng, cols);
    auto made = PairComparator::Make(enc, config, nullptr);
    ASSERT_TRUE(made.ok()) << made.status().ToString();
    const PairComparator& pc = **made;
    auto strip_of = [&](int i, const std::vector<int>& partners,
                        bool contiguous, const std::string& label) {
      const int count = static_cast<int>(partners.size());
      std::vector<uint64_t> words(count);
      std::vector<double> dists(static_cast<size_t>(count) *
                                pc.num_tracked());
      if (contiguous) {
        pc.Strip(i, partners.empty() ? 0 : partners[0], count, words.data(),
                 dists.empty() ? nullptr : dists.data());
      } else {
        pc.Strip(i, partners.data(), count, words.data(),
                 dists.empty() ? nullptr : dists.data());
      }
      ExpectStripMatchesWords(pc, i, partners, words, dists, label);
    };
    for (int i : {0, 1, rows / 2, rows - 1}) {
      // Contiguous: every row, then a run starting past the anchor.
      std::vector<int> all(rows);
      for (int j = 0; j < rows; ++j) all[j] = j;
      strip_of(i, all, true, "contiguous");
      std::vector<int> tail(all.begin() + std::min(rows, i + 1), all.end());
      strip_of(i, tail, true, "contiguous tail");
      // Cluster: the rows sharing the anchor's code in column 0.
      std::vector<int> cluster;
      for (int j = 0; j < rows; ++j) {
        if (enc.code(j, 0) == enc.code(i, 0)) cluster.push_back(j);
      }
      strip_of(i, cluster, false, "cluster");
      // Pair list: random partners.
      std::vector<int> listed;
      for (int k = 0; k < 2 * rows; ++k) {
        listed.push_back(static_cast<int>(rng.Uniform(0, rows - 1)));
      }
      strip_of(i, listed, false, "pair list");
    }
  }
}

TEST(EvidenceCacheTest, HitsMissesAndSharedEntries) {
  Relation r = MakeMixedRandomRelation(99, 40, 3, 4);
  EncodedRelation enc(r);
  const uint64_t fp = RelationFingerprint(r);
  std::vector<EvidenceColumn> config;
  for (int c = 0; c < 3; ++c) {
    EvidenceColumn col;
    col.attr = c;
    config.push_back(col);
  }
  EvidenceCache cache;
  auto first = GetOrBuildEvidence(&cache, enc, fp, config, {});
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(cache.stats().misses, 1);
  EXPECT_EQ(cache.stats().hits, 0);
  auto second = GetOrBuildEvidence(&cache, enc, fp, config, {});
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(cache.stats().hits, 1);
  EXPECT_EQ(first.value().get(), second.value().get());  // same object
  // A different config is a different entry.
  config.pop_back();
  auto third = GetOrBuildEvidence(&cache, enc, fp, config, {});
  ASSERT_TRUE(third.ok());
  EXPECT_EQ(cache.stats().misses, 2);
  EXPECT_NE(first.value().get(), third.value().get());
}

TEST(EvidenceCacheTest, KeySensitivity) {
  Relation r1 = MakeMixedRandomRelation(7, 20, 2, 3);
  Relation r2 = r1;
  r2.Set(3, 1, Value("changed"));
  std::vector<EvidenceColumn> config(1);
  config[0].attr = 0;
  const uint64_t fp1 = RelationFingerprint(r1);
  EXPECT_NE(EvidenceCache::KeyFor(fp1, config),
            EvidenceCache::KeyFor(RelationFingerprint(r2), config));
  Relation copy = r1;
  EXPECT_EQ(EvidenceCache::KeyFor(fp1, config),
            EvidenceCache::KeyFor(RelationFingerprint(copy), config));
  // Same code matrix, different values: both columns encode to codes
  // 0, 1, 2 in row order, but the second relation's order and distances
  // differ, so its evidence differs and its key must too.
  Relation up = RelationBuilder({"a", "b"})
                    .AddRow({Value(int64_t{1}), Value(int64_t{10})})
                    .AddRow({Value(int64_t{2}), Value(int64_t{20})})
                    .AddRow({Value(int64_t{3}), Value(int64_t{30})})
                    .Build()
                    .value();
  Relation down = RelationBuilder({"a", "b"})
                      .AddRow({Value(int64_t{1}), Value(int64_t{30})})
                      .AddRow({Value(int64_t{2}), Value(int64_t{20})})
                      .AddRow({Value(int64_t{3}), Value(int64_t{10})})
                      .Build()
                      .value();
  EncodedRelation eu(up), ed(down);
  for (int c = 0; c < 2; ++c) {
    ASSERT_EQ(eu.codes(c), ed.codes(c)) << "column " << c;
  }
  std::vector<EvidenceColumn> order(2);
  for (int c = 0; c < 2; ++c) {
    order[c].attr = c;
    order[c].cmp = EvidenceColumn::Cmp::kOrder;
  }
  EXPECT_NE(EvidenceCache::KeyFor(RelationFingerprint(up), order),
            EvidenceCache::KeyFor(RelationFingerprint(down), order));
  // Distance config is part of the key down to threshold bit patterns.
  std::vector<EvidenceColumn> with_metric = config;
  with_metric[0].metric = GetEditDistanceMetric();
  with_metric[0].thresholds = {1.0};
  EXPECT_NE(EvidenceCache::KeyFor(fp1, config),
            EvidenceCache::KeyFor(fp1, with_metric));
  std::vector<EvidenceColumn> other_threshold = with_metric;
  other_threshold[0].thresholds = {2.0};
  EXPECT_NE(EvidenceCache::KeyFor(fp1, with_metric),
            EvidenceCache::KeyFor(fp1, other_threshold));
}

TEST(EvidenceCacheTest, EvictsLeastRecentlyUsedOverBudget) {
  Relation r = MakeMixedRandomRelation(11, 30, 4, 5);
  EncodedRelation enc(r);
  const uint64_t fp = RelationFingerprint(r);
  EvidenceCache::Options tiny;
  tiny.max_bytes = 1;  // any second entry forces an eviction
  EvidenceCache cache(tiny);
  for (int c = 0; c < 3; ++c) {
    std::vector<EvidenceColumn> config(1);
    config[0].attr = c;
    ASSERT_TRUE(GetOrBuildEvidence(&cache, enc, fp, config, {}).ok());
  }
  EvidenceCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.misses, 3);
  EXPECT_GE(stats.evictions, 2);
  // The most recent entry survives; older ones rebuild as misses.
  std::vector<EvidenceColumn> config(1);
  config[0].attr = 2;
  ASSERT_TRUE(GetOrBuildEvidence(&cache, enc, fp, config, {}).ok());
  EXPECT_EQ(cache.stats().hits, 1);
  config[0].attr = 0;
  ASSERT_TRUE(GetOrBuildEvidence(&cache, enc, fp, config, {}).ok());
  EXPECT_EQ(cache.stats().misses, 4);
}

// The engine-wide store must serve a relation exactly what a fresh engine
// computes for it, however many relations it served before. Each pair
// below has one code matrix and different values, so a store keyed by the
// codes alone would hand the second relation the first one's evidence.

std::vector<std::string> DcTexts(const std::vector<DiscoveredDc>& dcs) {
  std::vector<std::string> out;
  for (const DiscoveredDc& d : dcs) out.push_back(d.dc.ToString());
  return out;
}

std::vector<std::tuple<std::string, double, double>> MdTexts(
    const std::vector<DiscoveredMd>& mds) {
  std::vector<std::tuple<std::string, double, double>> out;
  for (const DiscoveredMd& m : mds) {
    out.emplace_back(m.md.ToString(), m.support, m.confidence);
  }
  return out;
}

TEST(EvidenceServedTest, FastDcOnSameCodesDifferentOrderMatchesFresh) {
  Relation up = RelationBuilder({"a", "b"})
                    .AddRow({Value(int64_t{1}), Value(int64_t{10})})
                    .AddRow({Value(int64_t{2}), Value(int64_t{20})})
                    .AddRow({Value(int64_t{3}), Value(int64_t{30})})
                    .Build()
                    .value();
  Relation down = RelationBuilder({"a", "b"})
                      .AddRow({Value(int64_t{1}), Value(int64_t{30})})
                      .AddRow({Value(int64_t{2}), Value(int64_t{20})})
                      .AddRow({Value(int64_t{3}), Value(int64_t{10})})
                      .Build()
                      .value();
  DiscoveryEngine shared;
  auto first = shared.FastDc(up);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  auto served = shared.FastDc(down);
  ASSERT_TRUE(served.ok()) << served.status().ToString();
  DiscoveryEngine fresh;
  auto cold = fresh.FastDc(down);
  ASSERT_TRUE(cold.ok()) << cold.status().ToString();
  EXPECT_EQ(DcTexts(*served), DcTexts(*cold));
  EXPECT_NE(DcTexts(*served), DcTexts(*first));
  // Each relation built its own entry.
  EXPECT_EQ(shared.EvidenceStats().hits, 0);
  EXPECT_EQ(shared.EvidenceStats().misses, 2);
}

TEST(EvidenceServedTest, MdsOnSameCodesDifferentStringsMatchFresh) {
  auto names = [](const std::string& second) {
    return RelationBuilder({"name", "city"})
        .AddRow({Value("smith"), Value("paris")})
        .AddRow({Value(second), Value("paris")})
        .AddRow({Value("jones"), Value("rome")})
        .AddRow({Value("jones"), Value("rome")})
        .Build()
        .value();
  };
  Relation near = names("smyth");
  Relation far = names("zzzzz");
  EncodedRelation en(near), ef(far);
  ASSERT_EQ(en.codes(0), ef.codes(0));
  ASSERT_EQ(en.codes(1), ef.codes(1));
  MdDiscoveryOptions options;
  options.min_support = 0;
  options.min_confidence = 0;
  DiscoveryEngine shared;
  auto first = shared.Mds(near, AttrSet::Single(1), options);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  auto served = shared.Mds(far, AttrSet::Single(1), options);
  ASSERT_TRUE(served.ok()) << served.status().ToString();
  DiscoveryEngine fresh;
  auto cold = fresh.Mds(far, AttrSet::Single(1), options);
  ASSERT_TRUE(cold.ok()) << cold.status().ToString();
  EXPECT_EQ(MdTexts(*served), MdTexts(*cold));
  EXPECT_NE(MdTexts(*served), MdTexts(*first));
  EXPECT_EQ(shared.EvidenceStats().hits, 0);
  // The same relation again is a hit.
  auto again = shared.Mds(far, AttrSet::Single(1), options);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(MdTexts(*again), MdTexts(*cold));
  EXPECT_EQ(shared.EvidenceStats().hits, 1);
}

}  // namespace
}  // namespace famtree
