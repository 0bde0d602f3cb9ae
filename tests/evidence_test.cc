// Property tests for the shared pairwise evidence kernel: on random
// mixed-type relations (nulls, cross-representation numerics, strings) and
// on numeric relations with NaN and infinite cells, under one-lane and
// multi-lane (65-200 bit) configs with one- and two-column order facets,
// the tiled, pruned, parallel, pair-list and delta (append) builds must all
// produce the evidence multiset a naive Value-based double loop produces —
// same words, same counts, same per-word distance aggregates, bit for bit —
// and every strip of the PairComparator kernel must equal its one-partner
// Word. Two-column order facets, mirrored, must give the predicate
// outcomes DcPredicate::Eval gives on every ordered pair. Plus
// EvidenceCache hit/eviction behavior, and engine-served evidence matching
// a fresh engine's on relations that share a code matrix but not their
// values.
//
// Integers beyond 2^53 beside doubles are left out of every generator:
// there `==` is not transitive (2^53 + 1 == 2^53.0 == 2^53, yet the two
// ints differ), so such a column has no strict weak order for the oracle
// to follow until SortsBefore compares int/double exactly.

#include <gtest/gtest.h>

#include <algorithm>
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
#include "deps/dc.h"
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

/// Sometimes appends a two-column order facet (a, b) with its mirror
/// (b, a).
void AddCrossFacets(Rng* rng, int cols, std::vector<EvidenceColumn>* config) {
  if (cols < 2 || rng->Uniform(0, 1) == 0) return;
  int a = static_cast<int>(rng->Uniform(0, cols - 1));
  int b = static_cast<int>(rng->Uniform(0, cols - 2));
  if (b >= a) ++b;
  for (auto [x, y] : {std::pair{a, b}, std::pair{b, a}}) {
    EvidenceColumn col;
    col.attr = x;
    col.b_attr = y;
    col.cmp = EvidenceColumn::Cmp::kOrder;
    config->push_back(col);
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
  AddCrossFacets(rng, cols, &config);
  return config;
}

/// A word in oracle form: its lanes, lane 0 first, so std::map orders
/// oracle words as the kernel sorts them.
using Lanes = std::vector<uint64_t>;

/// The independently computed word layout (the documented packing rule:
/// config order, comparison bits then bucket bits, and a column that does
/// not fit in what is left of a 64-bit lane starts the next lane).
struct OracleLayout {
  int lane = 0;
  int cmp_shift = 0;
  int bucket_shift = 0;
  int bucket_bits = 0;
};

std::vector<OracleLayout> LayoutOf(const std::vector<EvidenceColumn>& config,
                                   int* num_lanes) {
  std::vector<OracleLayout> lay(config.size());
  int lane = 0, shift = 0;
  for (size_t c = 0; c < config.size(); ++c) {
    int cmp_bits = config[c].cmp == EvidenceColumn::Cmp::kEquality ? 1
                   : config[c].cmp == EvidenceColumn::Cmp::kOrder  ? 2
                                                                   : 0;
    if (config[c].metric != nullptr && !config[c].thresholds.empty()) {
      int states = static_cast<int>(config[c].thresholds.size()) + 1;
      while ((1 << lay[c].bucket_bits) < states) ++lay[c].bucket_bits;
    }
    if (shift + cmp_bits + lay[c].bucket_bits > 64) {
      ++lane;
      shift = 0;
    }
    lay[c].lane = lane;
    lay[c].cmp_shift = shift;
    lay[c].bucket_shift = shift + cmp_bits;
    shift += cmp_bits + lay[c].bucket_bits;
  }
  *num_lanes = lane + 1;
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

bool IsNanValue(const Value& v) {
  return v.type() == ValueType::kDouble && std::isnan(v.as_double());
}

/// The documented order field, Value's order: 0 equal, 1 less, 2
/// greater, and 3 (unordered) for a NaN against a number or a NaN, which
/// Value's operators leave neither equal, below nor above. A NaN against a
/// null or a string still orders by type.
int OracleOrder(const Value& a, const Value& b) {
  if (a == b) return 0;
  if (a < b) return 1;
  if (b < a) return 2;
  EXPECT_TRUE(IsNanValue(a) || IsNanValue(b));
  return 3;
}

/// Naive double-loop oracle straight off the Value interface.
Lanes OracleWord(const Relation& r, const std::vector<EvidenceColumn>& config,
                 const std::vector<OracleLayout>& lay, int num_lanes, int i,
                 int j, std::vector<double>* dists) {
  Lanes w(num_lanes, 0);
  dists->clear();
  for (size_t c = 0; c < config.size(); ++c) {
    const Value& a = r.Get(i, config[c].attr);
    const Value& b = r.Get(j, config[c].attr);
    uint64_t& lane = w[lay[c].lane];
    if (config[c].cmp == EvidenceColumn::Cmp::kEquality) {
      lane |= static_cast<uint64_t>(!(a == b)) << lay[c].cmp_shift;
    } else if (config[c].cmp == EvidenceColumn::Cmp::kOrder) {
      const Value& other =
          config[c].b_attr >= 0 ? r.Get(j, config[c].b_attr) : b;
      lane |= static_cast<uint64_t>(OracleOrder(a, other)) << lay[c].cmp_shift;
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
        lane |= bucket << lay[c].bucket_shift;
      }
      if (config[c].track_max) dists->push_back(d);
    }
  }
  return w;
}

std::map<Lanes, OracleEntry> OracleEvidenceForPairs(
    const Relation& r, const std::vector<EvidenceColumn>& config,
    const std::vector<std::pair<int, int>>& pairs) {
  int num_lanes = 0;
  std::vector<OracleLayout> lay = LayoutOf(config, &num_lanes);
  std::map<Lanes, OracleEntry> out;
  int tracked = 0;
  for (const EvidenceColumn& c : config) {
    if (c.track_max) ++tracked;
  }
  std::vector<double> dists;
  for (const auto& [i, j] : pairs) {
    OracleEntry& e = out[OracleWord(r, config, lay, num_lanes, i, j, &dists)];
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

std::map<Lanes, OracleEntry> OracleEvidence(
    const Relation& r, const std::vector<EvidenceColumn>& config) {
  std::vector<std::pair<int, int>> pairs;
  for (int i = 0; i + 1 < r.num_rows(); ++i) {
    for (int j = i + 1; j < r.num_rows(); ++j) pairs.push_back({i, j});
  }
  return OracleEvidenceForPairs(r, config, pairs);
}

/// A built set in oracle form, to compare two builds with
/// ExpectMatchesOracle.
Lanes LanesOf(const EvidenceSet& set, size_t w) {
  return Lanes(set.lanes(w), set.lanes(w) + set.num_lanes());
}

std::map<Lanes, OracleEntry> EntriesOf(const EvidenceSet& set) {
  std::map<Lanes, OracleEntry> out;
  for (size_t w = 0; w < set.num_words(); ++w) {
    OracleEntry& e = out[LanesOf(set, w)];
    e.count = set.count(w);
    for (int t = 0; t < set.num_tracked(); ++t) {
      const EvidenceSet::Aggregate& a = set.agg(w, t);
      e.aggs.push_back(OracleAgg{a.max_all, a.max_finite, a.saw_nonfinite});
    }
  }
  return out;
}

/// Blanks the aggregates of the all-unequal word: the pruned build
/// synthesizes it with zero aggregates by contract.
void BlankAllUnequal(std::map<Lanes, OracleEntry>* oracle,
                     const std::vector<EvidenceColumn>& config) {
  int num_lanes = 0;
  std::vector<OracleLayout> lay = LayoutOf(config, &num_lanes);
  Lanes all_unequal(num_lanes, 0);
  for (const OracleLayout& l : lay) {
    all_unequal[l.lane] |= uint64_t{1} << l.cmp_shift;
  }
  auto it = oracle->find(all_unequal);
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

/// A config of 65-200 bits (two to four lanes): random facets over
/// repeated columns, with bucket lists of up to 40 thresholds, and
/// sometimes a two-column order facet pair.
std::vector<EvidenceColumn> WideConfig(Rng* rng, int cols) {
  const int target = static_cast<int>(rng->Uniform(65, 186));
  std::vector<EvidenceColumn> config;
  while (EvidenceWordBits(config) < target) {
    EvidenceColumn col;
    col.attr = static_cast<int>(rng->Uniform(0, cols - 1));
    switch (rng->Uniform(0, 2)) {
      case 0: col.cmp = EvidenceColumn::Cmp::kNone; break;
      case 1: col.cmp = EvidenceColumn::Cmp::kEquality; break;
      default: col.cmp = EvidenceColumn::Cmp::kOrder; break;
    }
    if (rng->Uniform(0, 1) == 0) {
      col.metric = RandomMetric(rng);
      int nth = static_cast<int>(rng->Uniform(1, 40));
      for (int t = 0; t < nth; ++t) col.thresholds.push_back(t * 0.5);
      col.track_max = rng->Uniform(0, 2) == 0;
    }
    config.push_back(std::move(col));
  }
  AddCrossFacets(rng, cols, &config);
  return config;
}

/// 65-200 equality facets over repeated columns (pruning-eligible), with a
/// tracked metric on some.
std::vector<EvidenceColumn> WidePrunableConfig(Rng* rng, int cols) {
  std::vector<EvidenceColumn> config;
  const int facets = static_cast<int>(rng->Uniform(65, 200));
  for (int f = 0; f < facets; ++f) {
    EvidenceColumn col;
    col.attr = static_cast<int>(rng->Uniform(0, cols - 1));
    if (rng->Uniform(0, 7) == 0) {
      col.metric = RandomMetric(rng);
      col.track_max = true;
    }
    config.push_back(std::move(col));
  }
  return config;
}

void ExpectMatchesOracle(const EvidenceSet& set,
                         const std::map<Lanes, OracleEntry>& oracle,
                         const std::string& label) {
  ASSERT_EQ(set.num_words(), oracle.size()) << label;
  size_t idx = 0;
  for (const auto& [w, entry] : oracle) {
    EXPECT_EQ(LanesOf(set, idx), w) << label << " word " << idx;
    EXPECT_EQ(set.count(idx), entry.count) << label << " word " << idx;
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
  // Every fourth seed runs a config of 65-200 bits, two to four lanes.
  ThreadPool pool2(2), pool8(8);
  int multi_lane = 0;
  for (uint64_t seed = 0; seed < 40; ++seed) {
    int rows = 8 + static_cast<int>(seed % 7) * 9;
    int cols = 2 + static_cast<int>(seed % 5);
    int domain = 2 + static_cast<int>(seed % 6);
    Relation r = MakeMixedRandomRelation(seed, rows, cols, domain);
    EncodedRelation enc(r);
    Rng rng(seed ^ 0xfeedfaceULL);
    std::vector<EvidenceColumn> config =
        seed % 4 == 3 ? WideConfig(&rng, cols) : RandomConfig(&rng, cols);
    std::map<Lanes, OracleEntry> oracle = OracleEvidence(r, config);

    EvidenceOptions serial;
    serial.tile_rows = 1 + static_cast<int>(seed % 16);  // odd tile shapes
    auto s = BuildEvidence(enc, config, serial);
    ASSERT_TRUE(s.ok()) << s.status().ToString();
    ExpectMatchesOracle(**s, oracle, "serial seed " + std::to_string(seed));
    EXPECT_EQ((*s)->total_pairs(),
              static_cast<int64_t>(rows) * (rows - 1) / 2);
    if ((*s)->num_lanes() > 1) ++multi_lane;

    for (ThreadPool* pool : {&pool2, &pool8}) {
      EvidenceOptions popt;
      popt.pool = pool;
      auto p = BuildEvidence(enc, config, popt);
      ASSERT_TRUE(p.ok()) << p.status().ToString();
      ExpectMatchesOracle(**p, oracle,
                          "pooled seed " + std::to_string(seed));
    }
  }
  EXPECT_GE(multi_lane, 10);
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
    std::vector<EvidenceColumn> config = seed % 4 == 3
                                             ? WidePrunableConfig(&rng, cols)
                                             : PrunableConfig(&rng, cols);
    std::map<Lanes, OracleEntry> oracle = OracleEvidence(r, config);
    BlankAllUnequal(&oracle, config);

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
  // Odd seeds carry NaN cells, so order fields read "unordered" (3), which
  // the mirror keeps; two-column facets (a, b) and (b, a) mirror into each
  // other.
  int64_t unordered_fields = 0;
  for (uint64_t seed = 0; seed < 20; ++seed) {
    int rows = 6 + static_cast<int>(seed % 5) * 7;
    int cols = 2 + static_cast<int>(seed % 4);
    Relation r = seed % 2 == 0
                     ? MakeMixedRandomRelation(seed * 17 + 3, rows, cols, 4)
                     : MakeNonFiniteRelation(seed * 17 + 3, rows, cols, 4);
    EncodedRelation enc(r);
    std::vector<EvidenceColumn> config;
    for (int c = 0; c < cols; ++c) {
      EvidenceColumn col;
      col.attr = c;
      col.cmp = c % 2 == 0 ? EvidenceColumn::Cmp::kOrder
                           : EvidenceColumn::Cmp::kEquality;
      config.push_back(col);
    }
    Rng rng(seed ^ 0x3177ULL);
    AddCrossFacets(&rng, cols, &config);
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
    const EvidenceSet& set = **unordered;
    std::map<Lanes, int64_t> expected;
    for (size_t w = 0; w < set.num_words(); ++w) {
      Lanes mirror(set.num_lanes()), back(set.num_lanes());
      set.MirrorOf(set.lanes(w), mirror.data());
      set.MirrorOf(mirror.data(), back.data());
      EXPECT_EQ(back, LanesOf(set, w)) << "seed " << seed;
      for (const EvidenceSet::ColumnLayout& c : set.layout()) {
        if (c.cmp != EvidenceColumn::Cmp::kOrder) continue;
        if (set.layout()[c.mirror].CmpOf(set.lanes(w)) != 3) continue;
        ++unordered_fields;
        EXPECT_EQ(c.CmpOf(mirror.data()), 3) << "seed " << seed;
      }
      expected[LanesOf(set, w)] += set.count(w);
      expected[mirror] += set.count(w);
    }
    ASSERT_EQ((*listed)->num_words(), expected.size()) << "seed " << seed;
    size_t idx = 0;
    for (const auto& [lanes, count] : expected) {
      EXPECT_EQ(LanesOf(**listed, idx), lanes) << "seed " << seed;
      EXPECT_EQ((*listed)->count(idx), count) << "seed " << seed;
      ++idx;
    }
    EXPECT_EQ((*listed)->total_pairs(),
              static_cast<int64_t>(pairs.size()));
  }
  EXPECT_GT(unordered_fields, 0);
}

TEST(EvidencePropertyTest, WideRelationUsesSparsePathCorrectly) {
  // 63 equality facets push the word to 63 bits — far past the dense
  // accumulator — and still must match the oracle; a 64th facet of two
  // bits opens a second lane.
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
  ThreadPool pool8(8);
  EvidenceOptions opt;
  opt.pool = &pool8;
  auto s = BuildEvidence(enc, config, opt);
  ASSERT_TRUE(s.ok());
  EXPECT_EQ((*s)->num_lanes(), 1);
  ExpectMatchesOracle(**s, OracleEvidence(r, config), "wide");
  config.push_back(config.back());
  config.back().cmp = EvidenceColumn::Cmp::kOrder;
  auto two = BuildEvidence(enc, config, opt);
  ASSERT_TRUE(two.ok()) << two.status().ToString();
  EXPECT_EQ((*two)->num_lanes(), 2);
  EXPECT_EQ((*two)->layout().back().lane, 1);
  ExpectMatchesOracle(**two, OracleEvidence(r, config), "wide, two lanes");
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
    std::vector<EvidenceColumn> config =
        seed % 4 == 3 ? WideConfig(&rng, cols) : RandomConfig(&rng, cols);
    std::map<Lanes, OracleEntry> oracle = OracleEvidence(r, config);
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

    std::vector<EvidenceColumn> prunable = seed % 4 == 3
                                               ? WidePrunableConfig(&rng, cols)
                                               : PrunableConfig(&rng, cols);
    std::map<Lanes, OracleEntry> pruned_oracle = OracleEvidence(r, prunable);
    BlankAllUnequal(&pruned_oracle, prunable);
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
    std::vector<EvidenceColumn> config =
        seed % 3 == 2 ? WideConfig(&rng, cols) : RandomConfig(&rng, cols);
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
    std::map<Lanes, OracleEntry> oracle =
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
      const bool wide = seed % 3 == 1;
      std::vector<EvidenceColumn> config =
          pruned ? (wide ? WidePrunableConfig(&rng, cols)
                         : PrunableConfig(&rng, cols))
                 : (wide ? WideConfig(&rng, cols) : RandomConfig(&rng, cols));
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
    std::map<Lanes, OracleEntry> pruned_oracle = OracleEvidence(r, prunable);
    BlankAllUnequal(&pruned_oracle, prunable);
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
  std::vector<uint64_t> lanes(pc.num_lanes());
  for (int k = 0; k < count; ++k) {
    pc.Word(i, partners[k], lanes.data(), one.data());
    for (int l = 0; l < pc.num_lanes(); ++l) {
      ASSERT_EQ(words[static_cast<size_t>(l) * count + k], lanes[l])
          << label << " anchor " << i << " partner " << partners[k]
          << " lane " << l;
    }
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
    std::vector<EvidenceColumn> config =
        seed % 2 == 1 ? WideConfig(&rng, cols) : RandomConfig(&rng, cols);
    auto made = PairComparator::Make(enc, config, nullptr);
    ASSERT_TRUE(made.ok()) << made.status().ToString();
    const PairComparator& pc = **made;
    auto strip_of = [&](int i, const std::vector<int>& partners,
                        bool contiguous, const std::string& label) {
      const int count = static_cast<int>(partners.size());
      std::vector<uint64_t> words(static_cast<size_t>(count) * pc.num_lanes());
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

TEST(EvidencePropertyTest, TwoColumnOrderFacetsMatchDcPredicateEval) {
  // Every ordered column pair (a, b), a != b, as a two-column order facet,
  // plus a one-column facet per column; up to 36 facets, so wider schemas
  // span two lanes. Each facet decodes into the six predicates
  // ta.a op tb.b; over the unordered multiset plus its mirror, and over an
  // explicit list of every ordered pair, the outcome multiset must equal
  // DcPredicate::Eval's on every ordered pair of distinct rows.
  const CmpOp kOps[] = {CmpOp::kEq, CmpOp::kNeq, CmpOp::kLt,
                        CmpOp::kLe, CmpOp::kGt,  CmpOp::kGe};
  for (uint64_t seed = 0; seed < 12; ++seed) {
    const int rows = 6 + static_cast<int>(seed % 5) * 6;
    const int cols = 3 + static_cast<int>(seed % 4);
    Relation r = seed % 2 == 0
                     ? MakeMixedRandomRelation(seed * 7 + 19, rows, cols, 4)
                     : MakeNonFiniteRelation(seed * 7 + 19, rows, cols, 4);
    EncodedRelation enc(r);
    std::vector<EvidenceColumn> config;
    std::vector<DcPredicate> preds;
    for (int a = 0; a < cols; ++a) {
      for (int b = 0; b < cols; ++b) {
        EvidenceColumn col;
        col.attr = a;
        col.b_attr = a == b ? -1 : b;
        col.cmp = EvidenceColumn::Cmp::kOrder;
        config.push_back(col);
        for (CmpOp op : kOps) {
          preds.push_back(
              DcPredicate{DcOperand::TupleA(a), op, DcOperand::TupleB(b)});
        }
      }
    }
    using Outcomes = std::vector<bool>;
    auto decode = [&](const EvidenceSet& set, const uint64_t* lanes) {
      Outcomes out;
      for (size_t c = 0; c < config.size(); ++c) {
        const int t = set.layout()[c].CmpOf(lanes);
        out.insert(out.end(), {t == 0, t != 0, t == 1, (t & 2) == 0, t == 2,
                               (t & 1) == 0});
      }
      return out;
    };
    std::map<Outcomes, int64_t> want;
    std::vector<std::pair<int, int>> pairs;
    for (int i = 0; i < rows; ++i) {
      for (int j = 0; j < rows; ++j) {
        if (i == j) continue;
        pairs.push_back({i, j});
        Outcomes o;
        for (const DcPredicate& p : preds) o.push_back(p.Eval(r, i, j));
        ++want[o];
      }
    }
    auto unordered = BuildEvidence(enc, config, {});
    ASSERT_TRUE(unordered.ok()) << unordered.status().ToString();
    const EvidenceSet& set = **unordered;
    EXPECT_EQ(set.num_lanes(), cols == 6 ? 2 : 1);
    std::map<Outcomes, int64_t> got;
    std::vector<uint64_t> mirror(set.num_lanes());
    for (size_t w = 0; w < set.num_words(); ++w) {
      got[decode(set, set.lanes(w))] += set.count(w);
      set.MirrorOf(set.lanes(w), mirror.data());
      got[decode(set, mirror.data())] += set.count(w);
    }
    EXPECT_EQ(got, want) << "seed " << seed;
    auto listed = BuildEvidenceForPairs(enc, config, pairs, {});
    ASSERT_TRUE(listed.ok()) << listed.status().ToString();
    std::map<Outcomes, int64_t> listed_got;
    for (size_t w = 0; w < (*listed)->num_words(); ++w) {
      listed_got[decode(**listed, (*listed)->lanes(w))] +=
          (*listed)->count(w);
    }
    EXPECT_EQ(listed_got, want) << "seed " << seed;
  }
}

TEST(EvidencePropertyTest, TwoColumnFacetNeedsItsMirror) {
  Relation r = MakeMixedRandomRelation(5, 10, 3, 4);
  EncodedRelation enc(r);
  std::vector<EvidenceColumn> config(1);
  config[0].attr = 0;
  config[0].b_attr = 1;
  config[0].cmp = EvidenceColumn::Cmp::kOrder;
  EXPECT_FALSE(PairComparator::Make(enc, config, nullptr).ok());
  config[0].cmp = EvidenceColumn::Cmp::kEquality;
  EXPECT_FALSE(PairComparator::Make(enc, config, nullptr).ok());
  config[0].cmp = EvidenceColumn::Cmp::kOrder;
  config.push_back(config[0]);
  std::swap(config[1].attr, config[1].b_attr);
  EXPECT_TRUE(PairComparator::Make(enc, config, nullptr).ok());
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
  // So is the second order column: comparing each column with itself and
  // comparing a with b (and b with a) are different entries.
  std::vector<EvidenceColumn> cross = order;
  cross[0].b_attr = 1;
  cross[1].b_attr = 0;
  const uint64_t fpu = RelationFingerprint(up);
  EXPECT_NE(EvidenceCache::KeyFor(fpu, order),
            EvidenceCache::KeyFor(fpu, cross));
  EvidenceCache cache;
  auto same_set = GetOrBuildEvidence(&cache, eu, fpu, order, {});
  auto cross_set = GetOrBuildEvidence(&cache, eu, fpu, cross, {});
  ASSERT_TRUE(same_set.ok() && cross_set.ok());
  EXPECT_NE(same_set.value().get(), cross_set.value().get());
  EXPECT_EQ(cache.stats().misses, 2);
  EXPECT_EQ(cache.stats().hits, 0);
  ExpectMatchesOracle(**cross_set, OracleEvidence(up, cross), "cross");
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
