// Incremental maintenance under batch appends: after
// Relation::AppendRows / ShardedEncodedRelation::AppendCsv, every
// maintained structure — delta-merged PLIs (raw CSR arrays), evidence
// multisets (words, counts, per-word aggregates), and repaired FD/MD
// covers — must be bit-identical to a cold recompute of the grown
// relation, across batch shapes (empty, single row, brand-new dictionary
// codes, FD-breaking), thread counts {1, 2, 8} and memory budgets. Plus
// the forget-path regression: a forgotten relation's evidence entries
// must leave the engine-wide store.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/run_context.h"
#include "common/thread_pool.h"
#include "engine/engine.h"
#include "engine/evidence.h"
#include "engine/evidence_cache.h"
#include "engine/pli_cache.h"
#include "discovery/hybrid/hybrid_fd.h"
#include "relation/encoded_relation.h"
#include "relation/ooc/sharded_relation.h"
#include "relation/partition.h"
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

std::vector<std::vector<Value>> RandomRows(Rng* rng, int rows, int cols,
                                           int domain) {
  std::vector<std::vector<Value>> out;
  for (int r = 0; r < rows; ++r) {
    std::vector<Value> row;
    for (int c = 0; c < cols; ++c) row.push_back(RandomCell(rng, domain));
    out.push_back(std::move(row));
  }
  return out;
}

Relation BuildRelation(const std::vector<std::vector<Value>>& rows,
                       int cols) {
  std::vector<std::string> names;
  for (int c = 0; c < cols; ++c) names.push_back("c" + std::to_string(c));
  RelationBuilder b(names);
  for (const auto& row : rows) b.AddRow(std::vector<Value>(row));
  return std::move(b.Build()).value();
}

/// The append-batch shapes the maintenance paths must survive.
enum class BatchKind { kEmpty, kSingleRow, kFreshCodes, kFdBreaking };

std::vector<std::vector<Value>> MakeBatch(BatchKind kind, Rng* rng,
                                          int batch_rows, int cols,
                                          int domain,
                                          const std::vector<std::vector<Value>>&
                                              base_rows) {
  switch (kind) {
    case BatchKind::kEmpty:
      return {};
    case BatchKind::kSingleRow:
      return RandomRows(rng, 1, cols, domain);
    case BatchKind::kFreshCodes:
      // A domain the base never touched: every cell mints a new
      // dictionary code, growing every dict past its old size.
      return RandomRows(rng, batch_rows, cols, domain + 1000000);
    case BatchKind::kFdBreaking: {
      // Copies of existing rows with one perturbed cell each: the pair
      // (original, copy) agrees everywhere but the perturbed column, the
      // strongest way to violate held FDs.
      std::vector<std::vector<Value>> out;
      for (int r = 0; r < batch_rows && !base_rows.empty(); ++r) {
        std::vector<Value> row =
            base_rows[rng->Uniform(0, base_rows.size() - 1)];
        int c = static_cast<int>(rng->Uniform(0, cols - 1));
        row[c] = Value(static_cast<int64_t>(rng->Uniform(0, domain - 1)) +
                       5000000);
        out.push_back(std::move(row));
      }
      return out;
    }
  }
  return {};
}

void ExpectSamePartition(const StrippedPartition& got,
                         const StrippedPartition& want,
                         const std::string& what) {
  EXPECT_EQ(got.row_indices(), want.row_indices()) << what;
  EXPECT_EQ(got.class_offsets(), want.class_offsets()) << what;
}

void ExpectSameEvidence(const EvidenceSet& got, const EvidenceSet& want,
                        const std::string& what) {
  ASSERT_EQ(got.words().size(), want.words().size()) << what;
  EXPECT_EQ(got.total_pairs(), want.total_pairs()) << what;
  ASSERT_EQ(got.num_tracked(), want.num_tracked()) << what;
  for (size_t i = 0; i < got.words().size(); ++i) {
    EXPECT_EQ(got.words()[i].bits, want.words()[i].bits) << what << " @" << i;
    EXPECT_EQ(got.words()[i].count, want.words()[i].count) << what << " @" << i;
    for (int t = 0; t < got.num_tracked(); ++t) {
      const EvidenceSet::Aggregate& a = got.agg(i, t);
      const EvidenceSet::Aggregate& b = want.agg(i, t);
      // Bit-identical doubles, not approximately-equal ones.
      EXPECT_EQ(a.max_all, b.max_all) << what << " @" << i;
      EXPECT_EQ(a.max_finite, b.max_finite) << what << " @" << i;
      EXPECT_EQ(a.saw_nonfinite, b.saw_nonfinite) << what << " @" << i;
    }
  }
}

using FdTuple = std::tuple<uint64_t, uint64_t, int>;
std::vector<FdTuple> Canon(const std::vector<DiscoveredFd>& fds) {
  std::vector<FdTuple> out;
  for (const DiscoveredFd& fd : fds) {
    AttrSet lhs = fd.lhs;
    uint64_t lo = 0, hi = 0;
    for (int a : lhs) {
      if (a < 64) lo |= uint64_t{1} << (a % 64);
      else hi |= uint64_t{1} << (a % 64);
    }
    out.emplace_back(hi, lo, fd.rhs);
  }
  std::sort(out.begin(), out.end());
  return out;
}

TEST(IncrementalRelationTest, AppendRowsIsAllOrNothing) {
  Rng rng(1);
  auto base_rows = RandomRows(&rng, 10, 3, 4);
  Relation r = BuildRelation(base_rows, 3);
  uint64_t fp_before = RelationFingerprint(r);
  std::vector<std::vector<Value>> bad = RandomRows(&rng, 2, 3, 4);
  bad.push_back({Value(int64_t{1})});  // wrong arity, third row
  Status st = r.AppendRows(std::move(bad));
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(r.num_rows(), 10);
  EXPECT_EQ(RelationFingerprint(r), fp_before);
}

TEST(IncrementalRelationTest, AppendedFingerprintMatchesColdBuild) {
  for (uint64_t seed = 0; seed < 20; ++seed) {
    Rng rng(seed);
    int cols = 2 + static_cast<int>(seed % 4);
    auto base_rows = RandomRows(&rng, 20, cols, 4);
    auto delta_rows = RandomRows(&rng, 5, cols, 4);

    Relation grown = BuildRelation(base_rows, cols);
    // The chain of the prefix, extended by the appended suffix, must equal
    // the one-shot fingerprint — that is what lets the caches revalidate
    // instead of rehashing everything.
    uint64_t prefix_chain =
        RelationRowChain(grown, 0, grown.num_rows(), kRelationChainSeed);
    ASSERT_TRUE(grown.AppendRows(delta_rows).ok());
    uint64_t chained = FinalizeRelationFingerprint(
        RelationRowChain(grown, 20, grown.num_rows(), prefix_chain),
        grown.schema(), grown.num_rows());
    EXPECT_EQ(chained, RelationFingerprint(grown)) << "seed " << seed;

    auto all_rows = base_rows;
    all_rows.insert(all_rows.end(), delta_rows.begin(), delta_rows.end());
    Relation cold = BuildRelation(all_rows, cols);
    EXPECT_EQ(RelationFingerprint(grown), RelationFingerprint(cold))
        << "seed " << seed;
  }
}

TEST(IncrementalRelationTest, EncodedAppendedMatchesColdEncode) {
  for (uint64_t seed = 0; seed < 30; ++seed) {
    Rng rng(seed);
    int cols = 2 + static_cast<int>(seed % 3);
    auto base_rows = RandomRows(&rng, 25, cols, 3);
    Relation grown = BuildRelation(base_rows, cols);
    EncodedRelation base_enc(grown);

    for (BatchKind kind : {BatchKind::kEmpty, BatchKind::kSingleRow,
                           BatchKind::kFreshCodes, BatchKind::kFdBreaking}) {
      auto delta = MakeBatch(kind, &rng, 6, cols, 3, base_rows);
      auto all_rows = base_rows;
      all_rows.insert(all_rows.end(), delta.begin(), delta.end());
      Relation full = BuildRelation(all_rows, cols);

      auto appended = EncodedRelation::Appended(base_enc, full);
      ASSERT_TRUE(appended.ok()) << appended.status().ToString();
      EncodedRelation cold(full);
      ASSERT_EQ(appended->num_rows(), cold.num_rows());
      for (int c = 0; c < cols; ++c) {
        EXPECT_EQ(appended->codes(c), cold.codes(c)) << "seed " << seed;
        ASSERT_EQ(appended->dict_size(c), cold.dict_size(c))
            << "seed " << seed;
        for (uint32_t code = 0;
             code < static_cast<uint32_t>(cold.dict_size(c)); ++code) {
          EXPECT_TRUE(appended->Decode(c, code) == cold.Decode(c, code))
              << "seed " << seed << " col " << c << " code " << code;
        }
      }
    }
  }
}

TEST(IncrementalPliTest, MaintainedPlisBitIdenticalToColdRecompute) {
  for (uint64_t seed = 0; seed < 12; ++seed) {
    for (BatchKind kind : {BatchKind::kEmpty, BatchKind::kSingleRow,
                           BatchKind::kFreshCodes, BatchKind::kFdBreaking}) {
      for (size_t budget_bytes : {size_t{0}, size_t{8} << 20}) {
        Rng rng(seed * 101 + static_cast<uint64_t>(kind));
        int cols = 3 + static_cast<int>(seed % 3);
        auto base_rows = RandomRows(&rng, 40, cols, 3);
        auto delta = MakeBatch(kind, &rng, 8, cols, 3, base_rows);
        auto all_rows = base_rows;
        all_rows.insert(all_rows.end(), delta.begin(), delta.end());

        Relation grown = BuildRelation(base_rows, cols);
        PliCache cache(grown);
        // Warm leaves and a few products so maintenance has real work.
        std::vector<AttrSet> keys;
        for (int c = 0; c < cols; ++c) keys.push_back(AttrSet::Single(c));
        keys.push_back(AttrSet::Of({0, 1}));
        keys.push_back(AttrSet::Of({1, 2}));
        if (cols > 3) keys.push_back(AttrSet::Of({0, 2, 3}));
        for (AttrSet k : keys) ASSERT_NE(cache.Get(k), nullptr);

        ASSERT_TRUE(grown.AppendRows(delta).ok());
        MemoryBudget budget(budget_bytes == 0 ? size_t{1} << 40
                                              : budget_bytes);
        RunContext ctx;
        ctx.set_memory_budget(&budget);
        PliCache::MaintainStats mstats;
        Status maintained = cache.MaintainAppend(&ctx, &mstats);
        ASSERT_TRUE(maintained.ok())
            << maintained.ToString() << " seed " << seed;
        EXPECT_EQ(mstats.appended_rows, static_cast<int>(delta.size()));
        EXPECT_EQ(cache.num_rows(), grown.num_rows());

        Relation full = BuildRelation(all_rows, cols);
        EXPECT_EQ(cache.fingerprint(), RelationFingerprint(full));
        PliCache cold(full);
        for (AttrSet k : keys) {
          auto got = cache.Get(k);
          auto want = cold.Get(k);
          ASSERT_NE(got, nullptr);
          ASSERT_NE(want, nullptr);
          ExpectSamePartition(*got, *want,
                              "seed " + std::to_string(seed) + " kind " +
                                  std::to_string(static_cast<int>(kind)) +
                                  " attrs " + std::to_string(k.mask()));
        }
        // The maintained encoding view must match a cold encode too.
        ASSERT_TRUE(cache.has_encoded());
        EncodedRelation cold_enc(full);
        for (int c = 0; c < cols; ++c) {
          EXPECT_EQ(cache.encoded().codes(c), cold_enc.codes(c));
        }
        // A second maintenance call with nothing appended is a no-op.
        ASSERT_TRUE(cache.MaintainAppend().ok());
      }
    }
  }
}

/// Appends near-distinct columns to `rows`: an edit-distance string (a
/// shared stem plus a wide-domain suffix, so distances spread over the
/// thresholds) and an abs-diff number, each with the occasional null and
/// the numeric one with NaN / ±inf. Their dictionaries grow almost one
/// code per row, so a delta's new pairs are far fewer than their
/// code-pair triangles.
void AddNearDistinctColumns(Rng* rng, std::vector<std::vector<Value>>* rows) {
  for (auto& row : *rows) {
    int64_t v = rng->Uniform(0, 4000);
    row.push_back(rng->Uniform(0, 19) == 0
                      ? Value()
                      : Value("hotel-" + std::to_string(v)));
    switch (rng->Uniform(0, 24)) {
      case 0: row.push_back(Value()); break;
      case 1: row.push_back(Value(std::numeric_limits<double>::quiet_NaN()));
        break;
      case 2: row.push_back(Value(std::numeric_limits<double>::infinity()));
        break;
      case 3: row.push_back(Value(-std::numeric_limits<double>::infinity()));
        break;
      default: row.push_back(Value(static_cast<double>(v) / 4)); break;
    }
  }
}

TEST(IncrementalEvidenceTest, DeltaPlusMergeMatchesColdBuild) {
  for (int threads : {1, 2, 8}) {
    ThreadPool pool(threads);
    for (uint64_t seed = 0; seed < 15; ++seed) {
      Rng rng(seed + 77);
      int cols = 3;
      auto base_rows = RandomRows(&rng, 30, cols, 3);
      auto delta = MakeBatch(seed % 2 == 0 ? BatchKind::kFreshCodes
                                           : BatchKind::kFdBreaking,
                             &rng, 7, cols, 3, base_rows);
      // Columns 3 and 4: bucketed edit / abs-diff distances over
      // near-distinct dictionaries (the delta's per-pair path); column 1
      // keeps a small dictionary (the delta's memoized path).
      AddNearDistinctColumns(&rng, &base_rows);
      AddNearDistinctColumns(&rng, &delta);
      int all_cols = cols + 2;
      auto all_rows = base_rows;
      all_rows.insert(all_rows.end(), delta.begin(), delta.end());
      Relation base = BuildRelation(base_rows, all_cols);
      Relation full = BuildRelation(all_rows, all_cols);
      EncodedRelation base_enc(base);
      EncodedRelation full_enc(full);

      std::vector<EvidenceColumn> config;
      for (int c = 0; c < all_cols; ++c) {
        EvidenceColumn col;
        col.attr = c;
        col.cmp = c == 2   ? EvidenceColumn::Cmp::kOrder
                  : c >= 3 ? EvidenceColumn::Cmp::kNone
                           : EvidenceColumn::Cmp::kEquality;
        if (c == 1) {
          col.metric = GetDiscreteMetric();
          col.thresholds = {0.0};
          col.track_max = true;
        } else if (c == 3) {
          col.metric = GetEditDistanceMetric();
          col.thresholds = {1.0, 2.0, 3.0};
          // Exact distances too: the track_max table's per-pair path.
          col.track_max = seed % 3 == 0;
        } else if (c == 4) {
          col.metric = GetAbsDiffMetric();
          col.thresholds = {0.5, 2.0, 10.0,
                            std::numeric_limits<double>::infinity()};
        }
        config.push_back(std::move(col));
      }

      int64_t n = full.num_rows(), n0 = base.num_rows();
      int64_t new_pairs = n * (n - 1) / 2 - n0 * (n0 - 1) / 2;
      auto triangle = [&](int attr) {
        int64_t k = full_enc.dict_size(attr);
        return k * (k + 1) / 2;
      };
      ASSERT_LE(triangle(1), new_pairs) << "seed " << seed;
      ASSERT_GT(triangle(3), new_pairs) << "seed " << seed;
      ASSERT_GT(triangle(4), new_pairs) << "seed " << seed;

      EvidenceOptions options;
      options.pool = &pool;
      auto base_set = BuildEvidence(base_enc, config, options);
      ASSERT_TRUE(base_set.ok()) << base_set.status().ToString();
      auto delta_set = BuildEvidenceDelta(full_enc, config, n0, options);
      ASSERT_TRUE(delta_set.ok()) << delta_set.status().ToString();
      auto merged = MergeEvidenceSets(**base_set, **delta_set, options);
      ASSERT_TRUE(merged.ok()) << merged.status().ToString();
      auto cold = BuildEvidence(full_enc, config, {});
      ASSERT_TRUE(cold.ok()) << cold.status().ToString();
      ExpectSameEvidence(**merged, **cold,
                         "threads " + std::to_string(threads) + " seed " +
                             std::to_string(seed));

      // Old pairs and new pairs partition all pairs.
      EXPECT_EQ((*delta_set)->total_pairs(), new_pairs);
    }
  }
}

TEST(IncrementalEngineTest, AppendRowsMaintainsEvidenceEntries) {
  for (int threads : {1, 2, 8}) {
    Rng rng(31 + threads);
    int cols = 3;
    auto base_rows = RandomRows(&rng, 30, cols, 3);
    auto delta = MakeBatch(BatchKind::kFdBreaking, &rng, 6, cols, 3,
                           base_rows);
    auto all_rows = base_rows;
    all_rows.insert(all_rows.end(), delta.begin(), delta.end());
    Relation r = BuildRelation(base_rows, cols);
    Relation full = BuildRelation(all_rows, cols);

    EngineOptions eopts;
    eopts.num_threads = threads;
    DiscoveryEngine engine(eopts);
    auto cache = engine.CacheFor(r);
    ASSERT_TRUE(cache.ok());

    std::vector<EvidenceColumn> config;
    for (int c = 0; c < cols; ++c) {
      EvidenceColumn col;
      col.attr = c;
      col.cmp = EvidenceColumn::Cmp::kEquality;
      config.push_back(col);
    }
    EvidenceOptions ev;
    ev.pool = &engine.pool();
    auto warm = GetOrBuildEvidence(&engine.evidence_cache(),
                                   (*cache)->encoded(), config, ev);
    ASSERT_TRUE(warm.ok());

    ASSERT_TRUE(engine.AppendRows(r, delta).ok());

    // The maintained entry must be served as a *hit* under the appended
    // encoding's key, bit-identical to a cold build.
    int64_t hits_before = engine.EvidenceStats().hits;
    auto cache2 = engine.CacheFor(r);
    ASSERT_TRUE(cache2.ok());
    auto maintained = GetOrBuildEvidence(&engine.evidence_cache(),
                                         (*cache2)->encoded(), config, ev);
    ASSERT_TRUE(maintained.ok());
    EXPECT_EQ(engine.EvidenceStats().hits, hits_before + 1)
        << "threads " << threads;
    EncodedRelation cold_enc(full);
    auto cold = BuildEvidence(cold_enc, config, {});
    ASSERT_TRUE(cold.ok());
    ExpectSameEvidence(**maintained, **cold,
                       "threads " + std::to_string(threads));
  }
}

TEST(IncrementalCoverTest, RepairedFdCoverMatchesColdDiscovery) {
  for (int threads : {1, 2, 8}) {
    for (uint64_t seed = 0; seed < 6; ++seed) {
      for (BatchKind kind : {BatchKind::kSingleRow, BatchKind::kFreshCodes,
                             BatchKind::kFdBreaking}) {
        Rng rng(seed * 13 + threads);
        int cols = 4;
        auto base_rows = RandomRows(&rng, 40, cols, 3);
        auto delta = MakeBatch(kind, &rng, 8, cols, 3, base_rows);
        auto all_rows = base_rows;
        all_rows.insert(all_rows.end(), delta.begin(), delta.end());
        Relation r = BuildRelation(base_rows, cols);
        Relation full = BuildRelation(all_rows, cols);

        EngineOptions eopts;
        eopts.num_threads = threads;
        DiscoveryEngine engine(eopts);

        HybridFdOptions fd_opts;
        fd_opts.max_lhs_size = 3;
        auto cover = engine.HybridFds(r, fd_opts);
        ASSERT_TRUE(cover.ok()) << cover.status().ToString();

        ASSERT_TRUE(engine.AppendRows(r, delta).ok());
        auto repaired = engine.RepairFdCover(r, *cover, fd_opts);
        ASSERT_TRUE(repaired.ok()) << repaired.status().ToString();

        auto cold = DiscoverFdsHybrid(full, fd_opts);
        ASSERT_TRUE(cold.ok());
        EXPECT_EQ(Canon(*repaired), Canon(*cold))
            << "threads " << threads << " seed " << seed << " kind "
            << static_cast<int>(kind);
        // Close the differential triangle through the lattice engine.
        TaneOptions tane_opts;
        tane_opts.max_lhs_size = 3;
        auto tane = DiscoverFdsTane(full, tane_opts);
        ASSERT_TRUE(tane.ok());
        EXPECT_EQ(Canon(*repaired), Canon(*tane)) << "threads " << threads;
      }
    }
  }
}

TEST(IncrementalCoverTest, MdDiscoveryAfterAppendMatchesColdEngine) {
  // Small dictionaries (the delta memoizes its distance tables) and
  // near-distinct ones (it computes each new pair's distance directly).
  for (bool near_distinct : {false, true}) {
    Rng rng(91);
    int cols = 3;
    auto base_rows = RandomRows(&rng, 25, cols, 3);
    auto delta =
        MakeBatch(BatchKind::kFdBreaking, &rng, 5, cols, 3, base_rows);
    if (near_distinct) {
      AddNearDistinctColumns(&rng, &base_rows);
      AddNearDistinctColumns(&rng, &delta);
      cols += 2;
    }
    auto all_rows = base_rows;
    all_rows.insert(all_rows.end(), delta.begin(), delta.end());
    Relation r = BuildRelation(base_rows, cols);
    Relation full = BuildRelation(all_rows, cols);
    std::string what = near_distinct ? "near-distinct" : "small dictionaries";

    DiscoveryEngine engine;
    MdDiscoveryOptions md_opts;
    md_opts.min_confidence = 1.0;
    md_opts.min_support = 0.0;
    AttrSet rhs = AttrSet::Single(0);
    auto before = engine.HybridMds(r, rhs, md_opts);
    ASSERT_TRUE(before.ok()) << before.status().ToString();

    ASSERT_TRUE(engine.AppendRows(r, delta).ok());
    // The append maintained the cached evidence set, so the rerun is a hit
    // that builds nothing.
    EvidenceCache::Stats pre = engine.EvidenceStats();
    auto after = engine.HybridMds(r, rhs, md_opts);
    ASSERT_TRUE(after.ok()) << after.status().ToString();
    EvidenceCache::Stats post = engine.EvidenceStats();
    EXPECT_EQ(post.hits, pre.hits + 1) << what;
    EXPECT_EQ(post.builds, pre.builds) << what;

    DiscoveryEngine cold_engine;
    auto cold = cold_engine.HybridMds(full, rhs, md_opts);
    ASSERT_TRUE(cold.ok()) << cold.status().ToString();
    // Random small-dictionary rows hold no exact MD on c0; the
    // near-distinct columns give the comparison something to compare.
    if (near_distinct) EXPECT_FALSE(after->empty());
    ASSERT_EQ(after->size(), cold->size()) << what;
    for (size_t i = 0; i < after->size(); ++i) {
      EXPECT_EQ((*after)[i].md.ToString(), (*cold)[i].md.ToString()) << what;
      EXPECT_EQ((*after)[i].support, (*cold)[i].support) << what;
      EXPECT_EQ((*after)[i].confidence, (*cold)[i].confidence) << what;
    }
  }
}

std::string CsvOf(const std::vector<std::vector<Value>>& rows, int cols,
                  bool header) {
  std::string text;
  if (header) {
    for (int c = 0; c < cols; ++c) {
      if (c > 0) text += ',';
      text += "c" + std::to_string(c);
    }
    text += '\n';
  }
  for (const auto& row : rows) {
    for (int c = 0; c < cols; ++c) {
      if (c > 0) text += ',';
      const Value& v = row[c];
      if (v.is_null()) {
        // empty field
      } else if (v.type() == ValueType::kInt) {
        text += std::to_string(v.as_int());
      } else {
        text += "s" + std::to_string(c);
      }
    }
    text += '\n';
  }
  return text;
}

std::vector<std::vector<Value>> IntRows(Rng* rng, int rows, int cols,
                                        int domain) {
  std::vector<std::vector<Value>> out;
  for (int r = 0; r < rows; ++r) {
    std::vector<Value> row;
    for (int c = 0; c < cols; ++c) {
      row.push_back(Value(rng->Uniform(0, domain - 1)));
    }
    out.push_back(std::move(row));
  }
  return out;
}

TEST(IncrementalOocTest, AppendCsvMatchesColdIngest) {
  Rng rng(55);
  int cols = 3;
  auto base_rows = IntRows(&rng, 200, cols, 5);
  auto delta_rows = IntRows(&rng, 20, cols, 50);  // mostly fresh codes
  std::string base_csv = CsvOf(base_rows, cols, true);
  std::string delta_csv = CsvOf(delta_rows, cols, true);
  auto all_rows = base_rows;
  all_rows.insert(all_rows.end(), delta_rows.begin(), delta_rows.end());
  std::string full_csv = CsvOf(all_rows, cols, true);

  IngestOptions opts;
  opts.shard_rows = 64;  // several shards
  auto grown = ShardedEncodedRelation::IngestCsvString(base_csv, opts);
  ASSERT_TRUE(grown.ok()) << grown.status().ToString();
  auto cold = ShardedEncodedRelation::IngestCsvString(full_csv, opts);
  ASSERT_TRUE(cold.ok()) << cold.status().ToString();

  DiscoveryEngine engine;
  ASSERT_TRUE(engine.OocCacheFor(**grown).ok());
  ASSERT_TRUE(engine.AppendCsv(**grown, delta_csv, opts).ok());

  // Chained ingest fingerprint == cold one-shot ingest fingerprint.
  EXPECT_EQ((*grown)->num_rows(), (*cold)->num_rows());
  EXPECT_EQ((*grown)->fingerprint(), (*cold)->fingerprint());

  // The maintained out-of-core PLI store serves partitions bit-identical
  // to a cold store over the cold ingest.
  auto cache = engine.OocCacheFor(**grown);
  ASSERT_TRUE(cache.ok()) << cache.status().ToString();
  PliCache cold_cache(**cold);
  for (int c = 0; c < cols; ++c) {
    auto got = (*cache)->Get(AttrSet::Single(c));
    auto want = cold_cache.Get(AttrSet::Single(c));
    ASSERT_NE(got, nullptr);
    ASSERT_NE(want, nullptr);
    ExpectSamePartition(*got, *want, "ooc col " + std::to_string(c));
  }

  // And full discovery agrees with a fresh engine over the cold ingest.
  TaneOptions tane_opts;
  tane_opts.max_lhs_size = 2;
  auto inc = engine.TaneOutOfCore(**grown, tane_opts);
  ASSERT_TRUE(inc.ok()) << inc.status().ToString();
  DiscoveryEngine cold_engine;
  auto cold_fds = cold_engine.TaneOutOfCore(**cold, tane_opts);
  ASSERT_TRUE(cold_fds.ok());
  EXPECT_EQ(Canon(*inc), Canon(*cold_fds));
}

TEST(IncrementalOocTest, AppendCsvRejectsMismatchedHeader) {
  Rng rng(66);
  auto base_rows = IntRows(&rng, 30, 2, 4);
  auto grown = ShardedEncodedRelation::IngestCsvString(
      CsvOf(base_rows, 2, true));
  ASSERT_TRUE(grown.ok());
  uint64_t fp = (*grown)->fingerprint();
  Status st = (*grown)->AppendCsv("x,y\n1,2\n");
  EXPECT_FALSE(st.ok());
  // A failed append is documented as discard-the-relation; but a header
  // mismatch is detected before any row lands, so the fingerprint of this
  // particular failure mode is unchanged.
  EXPECT_EQ((*grown)->fingerprint(), fp);
}

// --- Delta repair: after a completed hybrid run the PliCache records the
// emitted cover; a repair whose seed equals it validates only pairs that
// hold a row appended since (the suspect-row check). Every variant must
// equal a cold DiscoverFdsHybrid of the grown relation at 1/2/8 threads.

/// Rows of r mod 97 / 89 / 83 plus c2 = c0 mod 5: every pair of the three
/// moduli is a key, c0 -> c2 holds, and every leaf class is small (about
/// rows/83), so each frontier entry passes the suspect-row cost rule.
/// `breaking` rows mint c2 values the base never used, breaking c0 -> c2.
std::vector<std::vector<Value>> ModRows(int first, int count, bool breaking) {
  std::vector<std::vector<Value>> out;
  for (int64_t r = first; r < first + count; ++r) {
    int64_t c0 = r % 97;
    int64_t c2 = breaking ? 5 + r % 3 : c0 % 5;
    out.push_back({Value(c0), Value(r % 89), Value(c2), Value(r % 83)});
  }
  return out;
}

std::vector<std::vector<Value>> Concat(
    std::vector<std::vector<Value>> a,
    const std::vector<std::vector<Value>>& b) {
  a.insert(a.end(), b.begin(), b.end());
  return a;
}

std::vector<std::pair<AttrSet, int>> SortedPairs(
    const std::vector<DiscoveredFd>& fds) {
  std::vector<std::pair<AttrSet, int>> out;
  for (const DiscoveredFd& fd : fds) out.emplace_back(fd.lhs, fd.rhs);
  std::sort(out.begin(), out.end());
  return out;
}

HybridFdOptions HybridAt(int max_lhs_size) {
  HybridFdOptions opts;
  opts.max_lhs_size = max_lhs_size;
  return opts;
}

/// Cold reference: the hybrid miner on a fresh copy of `rows`.
std::vector<FdTuple> ColdCover(const std::vector<std::vector<Value>>& rows,
                               int cols, int max_lhs_size) {
  auto cold = DiscoverFdsHybrid(BuildRelation(rows, cols),
                                HybridAt(max_lhs_size));
  EXPECT_TRUE(cold.ok()) << cold.status().ToString();
  return cold.ok() ? Canon(*cold) : std::vector<FdTuple>{};
}

TEST(IncrementalDeltaRepairTest, RecordedSeedValidatesOnlyAppendedRows) {
  for (int threads : {1, 2, 8}) {
    for (bool reorder : {false, true}) {
      auto rows = ModRows(0, 3000, false);
      Relation r = BuildRelation(rows, 4);
      EngineOptions eopts;
      eopts.num_threads = threads;
      DiscoveryEngine engine(eopts);
      auto cover = engine.HybridFds(r, HybridAt(3));
      ASSERT_TRUE(cover.ok()) << cover.status().ToString();
      PliCache* cache = *engine.CacheFor(r);
      auto memo = cache->fd_cover_memo();
      ASSERT_NE(memo, nullptr);
      EXPECT_EQ(memo->num_rows, 3000);
      EXPECT_EQ(memo->max_lhs_size, 3);
      EXPECT_EQ(memo->fds, SortedPairs(*cover));

      for (int batch = 0; batch < 4; ++batch) {
        // Batch 1 breaks c0 -> c2 on its first row only.
        auto delta = ModRows(3000 + 10 * batch, 10, false);
        if (batch == 1) delta[0] = ModRows(3010, 1, true)[0];
        rows = Concat(std::move(rows), delta);
        ASSERT_TRUE(engine.AppendRows(r, delta).ok());
        std::vector<DiscoveredFd> seed = *cover;
        if (reorder) std::reverse(seed.begin(), seed.end());
        int64_t builds = engine.CacheStats().builds;
        HybridFdStats stats;
        HybridFdOptions opts = HybridAt(3);
        opts.stats = &stats;
        cover = engine.RepairFdCover(r, seed, opts);
        ASSERT_TRUE(cover.ok()) << cover.status().ToString();
        std::string what = "threads " + std::to_string(threads) + " batch " +
                           std::to_string(batch) +
                           (reorder ? " reordered" : "");
        EXPECT_EQ(Canon(*cover), ColdCover(rows, 4, 3)) << what;
        // The suspect-row check reads only the pinned leaves: no product
        // is rebuilt after the append invalidated them.
        EXPECT_EQ(engine.CacheStats().builds, builds) << what;
        EXPECT_GT(stats.frontier_checks, 0) << what;
        if (batch == 1) {
          EXPECT_GT(stats.frontier_violations, 0) << what;
        }
        memo = cache->fd_cover_memo();
        ASSERT_NE(memo, nullptr) << what;
        EXPECT_EQ(memo->num_rows, r.num_rows()) << what;
        EXPECT_EQ(memo->fds, SortedPairs(*cover)) << what;
      }
    }
  }
}

TEST(IncrementalDeltaRepairTest, SeveralAppendsBetweenRepairs) {
  for (int threads : {1, 2, 8}) {
    for (uint64_t seed = 0; seed < 4; ++seed) {
      Rng rng(seed * 7 + threads);
      auto rows = RandomRows(&rng, 120, 5, 12);
      Relation r = BuildRelation(rows, 5);
      EngineOptions eopts;
      eopts.num_threads = threads;
      DiscoveryEngine engine(eopts);
      auto cover = engine.HybridFds(r, HybridAt(3));
      ASSERT_TRUE(cover.ok()) << cover.status().ToString();
      // Three appends of different shapes land before one repair: every
      // row since the recorded cover is a suspect.
      for (BatchKind kind : {BatchKind::kFreshCodes, BatchKind::kSingleRow,
                             BatchKind::kFdBreaking}) {
        auto delta = MakeBatch(kind, &rng, 6, 5, 12, rows);
        rows = Concat(std::move(rows), delta);
        ASSERT_TRUE(engine.AppendRows(r, delta).ok());
      }
      auto repaired = engine.RepairFdCover(r, *cover, HybridAt(3));
      ASSERT_TRUE(repaired.ok()) << repaired.status().ToString();
      EXPECT_EQ(Canon(*repaired), ColdCover(rows, 5, 3))
          << "threads " << threads << " seed " << seed;
    }
  }
}

TEST(IncrementalDeltaRepairTest, ForeignSeedsAndCapMismatchTakeThePliCheck) {
  for (int threads : {1, 2, 8}) {
    std::string what = "threads " + std::to_string(threads);
    auto rows = ModRows(0, 2000, false);
    Relation r = BuildRelation(rows, 4);
    EngineOptions eopts;
    eopts.num_threads = threads;
    DiscoveryEngine engine(eopts);
    auto cover0 = engine.HybridFds(r, HybridAt(3));
    ASSERT_TRUE(cover0.ok());
    // Every FD here has at most two LHS attributes, so the recorded set is
    // the cap-2 cover too; under cap 2 it still is not taken as recorded.
    ASSERT_TRUE(std::all_of(cover0->begin(), cover0->end(),
                            [](const DiscoveredFd& fd) {
                              return fd.lhs.size() <= 2;
                            }));
    auto delta1 = ModRows(2000, 12, true);
    rows = Concat(std::move(rows), delta1);
    ASSERT_TRUE(engine.AppendRows(r, delta1).ok());
    int64_t builds = engine.CacheStats().builds;
    auto other_cap = engine.RepairFdCover(r, *cover0, HybridAt(2));
    ASSERT_TRUE(other_cap.ok()) << other_cap.status().ToString();
    EXPECT_EQ(Canon(*other_cap), ColdCover(rows, 4, 2)) << what;
    EXPECT_GT(engine.CacheStats().builds, builds) << what;

    // A valid seed the cache did not record last (the cover of an older
    // prefix): the whole frontier is checked against PLIs.
    auto delta2 = ModRows(2012, 12, false);
    rows = Concat(std::move(rows), delta2);
    ASSERT_TRUE(engine.AppendRows(r, delta2).ok());
    builds = engine.CacheStats().builds;
    auto from_old = engine.RepairFdCover(r, *cover0, HybridAt(3));
    ASSERT_TRUE(from_old.ok()) << from_old.status().ToString();
    EXPECT_EQ(Canon(*from_old), ColdCover(rows, 4, 3)) << what;
    EXPECT_GT(engine.CacheStats().builds, builds) << what;
    // That completed run recorded its own output; a repair seeded with it
    // on the unchanged relation has no suspects and keeps the cover.
    auto again = engine.RepairFdCover(r, *from_old, HybridAt(3));
    ASSERT_TRUE(again.ok());
    EXPECT_EQ(Canon(*again), Canon(*from_old)) << what;

    // A cover found at another LHS cap never matches the recorded one.
    Relation prefix = BuildRelation(ModRows(0, 2000, false), 4);
    auto capped = DiscoverFdsHybrid(prefix, HybridAt(1));
    ASSERT_TRUE(capped.ok());
    auto repaired = engine.RepairFdCover(r, *capped, HybridAt(1));
    ASSERT_TRUE(repaired.ok()) << repaired.status().ToString();
    EXPECT_EQ(Canon(*repaired), ColdCover(rows, 4, 1)) << what;
    auto memo = (*engine.CacheFor(r))->fd_cover_memo();
    ASSERT_NE(memo, nullptr);
    EXPECT_EQ(memo->max_lhs_size, 1) << what;
  }
}

TEST(IncrementalDeltaRepairTest, AppendBreaksLevelZeroFds) {
  for (int threads : {1, 2, 8}) {
   for (bool first : {true, false}) {
    // c0 and c1 are constant on the base ({} -> c0, {} -> c1); the batch
    // changes c1 on its first or its last row only.
    std::vector<std::vector<Value>> rows;
    for (int64_t i = 0; i < 50; ++i) {
      rows.push_back({Value(int64_t{7}), Value("k"), Value(i % 11)});
    }
    Relation r = BuildRelation(rows, 3);
    EngineOptions eopts;
    eopts.num_threads = threads;
    DiscoveryEngine engine(eopts);
    auto cover = engine.HybridFds(r, HybridAt(2));
    ASSERT_TRUE(cover.ok());
    std::vector<std::vector<Value>> delta = {
        {Value(int64_t{7}), Value("k"), Value(int64_t{3})},
        {Value(int64_t{7}), Value("k"), Value(int64_t{4})}};
    delta[first ? 0 : 1][1] = Value("other");
    rows = Concat(std::move(rows), delta);
    ASSERT_TRUE(engine.AppendRows(r, delta).ok());
    HybridFdStats stats;
    HybridFdOptions opts = HybridAt(2);
    opts.stats = &stats;
    auto repaired = engine.RepairFdCover(r, *cover, opts);
    ASSERT_TRUE(repaired.ok()) << repaired.status().ToString();
    EXPECT_EQ(Canon(*repaired), ColdCover(rows, 3, 2))
        << "threads " << threads << (first ? " first" : " last");
    EXPECT_GT(stats.frontier_violations, 0);
   }
  }
}

TEST(IncrementalDeltaRepairTest, LowCardinalityLhsTakesThePliRule) {
  for (int threads : {1, 2, 8}) {
    for (uint64_t seed = 0; seed < 3; ++seed) {
      // Two-valued columns: every leaf class holds about half the rows, so
      // a batch of 40 suspects sums to far more than the row count and
      // every entry with a non-empty LHS is checked against its PLI.
      Rng rng(seed + 100 * threads);
      auto rows = IntRows(&rng, 200, 6, 2);
      Relation r = BuildRelation(rows, 6);
      EngineOptions eopts;
      eopts.num_threads = threads;
      DiscoveryEngine engine(eopts);
      auto cover = engine.HybridFds(r, HybridAt(3));
      ASSERT_TRUE(cover.ok());
      auto delta = IntRows(&rng, 40, 6, 2);
      rows = Concat(std::move(rows), delta);
      ASSERT_TRUE(engine.AppendRows(r, delta).ok());
      int64_t builds = engine.CacheStats().builds;
      auto repaired = engine.RepairFdCover(r, *cover, HybridAt(3));
      ASSERT_TRUE(repaired.ok()) << repaired.status().ToString();
      std::string what = "threads " + std::to_string(threads) + " seed " +
                         std::to_string(seed);
      EXPECT_EQ(Canon(*repaired), ColdCover(rows, 6, 3)) << what;
      bool multi_attr_lhs = false;
      for (const DiscoveredFd& fd : *cover) {
        multi_attr_lhs |= fd.lhs.size() > 1;
      }
      if (multi_attr_lhs) {
        EXPECT_GT(engine.CacheStats().builds, builds) << what;
      }
    }
  }
}

TEST(IncrementalDeltaRepairTest, OutOfCoreRepairMatchesCold) {
  for (int threads : {1, 2, 8}) {
    auto base_rows = ModRows(0, 1500, false);
    auto delta_rows = ModRows(1500, 15, true);
    auto all_rows = Concat(base_rows, delta_rows);
    IngestOptions opts;
    opts.shard_rows = 256;
    auto sharded = ShardedEncodedRelation::IngestCsvString(
        CsvOf(base_rows, 4, true), opts);
    ASSERT_TRUE(sharded.ok()) << sharded.status().ToString();
    EngineOptions eopts;
    eopts.num_threads = threads;
    DiscoveryEngine engine(eopts);
    auto cover = engine.HybridFdsOutOfCore(**sharded, HybridAt(3));
    ASSERT_TRUE(cover.ok()) << cover.status().ToString();
    PliCache* cache = *engine.OocCacheFor(**sharded);
    ASSERT_NE(cache->fd_cover_memo(), nullptr);
    ASSERT_TRUE(
        engine.AppendCsv(**sharded, CsvOf(delta_rows, 4, true), opts).ok());
    int64_t builds = cache->stats().builds;
    auto repaired = engine.RepairFdCoverOutOfCore(**sharded, *cover,
                                                  HybridAt(3));
    ASSERT_TRUE(repaired.ok()) << repaired.status().ToString();
    EXPECT_EQ(Canon(*repaired), ColdCover(all_rows, 4, 3))
        << "threads " << threads;
    EXPECT_EQ(cache->stats().builds, builds) << "threads " << threads;
    EXPECT_EQ(cache->fd_cover_memo()->num_rows, 1515);
  }
}

TEST(IncrementalDeltaRepairTest, CutOrTruncatedRunsRecordNoCover) {
  for (int threads : {1, 2, 8}) {
    std::string what = "threads " + std::to_string(threads);
    auto rows = ModRows(0, 1000, false);
    EngineOptions eopts;
    eopts.num_threads = threads;

    // A cold run cut at the frontier's second level records nothing.
    {
      Relation r = BuildRelation(rows, 4);
      DiscoveryEngine engine(eopts);
      FaultInjector faults({.fail_at_alloc = 2,
                            .alloc_site = "hybrid_validate"});
      RunContext ctx;
      ctx.set_fault_injector(&faults);
      HybridFdOptions opts = HybridAt(3);
      opts.context = &ctx;
      auto cut = engine.HybridFds(r, opts);
      ASSERT_TRUE(cut.ok()) << cut.status().ToString();
      EXPECT_TRUE(ctx.report().exhausted) << what;
      EXPECT_EQ((*engine.CacheFor(r))->fd_cover_memo(), nullptr) << what;
      // Nor does one truncated by max_results.
      HybridFdOptions few = HybridAt(3);
      few.max_results = 1;
      ASSERT_TRUE(engine.HybridFds(r, few).ok());
      EXPECT_EQ((*engine.CacheFor(r))->fd_cover_memo(), nullptr) << what;
    }

    // A repair cut at "hybrid_validate" keeps the earlier record, so the
    // next repair from the same seed still takes the suspect-row check.
    Relation r = BuildRelation(rows, 4);
    DiscoveryEngine engine(eopts);
    auto cover = engine.HybridFds(r, HybridAt(3));
    ASSERT_TRUE(cover.ok());
    PliCache* cache = *engine.CacheFor(r);
    auto recorded = cache->fd_cover_memo();
    ASSERT_NE(recorded, nullptr);
    auto delta = ModRows(1000, 10, true);
    rows = Concat(std::move(rows), delta);
    ASSERT_TRUE(engine.AppendRows(r, delta).ok());
    EXPECT_EQ(cache->fd_cover_memo(), recorded) << "append dropped the record";
    FaultInjector faults({.fail_at_alloc = 2,
                          .alloc_site = "hybrid_validate"});
    RunContext ctx;
    ctx.set_fault_injector(&faults);
    HybridFdOptions opts = HybridAt(3);
    opts.context = &ctx;
    auto cut = engine.RepairFdCover(r, *cover, opts);
    ASSERT_TRUE(cut.ok()) << cut.status().ToString();
    EXPECT_TRUE(ctx.report().exhausted) << what;
    EXPECT_EQ(cache->fd_cover_memo(), recorded) << what;
    int64_t builds = engine.CacheStats().builds;
    auto repaired = engine.RepairFdCover(r, *cover, HybridAt(3));
    ASSERT_TRUE(repaired.ok()) << repaired.status().ToString();
    EXPECT_EQ(Canon(*repaired), ColdCover(rows, 4, 3)) << what;
    EXPECT_EQ(engine.CacheStats().builds, builds) << what;
    EXPECT_EQ(cache->fd_cover_memo()->num_rows, 1010) << what;
  }
}

TEST(IncrementalDeltaRepairTest, TightBudgetStopsBeforeTheFill) {
  // c0 = c1 in classes of 500 rows and c2 a key: the appended row lands in
  // a 500-row class of c0 and of c1 but agrees with every partner on the
  // same {c0, c1}, so each fill holds one agree set against a worst case
  // of 499.
  auto rows_of = [](int first, int count) {
    std::vector<std::vector<Value>> out;
    for (int64_t r = first; r < first + count; ++r) {
      int64_t c = (r % 2000) / 500;
      out.push_back({Value(c), Value(c), Value(r)});
    }
    return out;
  };
  auto base = rows_of(0, 2000);
  auto delta = rows_of(2000, 1);
  auto all = Concat(base, delta);
  for (int threads : {1, 2, 8}) {
    std::string what = "threads " + std::to_string(threads);
    struct Outcome {
      RunReport report;
      size_t used = 0;
      std::vector<FdTuple> cover;
      int memo_rows = -1;
    };
    auto repair_within = [&](size_t limit) {
      Outcome out;
      Relation r = BuildRelation(base, 3);
      EngineOptions eopts;
      eopts.num_threads = threads;
      DiscoveryEngine engine(eopts);
      auto cover = engine.HybridFds(r, HybridAt(2));
      EXPECT_TRUE(cover.ok()) << cover.status().ToString();
      EXPECT_TRUE(engine.AppendRows(r, delta).ok());
      MemoryBudget budget(limit);
      RunContext ctx;
      ctx.set_memory_budget(&budget);
      HybridFdOptions opts = HybridAt(2);
      opts.context = &ctx;
      auto repaired = engine.RepairFdCover(r, *cover, opts);
      EXPECT_TRUE(repaired.ok()) << repaired.status().ToString();
      out.report = ctx.report();
      out.used = budget.used();
      if (repaired.ok()) out.cover = Canon(*repaired);
      auto memo = (*engine.CacheFor(r))->fd_cover_memo();
      if (memo != nullptr) out.memo_rows = memo->num_rows;
      return out;
    };
    Outcome ample = repair_within(size_t{1} << 40);
    EXPECT_FALSE(ample.report.exhausted) << what;
    EXPECT_EQ(ample.cover, ColdCover(all, 3, 2)) << what;
    EXPECT_EQ(ample.memo_rows, 2001) << what;
    // The fill's worst case is charged before it allocates (and the unused
    // part refunded after): a budget with room for everything the run
    // keeps, but not for that worst case, stops at "hybrid_validate" and
    // keeps the earlier record.
    Outcome tight = repair_within(ample.used + 1024);
    EXPECT_TRUE(tight.report.exhausted) << what;
    EXPECT_EQ(tight.report.stop_code, StatusCode::kResourceExhausted) << what;
    EXPECT_NE(tight.report.stop_detail.find("hybrid_validate"),
              std::string::npos)
        << what << ": " << tight.report.stop_detail;
    EXPECT_EQ(tight.memo_rows, 2000) << what;
  }
}

TEST(IncrementalDeltaRepairTest, FailedMaintenanceDropsTheRecordedCover) {
  auto rows = ModRows(0, 500, false);
  Relation r = BuildRelation(rows, 4);
  PliCache cache(r);
  ASSERT_TRUE(DiscoverFdsHybrid(&cache, HybridAt(2)).ok());
  ASSERT_NE(cache.fd_cover_memo(), nullptr);
  ASSERT_TRUE(r.AppendRows(ModRows(500, 5, false)).ok());
  FaultInjector faults({.fail_at_alloc = 1, .alloc_site = "pli_build"});
  RunContext ctx;
  ctx.set_fault_injector(&faults);
  EXPECT_FALSE(cache.MaintainAppend(&ctx).ok());
  EXPECT_EQ(cache.fd_cover_memo(), nullptr);
}

TEST(IncrementalEngineTest, ForgetRelationDropsEvidenceEntries) {
  Rng rng(40);
  auto rows = RandomRows(&rng, 20, 3, 3);
  Relation r = BuildRelation(rows, 3);
  DiscoveryEngine engine;
  auto cache = engine.CacheFor(r);
  ASSERT_TRUE(cache.ok());
  std::vector<EvidenceColumn> config;
  for (int c = 0; c < 3; ++c) {
    EvidenceColumn col;
    col.attr = c;
    col.cmp = EvidenceColumn::Cmp::kEquality;
    config.push_back(col);
  }
  auto built = GetOrBuildEvidence(&engine.evidence_cache(),
                                  (*cache)->encoded(), config, {});
  ASSERT_TRUE(built.ok());
  ASSERT_GT(engine.EvidenceStats().bytes, size_t{0});

  // Regression: forgetting the relation must also drop its evidence
  // entries — they used to linger keyed by the dead encoding fingerprint.
  engine.ForgetRelation(r);
  EXPECT_EQ(engine.EvidenceStats().bytes, size_t{0});
}

}  // namespace
}  // namespace famtree
