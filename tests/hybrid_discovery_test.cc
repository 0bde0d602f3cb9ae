// Differential-oracle tests for the hybrid sampling + induction engine
// (src/discovery/hybrid/): on seeded random relations mixing ints, doubles
// (including integer doubles that compare equal cross-representation),
// strings and nulls, the hybrid FD driver must return the bit-identical
// minimal cover the TANE lattice and FastFDs produce, at 1, 2 and 8
// threads; the MD consumer must match DiscoverMds move for move at
// min_confidence 1.0 (and via its fallback everywhere else). The relation
// generators mirror tests/encoded_property_test.cc. The 1M-row acceptance
// differential lives in tests/hybrid_scale_test.cc (tier1 only, so the
// sanitizer configs skip it).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "discovery/fastfd.h"
#include "discovery/hybrid/hybrid_fd.h"
#include "discovery/hybrid/hybrid_md.h"
#include "discovery/md_discovery.h"
#include "discovery/tane.h"
#include "engine/engine.h"
#include "relation/relation.h"

namespace famtree {
namespace {

/// A random cell mixing all four value kinds (same distribution as
/// tests/encoded_property_test.cc), so cross-representation numerics
/// (Value(k) == Value(k.0)) and nulls are exercised.
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

// (|lhs|, lhs mask, rhs, error) — the canonical FD order both engines are
// compared in. Exact double equality on the error is intentional: the
// hybrid only emits exact FDs, so every error must be exactly 0.0.
using FdKey = std::tuple<int, uint64_t, int, double>;

std::vector<FdKey> Canon(const std::vector<DiscoveredFd>& fds) {
  std::vector<FdKey> out;
  for (const DiscoveredFd& fd : fds) {
    out.emplace_back(fd.lhs.size(), fd.lhs.mask(), fd.rhs, fd.error);
  }
  std::sort(out.begin(), out.end());
  return out;
}

// (md text, support, confidence) with exact double equality — the hybrid
// MD path claims bit-identical stats, not approximately-equal ones.
using MdKey = std::tuple<std::string, double, double>;

std::vector<MdKey> MdList(const std::vector<DiscoveredMd>& mds) {
  std::vector<MdKey> out;
  for (const DiscoveredMd& d : mds) {
    out.emplace_back(d.md.ToString(), d.support, d.confidence);
  }
  return out;  // order-sensitive: the hybrid replays the oracle's order
}

TEST(HybridFdDifferentialTest, MatchesTaneOnRandomMixedRelations) {
  for (uint64_t seed = 0; seed < 40; ++seed) {
    int rows = 12 + static_cast<int>(seed % 7) * 13;
    int cols = 2 + static_cast<int>(seed % 5);
    int domain = 2 + static_cast<int>(seed % 5);
    Relation r = MakeMixedRandomRelation(seed, rows, cols, domain);

    auto tane = DiscoverFdsTane(r, TaneOptions{});
    ASSERT_TRUE(tane.ok()) << tane.status().ToString();

    HybridFdStats stats;
    HybridFdOptions options;
    options.stats = &stats;
    auto hybrid = DiscoverFdsHybrid(r, options);
    ASSERT_TRUE(hybrid.ok()) << hybrid.status().ToString();

    EXPECT_EQ(Canon(*hybrid), Canon(*tane))
        << "seed " << seed << " rows " << rows << " cols " << cols;
    for (const DiscoveredFd& fd : *hybrid) EXPECT_EQ(fd.error, 0.0);
    // The hybrid's own output order is already canonical.
    EXPECT_EQ(Canon(*hybrid), [&] {
      std::vector<FdKey> as_emitted;
      for (const DiscoveredFd& fd : *hybrid) {
        as_emitted.emplace_back(fd.lhs.size(), fd.lhs.mask(), fd.rhs,
                                fd.error);
      }
      return as_emitted;
    }()) << "hybrid output not canonically ordered, seed " << seed;
    EXPECT_GT(stats.sampled_pairs, 0) << "seed " << seed;
  }
}

TEST(HybridFdDifferentialTest, MatchesFastFdOnRandomMixedRelations) {
  for (uint64_t seed = 100; seed < 125; ++seed) {
    int rows = 10 + static_cast<int>(seed % 6) * 9;
    int cols = 2 + static_cast<int>(seed % 4);
    Relation r = MakeMixedRandomRelation(seed, rows, cols, 3);

    FastFdOptions fast_options;
    fast_options.max_lhs_size = 4;
    auto fast = DiscoverFdsFastFd(r, fast_options);
    ASSERT_TRUE(fast.ok()) << fast.status().ToString();

    HybridFdOptions options;
    options.max_lhs_size = 4;
    auto hybrid = DiscoverFdsHybrid(r, options);
    ASSERT_TRUE(hybrid.ok()) << hybrid.status().ToString();

    EXPECT_EQ(Canon(*hybrid), Canon(*fast)) << "seed " << seed;
  }
}

TEST(HybridFdDifferentialTest, SamplingEffortNeverChangesTheCover) {
  // min_efficiency only moves work between the sampler and the validator;
  // the discovered cover must be identical at any setting.
  for (uint64_t seed = 200; seed < 212; ++seed) {
    Relation r = MakeMixedRandomRelation(seed, 60, 4, 3);
    std::vector<FdKey> reference;
    for (double min_efficiency : {0.0, 0.01, 0.2, 1e9}) {
      HybridFdOptions options;
      options.min_efficiency = min_efficiency;
      auto fds = DiscoverFdsHybrid(r, options);
      ASSERT_TRUE(fds.ok()) << fds.status().ToString();
      if (reference.empty()) {
        reference = Canon(*fds);
        auto tane = DiscoverFdsTane(r, TaneOptions{});
        ASSERT_TRUE(tane.ok());
        EXPECT_EQ(reference, Canon(*tane)) << "seed " << seed;
      } else {
        EXPECT_EQ(Canon(*fds), reference)
            << "seed " << seed << " min_efficiency " << min_efficiency;
      }
    }
  }
}

TEST(HybridFdDifferentialTest, ThreadCountsProduceIdenticalCovers) {
  for (uint64_t seed = 300; seed < 312; ++seed) {
    int rows = 40 + static_cast<int>(seed % 5) * 25;
    int cols = 3 + static_cast<int>(seed % 4);
    Relation r = MakeMixedRandomRelation(seed, rows, cols, 4);

    std::vector<std::vector<DiscoveredFd>> per_threads;
    for (int threads : {1, 2, 8}) {
      EngineOptions engine_options;
      engine_options.num_threads = threads;
      DiscoveryEngine engine(engine_options);
      auto fds = engine.HybridFds(r);
      ASSERT_TRUE(fds.ok()) << fds.status().ToString();
      per_threads.push_back(std::move(*fds));
    }
    // Bit-identical across thread counts — exact list equality, not just
    // set equality, because the hybrid's output is canonically ordered.
    for (size_t i = 1; i < per_threads.size(); ++i) {
      ASSERT_EQ(per_threads[i].size(), per_threads[0].size())
          << "seed " << seed;
      for (size_t k = 0; k < per_threads[0].size(); ++k) {
        EXPECT_EQ(per_threads[i][k].lhs, per_threads[0][k].lhs);
        EXPECT_EQ(per_threads[i][k].rhs, per_threads[0][k].rhs);
        EXPECT_EQ(per_threads[i][k].error, per_threads[0][k].error);
      }
    }
    // And identical to the lattice driver of the same engine type.
    EngineOptions lattice_options;
    lattice_options.num_threads = 2;
    DiscoveryEngine lattice(lattice_options);
    auto via_tane = lattice.Tane(r);
    ASSERT_TRUE(via_tane.ok());
    EXPECT_EQ(Canon(per_threads[0]), Canon(*via_tane)) << "seed " << seed;
    // A serial, cache-free, pool-free run closes the matrix.
    auto serial = DiscoverFdsHybrid(r);
    ASSERT_TRUE(serial.ok());
    EXPECT_EQ(Canon(*serial), Canon(per_threads[0])) << "seed " << seed;
  }
}

TEST(HybridFdDifferentialTest, WordBoundaryAttributeCounts) {
  // 63 was the single-mask-word cap; 64/65 exercise lhs sets and agree
  // sets whose masks spill into the second word, and the randomized width
  // goes a bit past it.
  for (int cols : {63, 64, 65, 64 + static_cast<int>(Rng(13).Uniform(0, 5))}) {
    Rng rng(7 + cols);
    std::vector<std::string> names;
    for (int c = 0; c < cols; ++c) names.push_back("c" + std::to_string(c));
    RelationBuilder b(names);
    for (int r = 0; r < 30; ++r) {
      std::vector<Value> row;
      for (int c = 0; c < cols; ++c) row.push_back(RandomCell(&rng, 3));
      b.AddRow(std::move(row));
    }
    Relation r = std::move(b.Build()).value();

    TaneOptions tane_options;
    tane_options.max_lhs_size = 2;
    auto tane = DiscoverFdsTane(r, tane_options);
    ASSERT_TRUE(tane.ok()) << tane.status().ToString();

    HybridFdOptions options;
    options.max_lhs_size = 2;
    auto hybrid = DiscoverFdsHybrid(r, options);
    ASSERT_TRUE(hybrid.ok()) << hybrid.status().ToString();
    EXPECT_EQ(Canon(*hybrid), Canon(*tane)) << "cols " << cols;
  }
}

TEST(HybridMdDifferentialTest, MatchesOracleAtFullConfidence) {
  int cover_tree_runs = 0;
  for (uint64_t seed = 400; seed < 424; ++seed) {
    int rows = 15 + static_cast<int>(seed % 6) * 10;
    int cols = 3 + static_cast<int>(seed % 3);
    Relation r = MakeMixedRandomRelation(seed, rows, cols, 3);

    AttrSet rhs = AttrSet::Single(static_cast<int>(seed % cols));
    if (seed % 4 == 0) rhs.Add(static_cast<int>((seed + 1) % cols));

    MdDiscoveryOptions options;
    options.min_confidence = 1.0;
    options.min_support = 0.0;
    auto oracle = DiscoverMds(r, rhs, options);
    ASSERT_TRUE(oracle.ok()) << oracle.status().ToString();

    HybridMdStats stats;
    auto hybrid = DiscoverMdsHybrid(r, rhs, options, &stats);
    ASSERT_TRUE(hybrid.ok()) << hybrid.status().ToString();

    EXPECT_EQ(MdList(*hybrid), MdList(*oracle))
        << "seed " << seed << " rhs " << rhs.mask();
    if (stats.used_cover_tree) {
      ++cover_tree_runs;
      EXPECT_GT(stats.predicate_bits, 0);
      EXPECT_GE(stats.candidates, stats.valid_candidates);
    }
  }
  // The gate is only meaningful if the cover-tree path actually ran.
  EXPECT_GT(cover_tree_runs, 0);
}

TEST(HybridMdDifferentialTest, ThreadCountsProduceIdenticalMds) {
  for (uint64_t seed = 500; seed < 506; ++seed) {
    Relation r = MakeMixedRandomRelation(seed, 50, 4, 3);
    AttrSet rhs = AttrSet::Single(static_cast<int>(seed % 4));
    MdDiscoveryOptions options;
    options.min_confidence = 1.0;

    std::vector<MdKey> reference;
    for (int threads : {1, 2, 8}) {
      EngineOptions engine_options;
      engine_options.num_threads = threads;
      DiscoveryEngine engine(engine_options);
      auto mds = engine.HybridMds(r, rhs, options);
      ASSERT_TRUE(mds.ok()) << mds.status().ToString();
      if (reference.empty() && threads == 1) {
        reference = MdList(*mds);
        auto oracle = engine.Mds(r, rhs, options);
        ASSERT_TRUE(oracle.ok());
        EXPECT_EQ(reference, MdList(*oracle)) << "seed " << seed;
      } else {
        EXPECT_EQ(MdList(*mds), reference)
            << "seed " << seed << " threads " << threads;
      }
    }
  }
}

TEST(HybridMdDifferentialTest, FallbackConfigsDelegateToOracle) {
  // Approximate confidence bounds cannot be answered by the cover tree;
  // the hybrid must delegate wholesale and still return identical output.
  Relation r = MakeMixedRandomRelation(601, 60, 4, 3);
  AttrSet rhs = AttrSet::Single(2);
  for (double min_confidence : {0.9, 0.5}) {
    MdDiscoveryOptions options;
    options.min_confidence = min_confidence;
    auto oracle = DiscoverMds(r, rhs, options);
    ASSERT_TRUE(oracle.ok());
    HybridMdStats stats;
    auto hybrid = DiscoverMdsHybrid(r, rhs, options, &stats);
    ASSERT_TRUE(hybrid.ok());
    EXPECT_FALSE(stats.used_cover_tree);
    EXPECT_EQ(MdList(*hybrid), MdList(*oracle))
        << "min_confidence " << min_confidence;
  }
  // Sampling configs stay eligible — and identical.
  MdDiscoveryOptions sampled;
  sampled.min_confidence = 1.0;
  sampled.sample_rows = 25;
  auto oracle = DiscoverMds(r, rhs, sampled);
  ASSERT_TRUE(oracle.ok());
  HybridMdStats stats;
  auto hybrid = DiscoverMdsHybrid(r, rhs, sampled, &stats);
  ASSERT_TRUE(hybrid.ok());
  EXPECT_EQ(MdList(*hybrid), MdList(*oracle));
}

}  // namespace
}  // namespace famtree
